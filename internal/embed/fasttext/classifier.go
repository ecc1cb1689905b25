package fasttext

import (
	"fmt"
	"math"

	"repro/internal/tokenize"
)

// Classifier is the supervised FastText mode used as a Table-2 baseline:
// documents embed as the mean of word/n-gram input vectors, and a linear
// softmax layer over those embeddings predicts the root-cause category.
// Both the embeddings and the softmax weights are trained jointly by SGD,
// as in the original library.
type Classifier struct {
	model  *Model
	labels []string
	lindex map[string]int
	// w is the softmax weight matrix, one row per label.
	w [][]float64
}

// TrainSupervised trains a classifier from parallel texts/labels slices.
func TrainSupervised(texts, labels []string, cfg Config) (*Classifier, error) {
	if len(texts) != len(labels) {
		return nil, fmt.Errorf("fasttext: %d texts but %d labels", len(texts), len(labels))
	}
	if len(texts) == 0 {
		return nil, fmt.Errorf("fasttext: empty training set")
	}
	cfg = cfg.withDefaults()

	// Share the skip-gram vocabulary and input matrix; training is driven
	// by the classification loss, so there are no output vectors.
	m, docs, rng := newModel(texts, cfg)

	c := &Classifier{model: m, lindex: make(map[string]int)}
	for _, l := range labels {
		if _, ok := c.lindex[l]; !ok {
			c.lindex[l] = len(c.labels)
			c.labels = append(c.labels, l)
		}
	}
	c.w = make([][]float64, len(c.labels))
	for i := range c.w {
		c.w[i] = make([]float64, cfg.Dim)
	}

	// Pre-compute per-document input rows. Words below MinCount are not in
	// the vocabulary but still train their n-gram buckets.
	docInputs := make([][][]int, len(docs))
	var runes []rune
	for i, ws := range docs {
		rows := make([][]int, 0, len(ws))
		for _, w := range ws {
			if id, ok := m.vocab[w]; ok {
				rows = append(rows, m.rows[id])
				continue
			}
			var oov []int
			oov, runes = m.appendBuckets(nil, []byte(w), runes)
			rows = append(rows, oov)
		}
		docInputs[i] = rows
	}

	hidden := make([]float64, cfg.Dim)
	probs := make([]float64, len(c.labels))
	grad := make([]float64, cfg.Dim)
	tmp := make([]float64, cfg.Dim)
	order := rng.Perm(len(texts))
	steps := cfg.Epochs * len(texts)
	step := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, di := range order {
			lr := cfg.LR * (1 - float64(step)/float64(steps+1))
			step++
			rows := docInputs[di]
			if len(rows) == 0 {
				continue
			}
			c.embedRows(rows, hidden, tmp)
			c.softmax(hidden, probs)
			y := c.lindex[labels[di]]
			for i := range grad {
				grad[i] = 0
			}
			for li := range c.labels {
				delta := probs[li]
				if li == y {
					delta -= 1
				}
				g := delta * lr
				wv := c.w[li]
				for i := range wv {
					grad[i] -= g * wv[i]
					wv[i] -= g * hidden[i]
				}
			}
			// Distribute the hidden gradient back to the input rows.
			scale := 1.0 / float64(len(rows))
			for _, row := range rows {
				rowScale := scale / float64(len(row))
				for _, idx := range row {
					axpy(m.row(idx), grad, rowScale)
				}
			}
		}
	}
	m.seal()
	return c, nil
}

// embedRows averages per-word input compositions into dst, composing each
// word in tmp.
func (c *Classifier) embedRows(rows [][]int, dst, tmp []float64) {
	clear(dst)
	for _, row := range rows {
		c.model.composeInput(row, tmp)
		add1(dst, tmp)
	}
	scaleBy(dst, 1.0/float64(len(rows)))
}

func (c *Classifier) softmax(hidden []float64, probs []float64) {
	maxLogit := math.Inf(-1)
	for li, wv := range c.w {
		dot := 0.0
		for i := range hidden {
			dot += hidden[i] * wv[i]
		}
		probs[li] = dot
		if dot > maxLogit {
			maxLogit = dot
		}
	}
	var z float64
	for li := range probs {
		probs[li] = math.Exp(probs[li] - maxLogit)
		z += probs[li]
	}
	for li := range probs {
		probs[li] /= z
	}
}

// Labels returns the label set in training order.
func (c *Classifier) Labels() []string { return append([]string(nil), c.labels...) }

// Predict returns the most probable label for the text and its probability.
func (c *Classifier) Predict(text string) (string, float64) {
	// The mean of the words' composed vectors, as embedRows computes it
	// during training.
	hidden := make([]float64, c.model.cfg.Dim)
	var s scratch
	n := 0
	for w := range tokenize.Scan(text) {
		vec, _ := c.model.embedWord(w, &s)
		for i := range hidden {
			hidden[i] += vec[i]
		}
		n++
	}
	if n == 0 {
		return c.labels[0], 1.0 / float64(len(c.labels))
	}
	scale := 1.0 / float64(n)
	for i := range hidden {
		hidden[i] *= scale
	}
	probs := make([]float64, len(c.labels))
	c.softmax(hidden, probs)
	best, bestP := 0, -1.0
	for li, p := range probs {
		if p > bestP {
			best, bestP = li, p
		}
	}
	return c.labels[best], bestP
}
