package fasttext

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// trainSkipgramReference is the original one-pair-at-a-time skip-gram
// loop: a [][]float64 output matrix, an []int negative table, negatives
// drawn between updates, and a row-at-a-time composeInput. It is the
// oracle for TrainSkipgram, which must reproduce its bits exactly.
func trainSkipgramReference(corpus []string, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	m, docs, rng := newModel(corpus, cfg)
	if len(m.words) == 0 {
		return nil, fmt.Errorf("fasttext: empty vocabulary (corpus too small for MinCount=%d)", cfg.MinCount)
	}
	out := make([][]float64, len(m.words))
	for i := range out {
		out[i] = make([]float64, cfg.Dim)
	}
	negTable := refNegTable(m.counts)

	seqs := make([][]int, len(docs))
	tokens := 0
	for i, ws := range docs {
		for _, w := range ws {
			if id, ok := m.vocab[w]; ok {
				seqs[i] = append(seqs[i], id)
				tokens++
			}
		}
	}
	if tokens == 0 {
		return nil, fmt.Errorf("fasttext: no in-vocabulary tokens to train on")
	}

	totalSteps := cfg.Epochs * tokens
	step := 0
	hidden := make([]float64, cfg.Dim)
	grad := make([]float64, cfg.Dim)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, seq := range seqs {
			for pos, center := range seq {
				lr := cfg.LR * (1 - float64(step)/float64(totalSteps+1))
				if lr < cfg.LR*0.0001 {
					lr = cfg.LR * 0.0001
				}
				step++
				window := 1 + rng.Intn(cfg.Window)
				inputs := m.rows[center]
				refComposeInput(m, inputs, hidden)
				for i := range grad {
					grad[i] = 0
				}
				changed := false
				for off := -window; off <= window; off++ {
					cpos := pos + off
					if off == 0 || cpos < 0 || cpos >= len(seq) {
						continue
					}
					target := seq[cpos]
					refUpdatePair(hidden, grad, out[target], 1, lr)
					for n := 0; n < cfg.NegSamples; n++ {
						neg := negTable[rng.Intn(len(negTable))]
						if neg == target {
							continue
						}
						refUpdatePair(hidden, grad, out[neg], 0, lr)
					}
					changed = true
				}
				if changed {
					scale := 1.0 / float64(len(inputs))
					for _, idx := range inputs {
						v := m.row(idx)
						for i := range v {
							v[i] += grad[i] * scale
						}
					}
				}
			}
		}
	}
	rows := m.rows
	m.seal()
	d := cfg.Dim
	for id, r := range rows {
		refComposeInput(m, r, m.vecs[id*d:(id+1)*d])
	}
	return m, nil
}

func refUpdatePair(hidden, grad, ov []float64, label float64, lr float64) {
	dot := 0.0
	for i := range hidden {
		dot += hidden[i] * ov[i]
	}
	g := (label - sigmoid(dot)) * lr
	for i := range hidden {
		grad[i] += g * ov[i]
		ov[i] += g * hidden[i]
	}
}

func refNegTable(counts []int) []int {
	const tableSize = 1 << 17
	table := make([]int, 0, tableSize)
	var z float64
	for _, c := range counts {
		z += math.Pow(float64(c), 0.75)
	}
	for id, c := range counts {
		n := int(math.Ceil(math.Pow(float64(c), 0.75) / z * tableSize))
		for i := 0; i < n; i++ {
			table = append(table, id)
		}
	}
	if len(table) == 0 {
		table = []int{0}
	}
	return table
}

func refComposeInput(m *Model, indices []int, dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for _, idx := range indices {
		v := m.row(idx)
		for i := range dst {
			dst[i] += v[i]
		}
	}
	scale := 1.0 / float64(len(indices))
	for i := range dst {
		dst[i] *= scale
	}
}

// firstBitDiff returns the first index where a and b differ in their float64
// bits, or -1 if they are bit-identical.
func firstBitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkMatchesReference trains with both loops and requires identical
// bits in the input matrix, the composed vocabulary vectors and the SIF
// weights, or the same error.
func checkMatchesReference(t *testing.T, corpus []string, cfg Config) {
	t.Helper()
	got, gotErr := TrainSkipgram(corpus, cfg)
	want, wantErr := trainSkipgramReference(corpus, cfg)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%+v: error %v, reference error %v", cfg, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	for _, c := range []struct {
		name      string
		got, want []float64
	}{{"in", got.in, want.in}, {"vecs", got.vecs, want.vecs}, {"weights", got.weights, want.weights}} {
		if i := firstBitDiff(c.got, c.want); i >= 0 {
			t.Fatalf("%+v: %s differs from the reference at %d (len %d vs %d)",
				cfg, c.name, i, len(c.got), len(c.want))
		}
	}
}

// TestTrainSkipgramMatchesReference covers the run-batched trainer against
// the one-pair-at-a-time oracle. Two- and three-word vocabularies repeat an
// output row within almost every run of four, so runs end early on nearly
// every step; five words make full runs of four that still break often;
// the generated-corpus slice has long distinct runs, runs of eight
// included. Dimensions 1, 3, 5 and 68 leave a tail after the kernels'
// four-wide vector bodies; 4, 8, 12 and 64 do not.
func TestTrainSkipgramMatchesReference(t *testing.T) {
	tiny := [][]string{
		{"disk port disk port port disk", "port disk disk"},
		{"queue disk port queue queue disk port", "port port queue", "disk"},
		{"queue disk port host node disk host queue node port port", "node host disk queue"},
	}
	for _, dim := range []int{1, 3, 5, 64, 4, 8, 12, 68} {
		for _, neg := range []int{1, 5, 12} {
			for _, window := range []int{1, 8} {
				for _, corpus := range tiny {
					checkMatchesReference(t, corpus, Config{
						Dim: dim, NegSamples: neg, Window: window, Epochs: 2,
						MinCount: 1, Buckets: 64, Seed: int64(dim*100 + neg*10 + window),
					})
				}
			}
		}
	}
	texts, _ := goldenCorpus(t)
	slice := texts[:12]
	for _, text := range texts[:4] {
		slice = append(slice, text[:len(text)/3])
	}
	for _, cfg := range []Config{
		{Dim: 64, Epochs: 1, Buckets: 1 << 10, Seed: 3},
		{Dim: 5, Epochs: 2, Window: 8, NegSamples: 12, MinCount: 1, Buckets: 256, Seed: 4},
	} {
		checkMatchesReference(t, slice, cfg)
	}
	for _, dim := range []int{4, 8, 12, 68} {
		checkMatchesReference(t, slice, Config{
			Dim: dim, Epochs: 1, Window: 8, NegSamples: 12, MinCount: 1, Buckets: 256, Seed: int64(dim),
		})
	}
	checkMatchesReference(t, topicCorpus(), smallCfg())
}

func FuzzTrainSkipgram(f *testing.F) {
	f.Add([]byte("disk port disk port port disk\nport disk disk"), uint8(3), uint8(5), uint8(1), uint8(1), uint8(63), int64(1))
	f.Add([]byte("a b a\nb a"), uint8(0), uint8(11), uint8(7), uint8(0), uint8(0), int64(2))
	f.Add([]byte(strings.Join(topicCorpus()[:4], "\n")), uint8(63), uint8(4), uint8(3), uint8(0), uint8(200), int64(7))
	f.Add([]byte("udp\xffsocket\xfeport 東京 socket\nport 11001 port"), uint8(4), uint8(2), uint8(2), uint8(2), uint8(17), int64(-5))
	f.Fuzz(func(t *testing.T, corpus []byte, dim, neg, window, epochs, buckets uint8, seed int64) {
		if len(corpus) > 2048 {
			corpus = corpus[:2048]
		}
		checkMatchesReference(t, strings.Split(string(corpus), "\n"), Config{
			Dim:        1 + int(dim%64),
			NegSamples: 1 + int(neg%12),
			Window:     1 + int(window%8),
			Epochs:     1 + int(epochs%3),
			MinCount:   1,
			Buckets:    1 + int(buckets),
			Seed:       seed,
		})
	})
}
