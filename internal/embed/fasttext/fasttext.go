// Package fasttext is a from-scratch Go implementation of the FastText
// embedding model RCACopilot trains on historical incidents (§4.2.1):
// skip-gram with negative sampling where every word vector is the sum of a
// word-id vector and hashed character-n-gram vectors, so out-of-vocabulary
// tokens (fresh machine names, new exception types) still embed near their
// morphological neighbours. The paper chose FastText because it is
// "efficient, insensitive to text input length, and generates dense
// matrices, making it easy to calculate the Euclidean distance between
// similar vectors"; this implementation preserves those properties.
//
// Training is single-goroutine and bit-stable: the same corpus and Config
// give the same float64 bits in every trained row, on every run and
// across versions of this package. Speedups to the trainer keep each
// value's floating-point operations and their order; the trainer is
// checked against the original one-pair-at-a-time loop, and the trained
// vectors and input matrix are pinned by goldens. Vectors persisted by an
// older binary therefore stay in the space of a freshly retrained model.
//
// On amd64 CPUs with AVX2 the trainer's hot loops (kernels.go: the
// input-row update, composeInput's sums, the fused output-row updates and
// an eight-pair dot product) run as assembly, chosen once at package init.
// The kernels vectorize without reordering: an elementwise loop puts four
// elements in four lanes, and the dot product puts one pair's own
// left-to-right sum in each lane, over runs of up to eight pairs with
// distinct output rows (see applyPairs). They multiply and then add, never
// with a fused multiply-add, because the goldens were recorded from Go
// code compiled without contraction. Both paths give the same bits; tests
// hold each kernel to its generic loop and run the trainer both ways.
//
// The package also provides the supervised FastText classifier used as a
// baseline in the paper's Table 2.
package fasttext

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"unicode/utf8"

	"repro/internal/tokenize"
)

// Config parameterizes training. Zero fields take the documented defaults.
type Config struct {
	Dim        int     // embedding dimensionality (default 64)
	Epochs     int     // passes over the corpus (default 5)
	Window     int     // skip-gram context window (default 5)
	NegSamples int     // negative samples per positive pair (default 5)
	MinCount   int     // minimum word frequency for the vocabulary (default 2)
	Buckets    int     // hash buckets for char n-grams (default 1<<16)
	MinN       int     // smallest char n-gram (default 3)
	MaxN       int     // largest char n-gram (default max(MinN, 5))
	LR         float64 // initial learning rate (default 0.05)
	Seed       int64   // RNG seed (default 1)
}

func (c Config) withDefaults() Config {
	if c.Dim <= 0 {
		c.Dim = 64
	}
	if c.Epochs <= 0 {
		c.Epochs = 5
	}
	if c.Window <= 0 {
		c.Window = 5
	}
	if c.NegSamples <= 0 {
		c.NegSamples = 5
	}
	if c.MinCount <= 0 {
		c.MinCount = 2
	}
	if c.Buckets <= 0 {
		c.Buckets = 1 << 16
	}
	if c.MinN <= 0 {
		c.MinN = 3
	}
	if c.MaxN < c.MinN {
		c.MaxN = max(c.MinN, 5)
	}
	if c.LR <= 0 {
		c.LR = 0.05
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Model is a trained FastText embedding model.
//
// A Model is immutable once TrainSkipgram or TrainSupervised returns it:
// every field is written only during training, which is what lets each
// vocabulary word's vector and weight be composed once up front. A trained
// Model is therefore safe for concurrent reads (DocVector, WordVector,
// Similarity) from the batch pipeline and the parallel eval harness.
type Model struct {
	cfg    Config
	vocab  map[string]int // word -> index
	words  []string       // index -> word
	counts []int          // index -> corpus frequency

	// in holds the input vectors, Dim floats per row: words first, then
	// n-gram buckets.
	in []float64
	// rows[id] lists the input rows composing vocabulary word id: the
	// word's own row, then its n-gram buckets. Only training reads it;
	// seal drops it.
	rows [][]int

	// vecs holds each vocabulary word's composed input vector (Dim floats
	// per word) and weights its SIF weight, both filled by seal.
	vecs    []float64
	weights []float64
}

// Dim returns the embedding dimensionality.
func (m *Model) Dim() int { return m.cfg.Dim }

// VocabSize returns the number of in-vocabulary words.
func (m *Model) VocabSize() int { return len(m.words) }

// row returns input row idx.
func (m *Model) row(idx int) []float64 {
	d := m.cfg.Dim
	return m.in[idx*d : (idx+1)*d : (idx+1)*d]
}

// newModel tokenizes the corpus, keeps the words seen at least MinCount
// times as the sorted vocabulary, records each vocabulary word's input
// rows, and draws the input matrix from a generator seeded with cfg.Seed.
// It returns the tokenized documents and the generator, from which
// training continues.
func newModel(corpus []string, cfg Config) (*Model, [][]string, *rand.Rand) {
	m := &Model{cfg: cfg, vocab: make(map[string]int)}
	freq := make(map[string]int)
	docs := make([][]string, len(corpus))
	for i, doc := range corpus {
		docs[i] = tokenize.Words(doc)
		for _, w := range docs[i] {
			freq[w]++
		}
	}
	words := make([]string, 0, len(freq))
	for w, c := range freq {
		if c >= cfg.MinCount {
			words = append(words, w)
		}
	}
	sort.Strings(words)
	for i, w := range words {
		m.vocab[w] = i
	}
	m.words = words
	m.counts = make([]int, len(words))
	m.rows = make([][]int, len(words))
	var buf []byte
	var runes []rune
	for i, w := range words {
		m.counts[i] = freq[w]
		buf = append(buf[:0], w...)
		m.rows[i], runes = m.appendBuckets([]int{i}, buf, runes)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	m.in = make([]float64, (len(words)+cfg.Buckets)*cfg.Dim)
	bound := 1.0 / float64(cfg.Dim)
	for i := range m.in {
		m.in[i] = (rng.Float64()*2 - 1) * bound
	}
	return m, docs, rng
}

// seal finishes training: it composes every vocabulary word's input
// vector and SIF weight, and drops the row lists only training needs.
func (m *Model) seal() {
	d := m.cfg.Dim
	m.vecs = make([]float64, len(m.words)*d)
	for id, rows := range m.rows {
		m.composeInput(rows, m.vecs[id*d:(id+1)*d])
	}
	m.rows = nil

	total := 0
	for _, c := range m.counts {
		total += c
	}
	if total == 0 {
		total = 1
	}
	m.weights = make([]float64, len(m.words))
	for id, w := range m.words {
		m.weights[id] = sifWeight([]byte(w), float64(m.counts[id])/float64(total))
	}
}

// TrainSkipgram trains a FastText model over the corpus (one document per
// string). The same corpus and config give the same float64 bits in every
// trained row, on every run and across versions of this package, so a
// vector written by an older binary can be served against a freshly
// retrained model.
func TrainSkipgram(corpus []string, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	m, docs, rng := newModel(corpus, cfg)
	if len(m.words) == 0 {
		return nil, fmt.Errorf("fasttext: empty vocabulary (corpus too small for MinCount=%d)", cfg.MinCount)
	}
	// Output (context) vectors start at zero, per the word2vec convention,
	// Dim floats per vocabulary word. They and the negative-sampling table
	// are dropped after training.
	out := make([]float64, len(m.words)*cfg.Dim)
	negTable := buildNegTable(m.counts)

	// Convert docs to index sequences (OOV dropped during training).
	seqs := make([][]int32, len(docs))
	tokens := 0
	for i, ws := range docs {
		for _, w := range ws {
			if id, ok := m.vocab[w]; ok {
				seqs[i] = append(seqs[i], int32(id))
				tokens++
			}
		}
	}
	if tokens == 0 {
		return nil, fmt.Errorf("fasttext: no in-vocabulary tokens to train on")
	}

	// Skip-gram with negative sampling.
	totalSteps := cfg.Epochs * tokens
	step := 0
	hidden := make([]float64, cfg.Dim)
	grad := make([]float64, cfg.Dim)
	var pairs []pair
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, seq := range seqs {
			for pos, center := range seq {
				lr := cfg.LR * (1 - float64(step)/float64(totalSteps+1))
				if lr < cfg.LR*0.0001 {
					lr = cfg.LR * 0.0001
				}
				step++
				// Draw the window and every negative before any update;
				// updates use no randomness, so the draws are the same as
				// when they interleave pair by pair.
				window := 1 + rng.Intn(cfg.Window)
				pairs = pairs[:0]
				for off := -window; off <= window; off++ {
					cpos := pos + off
					if off == 0 || cpos < 0 || cpos >= len(seq) {
						continue
					}
					target := seq[cpos]
					pairs = append(pairs, pair{row: target, label: 1})
					for n := 0; n < cfg.NegSamples; n++ {
						neg := negTable[rng.Intn(len(negTable))]
						if neg == target {
							continue
						}
						pairs = append(pairs, pair{row: neg, label: 0})
					}
				}
				if len(pairs) == 0 {
					continue
				}
				inputs := m.rows[center]
				m.composeInput(inputs, hidden)
				clear(grad)
				applyPairs(hidden, grad, out, pairs, lr)
				scale := 1.0 / float64(len(inputs))
				for _, idx := range inputs {
					axpy(m.row(idx), grad, scale)
				}
			}
		}
	}
	m.seal()
	return m, nil
}

// pair is one SGD step of a centre word: output row row, with label 1 for
// the context word and 0 for a negative sample.
type pair struct {
	row   int32
	label float64
}

// applyPairs applies the SGD steps of one centre word, in order, to the
// flat output matrix out (len(hidden) floats per row), accumulating the
// input-side gradient into grad. For each pair, with ov its output row:
//
//	dot = Σ hidden[i]·ov[i]   (left to right)
//	g = (label − sigmoid(dot))·lr
//	grad[i] += g·ov[i]; ov[i] += g·hidden[i]
//
// It walks the pairs in runs of up to eight whose output rows are pairwise
// distinct; a repeated row ends a run, since that pair must see the
// earlier pair's update of the row. A run of eight computes its dot
// products with dot8, one pair per SIMD lane, then each g, then two fused
// passes (update4) that each apply four pairs' grad and ov updates to
// element i in pair order. A run of four to seven takes its first four
// pairs the same way, with the dot products as four scalar accumulator
// chains in one pass over hidden. A shorter run steps one pair at a time.
//
// The result is bit-identical to stepping the pairs one at a time. hidden
// is fixed for the whole centre. No pair of a run writes another pair's
// row, so each dot product reads the row exactly as the one-at-a-time
// order would, and is its own left-to-right sum: a SIMD lane holds one
// pair's sum, never a partial sum of several elements. Every grad[i] and
// ov[i] receives the same operations, with the same operands, in the same
// order. Only the interleaving of independent values changes. No path
// fuses a multiply and an add: the goldens were recorded from code
// compiled without contraction, so the AVX2 kernels round every product
// before adding it, as the generic loops do.
func applyPairs(hidden, grad, out []float64, pairs []pair, lr float64) {
	d := len(hidden)
	grad = grad[:d]
	var rows [8][]float64
	var dots [8]float64
	var g [8]float64
	for len(pairs) > 0 {
		n := distinctRun(pairs)
		if n < 4 {
			for _, p := range pairs[:n] {
				ov := out[int(p.row)*d:][:d]
				dot := 0.0
				for i, h := range hidden {
					dot += h * ov[i]
				}
				update1(grad, ov, hidden, (p.label-sigmoid(dot))*lr)
			}
			pairs = pairs[n:]
			continue
		}
		if n == 8 {
			for j := range rows {
				rows[j] = out[int(pairs[j].row)*d:][:d]
			}
			dot8(&dots, hidden, &rows)
		} else {
			n = 4
			o0 := out[int(pairs[0].row)*d:][:d]
			o1 := out[int(pairs[1].row)*d:][:d]
			o2 := out[int(pairs[2].row)*d:][:d]
			o3 := out[int(pairs[3].row)*d:][:d]
			var d0, d1, d2, d3 float64
			for i, h := range hidden {
				d0 += h * o0[i]
				d1 += h * o1[i]
				d2 += h * o2[i]
				d3 += h * o3[i]
			}
			rows[0], rows[1], rows[2], rows[3] = o0, o1, o2, o3
			dots[0], dots[1], dots[2], dots[3] = d0, d1, d2, d3
		}
		for j, p := range pairs[:n] {
			g[j] = (p.label - sigmoid(dots[j])) * lr
		}
		for j := 0; j < n; j += 4 {
			update4(grad, (*[4][]float64)(rows[j:j+4]), hidden, (*[4]float64)(g[j:j+4]))
		}
		pairs = pairs[n:]
	}
}

// distinctRun returns how many leading pairs, at most eight, have pairwise
// distinct output rows.
func distinctRun(pairs []pair) int {
	n := 1
	for ; n < 8 && n < len(pairs); n++ {
		for _, p := range pairs[:n] {
			if p.row == pairs[n].row {
				return n
			}
		}
	}
	return n
}

func sigmoid(x float64) float64 {
	switch {
	case x > 8:
		return 1
	case x < -8:
		return 0
	}
	return 1 / (1 + math.Exp(-x))
}

// buildNegTable returns the unigram^0.75 negative-sampling table.
func buildNegTable(counts []int) []int32 {
	const tableSize = 1 << 17
	table := make([]int32, 0, tableSize)
	var z float64
	for _, c := range counts {
		z += math.Pow(float64(c), 0.75)
	}
	for id, c := range counts {
		n := int(math.Ceil(math.Pow(float64(c), 0.75) / z * tableSize))
		for i := 0; i < n; i++ {
			table = append(table, int32(id))
		}
	}
	if len(table) == 0 {
		table = []int32{0}
	}
	return table
}

// FNV-1a, 32-bit.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// appendBuckets appends the hashed n-gram buckets composing word w to
// dst, which holds the word's own row if it is in the vocabulary and is
// empty otherwise. The n-grams are the MinN..MaxN-rune windows of "<w>",
// per the FastText paper, except "<w>" itself, which the word id stands
// for; if that leaves dst empty, the bucket of "<w>" is appended instead.
// Each n-gram hashes as FNV-1a over the UTF-8 encoding of its runes, so an
// invalid byte of w hashes as U+FFFD, while the fallback hashes the raw
// bytes of "<w>". runes is scratch space; the grown buffer is returned for
// reuse.
func (m *Model) appendBuckets(dst []int, w []byte, runes []rune) ([]int, []rune) {
	runes = append(runes[:0], '<')
	for _, r := range string(w) {
		runes = append(runes, r)
	}
	runes = append(runes, '>')
	// A window over all of "<w>" re-encodes to "<w>" only if w is valid
	// UTF-8; otherwise it is an ordinary n-gram.
	whole := len(runes)
	if !utf8.Valid(w) {
		whole = -1
	}
	var enc [utf8.UTFMax]byte
	for n := m.cfg.MinN; n <= m.cfg.MaxN; n++ {
		if n == whole {
			continue
		}
		for i := 0; i+n <= len(runes); i++ {
			h := uint32(fnvOffset32)
			for _, r := range runes[i : i+n] {
				for _, b := range enc[:utf8.EncodeRune(enc[:], r)] {
					h = (h ^ uint32(b)) * fnvPrime32
				}
			}
			dst = append(dst, m.hashRow(h))
		}
	}
	if len(dst) == 0 {
		h := uint32(fnvOffset32)
		h = (h ^ '<') * fnvPrime32
		for _, b := range w {
			h = (h ^ uint32(b)) * fnvPrime32
		}
		dst = append(dst, m.hashRow((h^'>')*fnvPrime32))
	}
	return dst, runes
}

// hashRow maps an n-gram hash to its input row.
func (m *Model) hashRow(h uint32) int {
	return len(m.words) + int(h%uint32(m.cfg.Buckets))
}

// composeInput writes the mean of the input rows into dst. It sums four
// rows per pass; dst[i] + a[i] + b[i] + c[i] + e[i] is evaluated left to
// right, so every element is the same left-to-right sum as adding the rows
// one at a time.
func (m *Model) composeInput(indices []int, dst []float64) {
	clear(dst)
	k := 0
	for ; k+4 <= len(indices); k += 4 {
		add4(dst, m.row(indices[k]), m.row(indices[k+1]), m.row(indices[k+2]), m.row(indices[k+3]))
	}
	for _, idx := range indices[k:] {
		add1(dst, m.row(idx))
	}
	scaleBy(dst, 1.0/float64(len(indices)))
}

// scratch is the reusable working memory for composing out-of-vocabulary
// words, one per embedding call so concurrent readers share nothing.
type scratch struct {
	rows  []int
	runes []rune
	vec   []float64
}

// embedWord returns word w's input vector and SIF weight. A vocabulary
// word reads the tables seal filled; any other word is composed from its
// n-gram buckets into s.vec, which the next call overwrites.
func (m *Model) embedWord(w []byte, s *scratch) ([]float64, float64) {
	if id, ok := m.vocab[string(w)]; ok {
		d := m.cfg.Dim
		return m.vecs[id*d : (id+1)*d], m.weights[id]
	}
	if s.vec == nil {
		s.vec = make([]float64, m.cfg.Dim)
	}
	s.rows, s.runes = m.appendBuckets(s.rows[:0], w, s.runes)
	m.composeInput(s.rows, s.vec)
	return s.vec, sifWeight(w, 0)
}

// WordVector returns the embedding of a word. Out-of-vocabulary words are
// composed purely from their character n-grams — FastText's signature
// behaviour.
func (m *Model) WordVector(w string) []float64 {
	ws := tokenize.Words(w)
	word := w
	if len(ws) == 1 {
		word = ws[0]
	}
	v := make([]float64, m.cfg.Dim)
	s := scratch{vec: v}
	vec, _ := m.embedWord([]byte(word), &s)
	copy(v, vec)
	return v
}

// sifWeight returns the smooth-inverse-frequency weight of a word with
// corpus probability p: rare, information-bearing tokens (exception names,
// distinctive counters) weigh near 1, while corpus boilerplate (machine
// names, table headers) is damped toward 0. Out-of-vocabulary words (p = 0)
// take full weight.
func sifWeight(w []byte, p float64) float64 {
	const a = 1e-3
	// Pure numbers (counter values, PIDs, timestamps) are semantic noise:
	// their char-n-gram vectors are arbitrary and they never repeat, so
	// they would otherwise enter at full out-of-vocabulary weight.
	if allDigits(w) {
		return 0.02
	}
	if p == 0 {
		return 1
	}
	return a / (a + p)
}

func allDigits(w []byte) bool {
	if len(w) == 0 {
		return false
	}
	for _, b := range w {
		if b < '0' || b > '9' {
			return false
		}
	}
	return true
}

// DocVector embeds a document as the smooth-inverse-frequency weighted mean
// of its word vectors. SIF weighting keeps the representation
// length-insensitive (a log excerpt and its longer variant land nearby)
// while preventing the boilerplate that dominates incident text by volume
// from drowning the root-cause-bearing vocabulary.
func (m *Model) DocVector(text string) []float64 {
	v := make([]float64, m.cfg.Dim)
	var s scratch
	var totalW float64
	for w := range tokenize.Scan(text) {
		vec, weight := m.embedWord(w, &s)
		for i := range v {
			v[i] += vec[i] * weight
		}
		totalW += weight
	}
	if totalW > 0 {
		for i := range v {
			v[i] /= totalW
		}
	}
	return v
}

// Similarity returns the cosine similarity of two words' embeddings.
func (m *Model) Similarity(a, b string) float64 {
	return Cosine(m.WordVector(a), m.WordVector(b))
}

// Cosine returns the cosine similarity of two vectors (0 when either is
// zero).
func Cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// Euclidean returns the Euclidean distance between two vectors, the
// distance the paper's similarity formula is built on.
func Euclidean(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
