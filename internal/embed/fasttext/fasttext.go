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
// string). Training is deterministic for a given config.
func TrainSkipgram(corpus []string, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	m, docs, rng := newModel(corpus, cfg)
	if len(m.words) == 0 {
		return nil, fmt.Errorf("fasttext: empty vocabulary (corpus too small for MinCount=%d)", cfg.MinCount)
	}
	// Output (context) vectors start at zero, per the word2vec convention.
	// They and the negative-sampling table are dropped after training.
	out := make([][]float64, len(m.words))
	for i := range out {
		out[i] = make([]float64, cfg.Dim)
	}
	negTable := buildNegTable(m.counts)

	// Convert docs to index sequences (OOV dropped during training).
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

	// Skip-gram with negative sampling.
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
				m.composeInput(inputs, hidden)
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
					updatePair(hidden, grad, out[target], 1, lr)
					for n := 0; n < cfg.NegSamples; n++ {
						neg := negTable[rng.Intn(len(negTable))]
						if neg == target {
							continue
						}
						updatePair(hidden, grad, out[neg], 0, lr)
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
	m.seal()
	return m, nil
}

// updatePair applies one (hidden, output-vector) SGD step with label 1
// (positive) or 0 (negative), accumulating the input-side gradient.
func updatePair(hidden, grad, ov []float64, label float64, lr float64) {
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
func buildNegTable(counts []int) []int {
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

// composeInput writes the mean of the input rows into dst.
func (m *Model) composeInput(indices []int, dst []float64) {
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
