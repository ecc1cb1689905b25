package fasttext

import (
	"hash/fnv"
	"slices"
	"testing"
)

// refNgrams, refBucket and refInputIndices are the original per-token
// n-gram code: one string per n-gram and one hash.Hash32 per bucket. They
// are the oracle for appendBuckets.
func refNgrams(m *Model, w string) []string {
	wrapped := "<" + w + ">"
	rs := []rune(wrapped)
	var out []string
	for n := m.cfg.MinN; n <= m.cfg.MaxN; n++ {
		for i := 0; i+n <= len(rs); i++ {
			g := string(rs[i : i+n])
			if g == wrapped {
				continue // the full word is handled by its word id
			}
			out = append(out, g)
		}
	}
	return out
}

func refBucket(m *Model, gram string) int {
	h := fnv.New32a()
	h.Write([]byte(gram))
	return len(m.words) + int(h.Sum32())%m.cfg.Buckets
}

func refInputIndices(m *Model, w string) []int {
	var idx []int
	if id, ok := m.vocab[w]; ok {
		idx = append(idx, id)
	}
	for _, g := range refNgrams(m, w) {
		idx = append(idx, refBucket(m, g))
	}
	if len(idx) == 0 {
		idx = append(idx, refBucket(m, "<"+w+">"))
	}
	return idx
}

// inputRows is appendBuckets as newModel and embedWord call it: the word's
// own row first when it is in the vocabulary.
func inputRows(m *Model, w string) []int {
	var dst []int
	if id, ok := m.vocab[w]; ok {
		dst = append(dst, id)
	}
	dst, _ = m.appendBuckets(dst, []byte(w), nil)
	return dst
}

// vocabModel is an untrained Model with a small vocabulary: enough for the
// row lists, which depend only on the config and the vocabulary.
func vocabModel(cfg Config, words ...string) *Model {
	m := &Model{cfg: cfg.withDefaults(), vocab: make(map[string]int)}
	for _, w := range words {
		if _, ok := m.vocab[w]; !ok {
			m.vocab[w] = len(m.words)
			m.words = append(m.words, w)
		}
	}
	return m
}

func FuzzNgramBuckets(f *testing.F) {
	for _, w := range edgeCaseTexts {
		f.Add(w, false, uint8(0), uint8(0), uint32(0))
		f.Add(w, true, uint8(0), uint8(0), uint32(0))
		f.Add(w, false, uint8(6), uint8(0), uint32(97))
		f.Add(w, true, uint8(1), uint8(2), uint32(1))
	}
	f.Fuzz(func(t *testing.T, w string, inVocab bool, minN, maxN uint8, buckets uint32) {
		cfg := Config{MinN: int(minN % 9), MaxN: int(maxN % 9), Buckets: int(buckets % (1 << 20))}
		vocab := []string{"socket", "a", "é"}
		if inVocab {
			vocab = append(vocab, w)
		}
		m := vocabModel(cfg, vocab...)
		got, want := inputRows(m, w), refInputIndices(m, w)
		if !slices.Equal(got, want) {
			t.Fatalf("rows(%q) with MinN=%d MaxN=%d Buckets=%d = %v, want %v",
				w, m.cfg.MinN, m.cfg.MaxN, m.cfg.Buckets, got, want)
		}
	})
}

func TestMaxNDefaultsToAtLeastMinN(t *testing.T) {
	if got := (Config{}).withDefaults(); got.MinN != 3 || got.MaxN != 5 {
		t.Fatalf("default n-gram range = [%d, %d], want [3, 5]", got.MinN, got.MaxN)
	}
	cfg := Config{MinN: 6}.withDefaults()
	if cfg.MaxN != 6 {
		t.Fatalf("MinN 6 defaults MaxN to %d, want 6", cfg.MaxN)
	}
	// "<exhausted>" has 11 runes, so six 6-grams.
	rows := inputRows(vocabModel(cfg), "exhausted")
	if len(rows) != 6 {
		t.Fatalf("MinN 6 gives %d n-gram buckets for %q, want 6", len(rows), "exhausted")
	}
}

// TestWordVectorMatchesReferenceRows pins the precomposed vocabulary
// vectors and the out-of-vocabulary path to a composition over the
// reference row lists, on a trained model.
func TestWordVectorMatchesReferenceRows(t *testing.T) {
	m, err := TrainSkipgram(topicCorpus(), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, m.Dim())
	for _, w := range append(slices.Clone(m.words), "socketeer", "12345", "é", "x") {
		m.composeInput(refInputIndices(m, w), want)
		if got := m.WordVector(w); !slices.Equal(got, want) {
			t.Fatalf("WordVector(%q) differs from the reference composition", w)
		}
	}
}
