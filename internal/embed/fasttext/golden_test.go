package fasttext

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/dataset"
)

// The goldens below were recorded with the original per-token embedder,
// which rebuilt every word's n-gram strings and FNV buckets on each call.
// The precomputed tables must reproduce them bit for bit.
const (
	// docVectorGolden hashes DocVector over every diagnostic text of
	// dataset.Generate(DefaultSpec(1)), then DocVector and WordVector over
	// edgeCaseTexts, for a skip-gram model trained on those texts with
	// Config{Seed: 1}.
	docVectorGolden = "589cea07eb94a9f298adb1819ff60b70f9363c00af3f00b0ef1219cfc682b34a"
	// classifierGolden hashes the predicted label and the float64 bits of
	// its probability for every diagnostic text, from a supervised
	// classifier trained on the same texts and their categories.
	classifierGolden = "0eda3f502f0bc4bd3a86deef6eeb2731dc4bbf42b8beb423ca12f34cb35fa4f3"
)

// edgeCaseTexts exercise the corners of n-gram hashing: the empty string,
// words so short that the full-word n-gram is skipped (or no n-gram is
// left at all), multibyte runes, pure digits, and invalid UTF-8, which
// hashes as U+FFFD inside n-grams but as raw bytes in the fallback bucket.
var edgeCaseTexts = []string{
	"",
	"a",
	"ab",
	"é",
	"éa",
	"x y z",
	"0",
	"12345",
	"000 42 9999999999",
	"port 11001",
	"naïve café",
	"東京 サーバー",
	"ошибка сокета",
	"emoji🙂word",
	"\xff",
	"\xff\xfe",
	"a\xffb",
	"socket\xc3",
	"\xe2\x82",
	"udp\xffsocket\xfeport",
	"<>",
	"<a>",
	"\xef\xbf\xbd",
}

func goldenCorpus(t testing.TB) (texts, labels []string) {
	t.Helper()
	c, err := dataset.Generate(dataset.DefaultSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range c.Incidents {
		texts = append(texts, in.DiagnosticText())
		labels = append(labels, string(in.Category))
	}
	return texts, labels
}

func hashVector(h interface{ Write([]byte) (int, error) }, v []float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(v)))
	h.Write(buf[:])
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
}

func TestDocVectorGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains on the full corpus")
	}
	texts, _ := goldenCorpus(t)
	m, err := TrainSkipgram(texts, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, text := range texts {
		hashVector(h, m.DocVector(text))
	}
	for _, text := range edgeCaseTexts {
		hashVector(h, m.DocVector(text))
		hashVector(h, m.WordVector(text))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != docVectorGolden {
		t.Fatalf("DocVector/WordVector hash = %s, want %s", got, docVectorGolden)
	}
}

func TestClassifierGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains on the full corpus")
	}
	texts, labels := goldenCorpus(t)
	c, err := TrainSupervised(texts, labels, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	for _, text := range append(texts, edgeCaseTexts...) {
		label, p := c.Predict(text)
		h.Write([]byte(label))
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p))
		h.Write(buf[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != classifierGolden {
		t.Fatalf("classifier prediction hash = %s, want %s", got, classifierGolden)
	}
}
