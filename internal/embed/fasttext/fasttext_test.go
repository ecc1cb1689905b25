package fasttext

import (
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// smallCfg keeps tests fast.
func smallCfg() Config {
	return Config{Dim: 32, Epochs: 8, Window: 4, NegSamples: 4, MinCount: 1, Buckets: 1 << 12, Seed: 7}
}

// topicCorpus has two well-separated topics: socket/port exhaustion and
// disk/io saturation.
func topicCorpus() []string {
	sockets := []string{
		"udp socket count exhausted on transport process hub port",
		"hub port exhaustion udp socket transport winsock error",
		"winsock error connecting host udp port socket exhausted",
		"transport process consumed udp socket hub port winsock",
		"socket count by process udp hub port transport exhausted",
	}
	disks := []string{
		"disk volume full io exception processes crashed storage",
		"io exception thrown because disk volume full storage crashed",
		"storage disk full volume crashed processes io exception",
		"processes crashed io exception disk storage volume full",
		"volume full disk io exception storage crashed processes",
	}
	var out []string
	for i := 0; i < 6; i++ {
		out = append(out, sockets...)
		out = append(out, disks...)
	}
	return out
}

func TestTrainSkipgramLearnsTopics(t *testing.T) {
	m, err := TrainSkipgram(topicCorpus(), smallCfg())
	if err != nil {
		t.Fatalf("TrainSkipgram: %v", err)
	}
	if m.VocabSize() == 0 || m.Dim() != 32 {
		t.Fatalf("model shape wrong: vocab=%d dim=%d", m.VocabSize(), m.Dim())
	}
	within := m.Similarity("socket", "udp")
	across := m.Similarity("socket", "disk")
	if within <= across {
		t.Errorf("within-topic similarity %.3f should exceed across-topic %.3f", within, across)
	}
	docSock := m.DocVector("udp socket port exhausted")
	docDisk := m.DocVector("disk volume io full")
	if Euclidean(docSock, docDisk) <= 0 {
		t.Error("distinct topic documents should have positive distance")
	}
}

func TestDeterministicTraining(t *testing.T) {
	a, err := TrainSkipgram(topicCorpus(), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainSkipgram(topicCorpus(), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	va, vb := a.WordVector("socket"), b.WordVector("socket")
	for i := range va {
		if va[i] != vb[i] {
			t.Fatal("same seed must produce identical vectors")
		}
	}
}

func TestOOVWordsGetSubwordVectors(t *testing.T) {
	m, err := TrainSkipgram(topicCorpus(), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	// "socketeer" is OOV but shares n-grams with "socket".
	oov := m.WordVector("socketeer")
	nonZero := false
	for _, x := range oov {
		if x != 0 {
			nonZero = true
		}
	}
	if !nonZero {
		t.Fatal("OOV vector should be composed from n-gram buckets")
	}
	simStem := Cosine(oov, m.WordVector("socket"))
	simFar := Cosine(oov, m.WordVector("volume"))
	if simStem <= simFar {
		t.Errorf("OOV should sit near its stem: sim(socketeer,socket)=%.3f sim(socketeer,volume)=%.3f",
			simStem, simFar)
	}
}

func TestDocVectorLengthInsensitive(t *testing.T) {
	m, err := TrainSkipgram(topicCorpus(), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	once := m.DocVector("udp socket port")
	thrice := m.DocVector("udp socket port udp socket port udp socket port")
	for i := range once {
		if math.Abs(once[i]-thrice[i]) > 1e-12 {
			t.Fatal("repeating a document must not move its mean vector")
		}
	}
}

func TestDocVectorEmptyIsZero(t *testing.T) {
	m, err := TrainSkipgram(topicCorpus(), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	v := m.DocVector("   ")
	for _, x := range v {
		if x != 0 {
			t.Fatal("empty document should embed to the zero vector")
		}
	}
}

func TestTrainSkipgramErrors(t *testing.T) {
	if _, err := TrainSkipgram(nil, smallCfg()); err == nil {
		t.Fatal("empty corpus should fail")
	}
	cfg := smallCfg()
	cfg.MinCount = 100
	if _, err := TrainSkipgram(topicCorpus(), cfg); err == nil {
		t.Fatal("impossible MinCount should fail")
	}
}

func TestSupervisedClassifierSeparates(t *testing.T) {
	var texts, labels []string
	for i := 0; i < 25; i++ {
		texts = append(texts, "udp socket exhausted hub port transport winsock")
		labels = append(labels, "HubPortExhaustion")
		texts = append(texts, "disk volume full io exception crashed storage")
		labels = append(labels, "FullDisk")
	}
	c, err := TrainSupervised(texts, labels, smallCfg())
	if err != nil {
		t.Fatalf("TrainSupervised: %v", err)
	}
	if got := len(c.Labels()); got != 2 {
		t.Fatalf("labels = %d, want 2", got)
	}
	correct := 0
	for i, txt := range texts {
		if pred, _ := c.Predict(txt); pred == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(texts)); acc < 0.95 {
		t.Errorf("train accuracy %.2f on trivially separable data, want >= 0.95", acc)
	}
	// Held-out paraphrases.
	if pred, _ := c.Predict("socket udp port winsock"); pred != "HubPortExhaustion" {
		t.Errorf("paraphrase predicted %s", pred)
	}
	if pred, _ := c.Predict("full disk io storage"); pred != "FullDisk" {
		t.Errorf("paraphrase predicted %s", pred)
	}
}

func TestSupervisedErrors(t *testing.T) {
	if _, err := TrainSupervised([]string{"a"}, []string{"x", "y"}, smallCfg()); err == nil {
		t.Fatal("mismatched lengths should fail")
	}
	if _, err := TrainSupervised(nil, nil, smallCfg()); err == nil {
		t.Fatal("empty training set should fail")
	}
}

func TestPredictEmptyText(t *testing.T) {
	c, err := TrainSupervised(
		[]string{"a b c", "d e f"},
		[]string{"x", "y"},
		smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	label, p := c.Predict("")
	if label == "" || p <= 0 {
		t.Fatal("empty text should still yield a label with uniform probability")
	}
}

// clamp maps quick-generated values into a numerically safe range so the
// properties are not confounded by float64 overflow to Inf.
func clamp(a [8]float64) []float64 {
	out := make([]float64, len(a))
	for i, x := range a {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		out[i] = math.Mod(x, 1000)
	}
	return out
}

func TestCosineBounds(t *testing.T) {
	f := func(a, b [8]float64) bool {
		c := Cosine(clamp(a), clamp(b))
		return c >= -1.0000001 && c <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCosineZeroVector(t *testing.T) {
	if got := Cosine(make([]float64, 4), []float64{1, 2, 3, 4}); got != 0 {
		t.Fatalf("Cosine with zero vector = %f, want 0", got)
	}
}

func TestEuclideanProperties(t *testing.T) {
	symmetric := func(a, b [8]float64) bool {
		x, y := clamp(a), clamp(b)
		return math.Abs(Euclidean(x, y)-Euclidean(y, x)) < 1e-12
	}
	if err := quick.Check(symmetric, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	identity := func(a [8]float64) bool {
		x := clamp(a)
		return Euclidean(x, x) == 0
	}
	if err := quick.Check(identity, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	triangle := func(a, b, c [8]float64) bool {
		x, y, z := clamp(a), clamp(b), clamp(c)
		return Euclidean(x, z) <= Euclidean(x, y)+Euclidean(y, z)+1e-9
	}
	if err := quick.Check(triangle, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentDocVector reads one trained model from several goroutines
// at once (run under -race): the precomposed tables are shared read-only
// and each call keeps its own scratch space.
func TestConcurrentDocVector(t *testing.T) {
	m, err := TrainSkipgram(topicCorpus(), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	docs := append(topicCorpus()[:10], "socketeer 12345 é \xff unseen tokens")
	want := make([][]float64, len(docs))
	for i, d := range docs {
		want[i] = m.DocVector(d)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i, d := range docs {
					if got := m.DocVector(d); !slices.Equal(got, want[i]) {
						t.Errorf("concurrent DocVector(%q) differs from sequential", d)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
