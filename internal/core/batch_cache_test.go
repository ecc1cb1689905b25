package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/llm/simgpt"
)

// countingEmbedder wraps an embedder and counts Embed calls, so tests can
// observe whether Retrieve hit the memo or re-embedded.
type countingEmbedder struct {
	Embedder
	calls atomic.Int64
}

func (c *countingEmbedder) Embed(text string) ([]float64, error) {
	c.calls.Add(1)
	return c.Embedder.Embed(text)
}

// TestRetrieveEmbedCache: repeated Retrieve calls for the same text embed
// once; distinct texts embed separately; SetEmbedder invalidates the memo
// so the new embedder owns every vector in it.
func TestRetrieveEmbedCache(t *testing.T) {
	e := getEnv(t)
	chat := simgpt.MustNew(simgpt.GPT4, simgpt.Options{Seed: 3})
	c, err := New(e.corpus.Fleet, Config{Chat: chat})
	if err != nil {
		t.Fatal(err)
	}
	ce := &countingEmbedder{Embedder: e.embedder}
	c.SetEmbedder(ce)
	seedHistory(t, c, 20) // Learn embeds each incident, so count deltas from here
	base := ce.calls.Load()

	at := time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)
	first, err := c.Retrieve("udp socket exhausted on hub", at, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := ce.calls.Load() - base; got != 1 {
		t.Fatalf("first Retrieve made %d embed calls, want 1", got)
	}
	second, err := c.Retrieve("udp socket exhausted on hub", at, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := ce.calls.Load() - base; got != 1 {
		t.Fatalf("repeated Retrieve re-embedded (%d calls), cache missed", got)
	}
	if len(first) != len(second) {
		t.Fatalf("cached retrieval returned %d hits, uncached %d", len(second), len(first))
	}
	for i := range first {
		if first[i].Entry.ID != second[i].Entry.ID || first[i].Similarity != second[i].Similarity {
			t.Fatalf("cached retrieval diverges at rank %d", i)
		}
	}
	if _, err := c.Retrieve("a different query", at, 3, true); err != nil {
		t.Fatal(err)
	}
	if got := ce.calls.Load() - base; got != 2 {
		t.Fatalf("distinct text made %d retrieval embed calls, want 2", got)
	}
	oldTotal := ce.calls.Load()

	// Swapping the embedder must invalidate the memo: the same text embeds
	// again, through the NEW embedder.
	ce2 := &countingEmbedder{Embedder: e.embedder}
	c.SetEmbedder(ce2)
	seedHistory(t, c, 20)
	base2 := ce2.calls.Load()
	if _, err := c.Retrieve("udp socket exhausted on hub", at, 3, false); err != nil {
		t.Fatal(err)
	}
	if got := ce2.calls.Load() - base2; got != 1 {
		t.Fatalf("post-swap Retrieve made %d embed calls on the new embedder, want 1", got)
	}
	if got := ce.calls.Load(); got != oldTotal {
		t.Fatalf("post-swap Retrieve touched the old embedder (%d calls, had %d)", got, oldTotal)
	}
}

// seedHistory learns a slice of corpus incidents so Retrieve has content.
func seedHistory(t *testing.T, c *Copilot, n int) {
	t.Helper()
	e := getEnv(t)
	for _, inc := range e.corpus.Incidents[:n] {
		in := inc.Clone()
		if in.Summary == "" {
			in.Summary = "summary " + in.ID
		}
		if err := c.Learn(in); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchingConfig: BatchMax wires a Batcher around the store (visible
// through the accessor and exercised by concurrent retrievals), 0 leaves
// it off, and malformed combinations are rejected at New.
func TestBatchingConfig(t *testing.T) {
	e := getEnv(t)
	chat := simgpt.MustNew(simgpt.GPT4, simgpt.Options{Seed: 3})

	if _, err := New(e.corpus.Fleet, Config{Chat: chat, BatchMax: -1}); err == nil {
		t.Fatal("negative BatchMax accepted")
	}

	plain, err := New(e.corpus.Fleet, Config{Chat: chat})
	if err != nil {
		t.Fatal(err)
	}
	plain.SetEmbedder(e.embedder)
	if plain.Batcher() != nil {
		t.Fatal("Batcher present without BatchMax")
	}

	c, err := New(e.corpus.Fleet, Config{Chat: chat, BatchMax: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.SetEmbedder(e.embedder)
	b := c.Batcher()
	if b == nil {
		t.Fatal("Batcher missing with BatchMax=4")
	}
	seedHistory(t, c, 30)

	at := time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Retrieve("hub port exhaustion", at, 2+i%3, i%2 == 0); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.Queries != 16 {
		t.Fatalf("batcher saw %d queries, want 16", st.Queries)
	}
	if st.FlushIdle+st.FlushSize+st.FlushTimer != st.Batches {
		t.Fatalf("flush accounting broken: %+v", st)
	}

	// SetEmbedder swaps the store: the old collector closes, a fresh one
	// attaches.
	c.SetEmbedder(e.embedder)
	if nb := c.Batcher(); nb == nil || nb == b {
		t.Fatal("SetEmbedder did not rebuild the batch collector")
	}
	if _, err := c.Retrieve("hub port exhaustion", at, 3, true); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Retrieve("hub port exhaustion", at, 3, true); err != nil {
		t.Fatal(err)
	}
}
