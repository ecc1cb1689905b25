package main

import (
	"context"
	"net/http"
	"net/url"
	"testing"
	"time"

	"repro"
	"repro/internal/httpd"
)

// TestDaemonBatchedRetrieval boots the daemon with the retrieval
// micro-batcher enabled and verifies the serving contract end to end: a
// lone /api/retrieve on an idle daemon answers immediately (the collector's
// idle path arms no flush timer; TestBatcherIdleFastPath in
// internal/vectordb pins that with an hour-long window), and /metrics
// exposes the batch-formation gauges.
func TestDaemonBatchedRetrieval(t *testing.T) {
	c := sharedCorpus(t)
	sys, err := rcacopilot.NewSystem(c.Fleet, rcacopilot.Config{Seed: 1, BatchMax: 8})
	if err != nil {
		t.Fatal(err)
	}
	n := 40
	if err := sys.TrainEmbedding(c.Incidents[:n]); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddHistory(c.Incidents[:n]); err != nil {
		t.Fatal(err)
	}
	if sys.Copilot().Batcher() == nil {
		t.Fatal("BatchMax did not attach a collector")
	}
	d := newDaemon(sys, httpd.LimitConfig{Rate: 100, Burst: 100}, 8)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		d.drain(ctx)
		sys.Close()
	})

	var ret struct {
		Results []struct {
			ID         string  `json:"id"`
			Similarity float64 `json:"similarity"`
		} `json:"results"`
	}
	start := time.Now()
	code := getJSON(t, d, "/api/retrieve?q="+url.QueryEscape("hub connection failure")+"&k=3", &ret)
	elapsed := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("retrieve: status %d", code)
	}
	if len(ret.Results) == 0 {
		t.Fatal("retrieve returned no hits")
	}
	if elapsed > 10*time.Second {
		t.Fatalf("idle retrieval took %v — the single-query fast path is waiting on the batch window", elapsed)
	}

	var metrics struct {
		Retrieval struct {
			Batching *struct {
				Batches       int64   `json:"batches"`
				Queries       int64   `json:"queries"`
				MeanOccupancy float64 `json:"meanOccupancy"`
				FlushIdle     int64   `json:"flushIdle"`
				FlushSize     int64   `json:"flushSize"`
				FlushTimer    int64   `json:"flushTimer"`
			} `json:"batching"`
		} `json:"retrieval"`
	}
	if code := getJSON(t, d, "/metrics", &metrics); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	b := metrics.Retrieval.Batching
	if b == nil {
		t.Fatal("metrics missing retrieval.batching gauges")
	}
	if b.Queries < 1 || b.FlushIdle < 1 {
		t.Fatalf("batch gauges did not count the idle retrieval: %+v", *b)
	}
	if b.MeanOccupancy != 1 {
		t.Fatalf("MeanOccupancy = %v after idle-only traffic, want 1", b.MeanOccupancy)
	}
	if b.FlushIdle+b.FlushSize+b.FlushTimer != b.Batches {
		t.Fatalf("flush reasons do not account for every batch: %+v", *b)
	}
}

// TestDaemonBatchedRetrieveUnboundedK pins that a huge k is served, not
// fatal: on a daemon with the micro-batcher on, /api/retrieve with
// k = MaxInt64 answers 200 with every stored incident, and the daemon
// still answers the next retrieval.
func TestDaemonBatchedRetrieveUnboundedK(t *testing.T) {
	c := sharedCorpus(t)
	sys, err := rcacopilot.NewSystem(c.Fleet, rcacopilot.Config{Seed: 1, BatchMax: 4})
	if err != nil {
		t.Fatal(err)
	}
	n := 40
	if err := sys.TrainEmbedding(c.Incidents[:n]); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddHistory(c.Incidents[:n]); err != nil {
		t.Fatal(err)
	}
	d := newDaemon(sys, httpd.LimitConfig{Rate: 100, Burst: 100}, 8)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		d.drain(ctx)
		sys.Close()
	})

	var ret struct {
		Results []struct {
			ID string `json:"id"`
		} `json:"results"`
	}
	q := "/api/retrieve?q=" + url.QueryEscape("hub connection failure")
	if code := getJSON(t, d, q+"&k=9223372036854775807", &ret); code != http.StatusOK {
		t.Fatalf("retrieve k=MaxInt64: status %d", code)
	}
	if got, want := len(ret.Results), sys.Copilot().Index().Len(); got != want {
		t.Fatalf("retrieve k=MaxInt64 returned %d hits, want every one of the %d stored", got, want)
	}
	ret.Results = nil
	if code := getJSON(t, d, q+"&k=3", &ret); code != http.StatusOK || len(ret.Results) != 3 {
		t.Fatalf("retrieve after k=MaxInt64: status %d, %d hits", code, len(ret.Results))
	}
}
