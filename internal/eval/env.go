package eval

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed/fasttext"
	"repro/internal/incident"
)

// Env is one evaluation environment: a generated corpus and its 75/25
// train/test split (§5.1), with a lazily trained FastText model shared by
// the methods that need it. An Env is safe for concurrent use by the
// parallel harness: the split slices are read-only after NewEnv and the
// shared FastText model trains exactly once.
type Env struct {
	Seed   int64
	Corpus *dataset.Corpus
	Train  []*incident.Incident
	Test   []*incident.Incident

	// Workers bounds the harness's fan-out: 0 means one worker per CPU
	// (the default), 1 forces the sequential reference path. Because every
	// experiment's outputs are order-independent (see the rcacopilot
	// package's determinism contract), any worker count produces identical
	// scores and predictions — only wall-clock time changes.
	Workers int

	// Shards selects the sharded vector index for every pipeline the
	// harness builds (0 = one shard per CPU, the core default; an explicit
	// 1 = the flat exact store). Sharded retrieval is bit-identical to
	// flat, so the Table-2/3/Fig-12 goldens reproduce on either index; only
	// retrieval scaling changes.
	Shards int
	// Partitioner selects shard routing when Shards > 1 (see
	// core.PartitionCategory / core.PartitionIVF; empty = category hash).
	Partitioner string
	// RecallTarget enables probe-limited approximate serving under the
	// recall-SLO auto-tuner on every pipeline the harness builds (requires
	// Shards > 1 and the IVF partitioner). 0 keeps exact fan-out — the
	// mode every golden assumes; adaptive runs are for the recall/latency
	// trade-off experiments.
	RecallTarget float64
	// ShadowRate is the auto-tuner's shadow-query sampling fraction
	// (0 = the 0.05 default). Only meaningful with RecallTarget.
	ShadowRate float64
	// RetrainSkew enables skew-triggered IVF retraining (>= 1) on every
	// pipeline the harness builds. 0 disables.
	RetrainSkew float64
	// Quantized enables the two-stage int8 probe scan (candidate collection
	// on the quantized sidecar, exact re-rank at full precision) on every
	// pipeline the harness builds. Requires RecallTarget on the IVF
	// sharded index.
	Quantized bool
	// BatchMax inserts the micro-batching collector in front of every
	// pipeline's vector store (>= 2): the per-incident retrievals of a
	// Table-2/3 method cell, issued concurrently by the Workers pool,
	// coalesce into scan-once-per-shard batched executions. Results are
	// bit-identical to unbatched serving, so every golden reproduces with
	// batching on; only retrieval throughput changes. 0 or 1 disables.
	BatchMax int
	// BatchWait bounds how long an under-filled batch waits for
	// companions (0 = the 500µs core default). Only meaningful with
	// BatchMax >= 2.
	BatchWait time.Duration

	ftOnce      sync.Once
	ft          *fasttext.Model
	ftErr       error
	ftTrainTime time.Duration
}

// retrieval returns the core.Config retrieval-serving knobs every
// pipeline the harness builds shares.
func (e *Env) retrieval() core.Config {
	return core.Config{
		Shards: e.Shards, Partitioner: e.Partitioner,
		RecallTarget: e.RecallTarget, ShadowRate: e.ShadowRate, RetrainSkew: e.RetrainSkew,
		Quantized: e.Quantized, BatchMax: e.BatchMax, BatchWait: e.BatchWait,
	}
}

// NewEnv generates the paper-faithful corpus for the seed and splits it
// 75/25.
func NewEnv(seed int64) (*Env, error) {
	return NewEnvFromSpec(dataset.DefaultSpec(seed))
}

// NewEnvFromSpec builds an environment over a custom corpus specification
// (smaller spans make cheap environments for equivalence tests and
// demos).
func NewEnvFromSpec(spec dataset.Spec) (*Env, error) {
	corpus, err := dataset.Generate(spec)
	if err != nil {
		return nil, err
	}
	e := &Env{Seed: spec.Seed, Corpus: corpus}
	e.Train, e.Test = corpus.Split(0.75, spec.Seed)
	if len(e.Train) == 0 || len(e.Test) == 0 {
		return nil, fmt.Errorf("eval: degenerate split %d/%d", len(e.Train), len(e.Test))
	}
	return e, nil
}

// TrainTexts returns the diagnostic documents of the training incidents.
func (e *Env) TrainTexts() []string {
	out := make([]string, len(e.Train))
	for i, in := range e.Train {
		out[i] = in.DiagnosticText()
	}
	return out
}

// TrainLabels returns the gold labels of the training incidents.
func (e *Env) TrainLabels() []string {
	out := make([]string, len(e.Train))
	for i, in := range e.Train {
		out[i] = string(in.Category)
	}
	return out
}

// TestGold returns the gold labels of the test incidents.
func (e *Env) TestGold() []incident.Category {
	out := make([]incident.Category, len(e.Test))
	for i, in := range e.Test {
		out[i] = in.Category
	}
	return out
}

// FastText returns the shared FastText model trained on the training
// diagnostics, training it on first use and recording the wall-clock
// training time (RCACopilot's Table-2 "Train" column). Concurrent callers
// share one training run.
func (e *Env) FastText() (*fasttext.Model, time.Duration, error) {
	e.ftOnce.Do(func() {
		start := time.Now()
		e.ft, e.ftErr = fasttext.TrainSkipgram(e.TrainTexts(), fasttext.Config{Seed: e.Seed})
		e.ftTrainTime = time.Since(start)
	})
	return e.ft, e.ftTrainTime, e.ftErr
}
