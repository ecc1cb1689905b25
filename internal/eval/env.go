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

	// Config is the base core.Config of every pipeline the harness
	// builds; each pipeline copies it and sets its own K, Alpha and
	// Context. Its serving knobs (Shards, Partitioner, RecallTarget,
	// RetrainSkew, Quantized, BatchMax) swap the retrieval store behind
	// the experiments. Exact serving — the zero value, sharded or not,
	// batched or not — is bit-identical to the flat store, so every golden
	// reproduces on it; adaptive runs (RecallTarget) are for the
	// recall/latency trade-off experiments.
	Config core.Config

	ftOnce      sync.Once
	ft          *fasttext.Model
	ftErr       error
	ftTrainTime time.Duration
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
