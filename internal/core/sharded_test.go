package core

import (
	"runtime"
	"testing"

	"repro/internal/incident"
	"repro/internal/vectordb"
)

// TestShardedCopilotMatchesFlat wires a sharded index through the full
// Learn/Predict path and requires predictions identical to a flat-store
// copilot over the same history — the core-level slice of the tentpole
// equivalence contract.
func TestShardedCopilotMatchesFlat(t *testing.T) {
	e := getEnv(t)
	flat := newCopilot(t, Config{Shards: 1})
	sharded := newCopilot(t, Config{Shards: 7})
	ivf := newCopilot(t, Config{Shards: 5, Partitioner: PartitionIVF})

	if _, ok := flat.Index().(*vectordb.DB); !ok {
		t.Fatalf("Shards=1 index is %T, want flat", flat.Index())
	}
	if _, ok := sharded.Index().(*vectordb.Sharded); !ok {
		t.Fatalf("Shards=7 index is %T, want sharded", sharded.Index())
	}

	const history = 120
	for i := 0; i < history; i++ {
		inc := e.corpus.Incidents[i]
		for _, c := range []*Copilot{flat, sharded, ivf} {
			if err := c.Learn(inc.Clone()); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The IVF copilot trains its quantizer from the stored vectors (Learn
	// alone never retrains; batch ingest does it automatically).
	if s, ok := ivf.Index().(*vectordb.Sharded); !ok {
		t.Fatalf("ivf index is %T", ivf.Index())
	} else if err := s.TrainIVF(0); err != nil {
		t.Fatal(err)
	}

	for probe := history; probe < history+5; probe++ {
		want := e.corpus.Incidents[probe].Clone()
		want.Summary, want.Predicted = "", ""
		res, err := flat.Predict(want)
		if err != nil {
			t.Fatal(err)
		}
		for name, c := range map[string]*Copilot{"sharded": sharded, "ivf": ivf} {
			got := e.corpus.Incidents[probe].Clone()
			got.Summary, got.Predicted = "", ""
			gres, err := c.Predict(got)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if gres.Category != res.Category || gres.Explanation != res.Explanation || gres.Unseen != res.Unseen {
				t.Fatalf("%s probe %d diverged: %+v vs flat %+v", name, probe, gres, res)
			}
		}
	}
}

// TestLearnBatchTrainsIVFPartitioner pins the auto-training hook: after a
// batch ingest under PartitionIVF the index runs on a trained quantizer.
func TestLearnBatchTrainsIVFPartitioner(t *testing.T) {
	e := getEnv(t)
	c := newCopilot(t, Config{Shards: 4, Partitioner: PartitionIVF})
	incs := e.corpus.Incidents[:40]
	clones := make([]*incident.Incident, len(incs))
	for i, in := range incs {
		clones[i] = in.Clone()
	}
	if err := c.LearnBatch(clones, 2); err != nil {
		t.Fatal(err)
	}
	s, ok := c.Index().(*vectordb.Sharded)
	if !ok {
		t.Fatalf("index is %T", c.Index())
	}
	if _, ok := s.Partitioner().(*vectordb.IVF); !ok {
		t.Fatalf("partitioner is %T after LearnBatch, want *vectordb.IVF", s.Partitioner())
	}
	if s.Len() != len(incs) {
		t.Fatalf("len = %d, want %d", s.Len(), len(incs))
	}
}

// TestNewRejectsUnknownPartitioner covers config validation.
func TestNewRejectsUnknownPartitioner(t *testing.T) {
	e := getEnv(t)
	if _, err := New(e.corpus.Fleet, Config{Shards: 4, Partitioner: "lsh"}); err == nil {
		t.Fatal("unknown partitioner must fail")
	}
	if _, err := New(e.corpus.Fleet, Config{Shards: 4, Partitioner: PartitionIVF}); err != nil {
		t.Fatal(err)
	}
}

// TestProbeConfigValidation covers the manual probe override on a
// copilot's index: the sharded IVF store is reachable through
// vectordb.AsSharded, a negative budget is rejected, and a valid budget
// reaches the index.
func TestProbeConfigValidation(t *testing.T) {
	c := newCopilot(t, Config{Shards: 4, Partitioner: PartitionIVF})
	s, ok := vectordb.AsSharded(c.Index())
	if !ok {
		t.Fatalf("index is %T", c.Index())
	}
	if err := s.SetProbes(-1); err == nil {
		t.Fatal("negative probes must fail")
	}
	if err := s.SetProbes(2); err != nil {
		t.Fatal(err)
	}
	if s.Probes() != 2 {
		t.Fatalf("Probes = %d on the index, want 2", s.Probes())
	}
}

// TestAdaptiveConfigValidation covers the adaptive serving knobs' config
// surface: out-of-range targets and skews and adaptive serving without a
// sharded store are rejected; a valid adaptive config reaches the index
// as an installed controller.
func TestAdaptiveConfigValidation(t *testing.T) {
	e := getEnv(t)
	bad := []Config{
		{Shards: 4, Partitioner: PartitionIVF, RecallTarget: 1.5},
		{Shards: 4, Partitioner: PartitionIVF, RecallTarget: -0.5},
		{Shards: 4, Partitioner: PartitionIVF, RetrainSkew: 0.5},
		{Shards: 1, RecallTarget: 0.9},
		{Shards: 1, RetrainSkew: 1.5},
	}
	for i, cfg := range bad {
		if _, err := New(e.corpus.Fleet, cfg); err == nil {
			t.Fatalf("case %d: config %+v must be rejected", i, cfg)
		}
	}
	c := newCopilot(t, Config{Shards: 4, Partitioner: PartitionIVF, RecallTarget: 0.95, RetrainSkew: 2})
	s, ok := c.Index().(*vectordb.Sharded)
	if !ok {
		t.Fatalf("index is %T", c.Index())
	}
	if s.AdaptiveTuner() == nil {
		t.Fatal("adaptive config must install a controller on the index")
	}
	if s.Probes() != 1 {
		t.Fatalf("controller-seeded probe budget = %d, want 1", s.Probes())
	}
}

// TestAdaptiveCopilotPredicts runs the full Learn/Predict path with the
// auto-tuner live: the pipeline must work end to end while shadow
// sampling and skew checks run behind retrieval.
func TestAdaptiveCopilotPredicts(t *testing.T) {
	e := getEnv(t)
	c := newCopilot(t, Config{Shards: 4, Partitioner: PartitionIVF, RecallTarget: 0.9, RetrainSkew: 3})
	incs := e.corpus.Incidents[:40]
	clones := make([]*incident.Incident, len(incs))
	for i, in := range incs {
		clones[i] = in.Clone()
	}
	if err := c.LearnBatch(clones, 2); err != nil {
		t.Fatal(err)
	}
	s := c.Index().(*vectordb.Sharded)
	if _, ok := s.Partitioner().(*vectordb.IVF); !ok {
		t.Fatalf("partitioner is %T, want trained IVF", s.Partitioner())
	}
	// The tuner shadows one query in 20, so predict enough probes for at
	// least one exact shadow to run alongside the live pipeline.
	for _, in := range e.corpus.Incidents[41:65] {
		probe := in.Clone()
		probe.Summary, probe.Predicted = "", ""
		res, err := c.Predict(probe)
		if err != nil {
			t.Fatal(err)
		}
		if res.Category == "" {
			t.Fatal("adaptive Predict returned no category")
		}
	}
	tn := s.AdaptiveTuner()
	tn.Quiesce()
	if tn.Shadows() == 0 {
		t.Fatal("no shadow query ran behind 24 adaptive predictions")
	}
	if p := s.Probes(); p < 1 || p > 4 {
		t.Fatalf("effective probe budget %d outside [1, 4]", p)
	}
}

// TestProbeCopilotPredicts runs the full Learn/Predict path under
// probe-limited serving: the prediction pipeline must work end to end on
// the approximate index (no golden equality — probe mode is approximate
// by contract once the quantizer trains).
func TestProbeCopilotPredicts(t *testing.T) {
	e := getEnv(t)
	c := newCopilot(t, Config{Shards: 4, Partitioner: PartitionIVF})
	s, _ := vectordb.AsSharded(c.Index())
	if err := s.SetProbes(1); err != nil {
		t.Fatal(err)
	}
	incs := e.corpus.Incidents[:40]
	clones := make([]*incident.Incident, len(incs))
	for i, in := range incs {
		clones[i] = in.Clone()
	}
	if err := c.LearnBatch(clones, 2); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Partitioner().(*vectordb.IVF); !ok {
		t.Fatalf("partitioner is %T, want trained IVF", s.Partitioner())
	}
	probe := e.corpus.Incidents[41].Clone()
	probe.Summary, probe.Predicted = "", ""
	res, err := c.Predict(probe)
	if err != nil {
		t.Fatal(err)
	}
	if res.Category == "" {
		t.Fatal("probe-limited Predict returned no category")
	}
}

// TestShardsDefaultToNumCPU pins the Shards default: an unset Shards scales
// the store to the machine (runtime.NumCPU()), while an explicit Shards: 1
// still selects the flat exact DB — the opt-out is one knob, not a magic
// zero.
func TestShardsDefaultToNumCPU(t *testing.T) {
	def := newCopilot(t, Config{})
	if got, want := def.Config().Shards, runtime.NumCPU(); got != want {
		t.Fatalf("default Shards = %d, want runtime.NumCPU() = %d", got, want)
	}
	if runtime.NumCPU() > 1 {
		if _, ok := def.Index().(*vectordb.Sharded); !ok {
			t.Fatalf("default index on a %d-CPU machine is %T, want sharded", runtime.NumCPU(), def.Index())
		}
	}
	flat := newCopilot(t, Config{Shards: 1})
	if _, ok := flat.Index().(*vectordb.DB); !ok {
		t.Fatalf("Shards=1 index is %T, want flat *vectordb.DB", flat.Index())
	}
}

// TestQuantizedConfigValidation covers the two-stage quantization knob's
// config surface: quantization without the recall-SLO probe budget (or
// without the IVF sharded store) is rejected; a valid config reaches the
// index with the sidecar enabled at the default overfetch factor.
func TestQuantizedConfigValidation(t *testing.T) {
	e := getEnv(t)
	bad := []Config{
		{Shards: 4, Partitioner: PartitionIVF, Quantized: true},
		{Shards: 1, Quantized: true},
		{Shards: 1, RecallTarget: 0.9, Quantized: true},
	}
	for i, cfg := range bad {
		if _, err := New(e.corpus.Fleet, cfg); err == nil {
			t.Fatalf("case %d: config %+v must be rejected", i, cfg)
		}
	}
	c := newCopilot(t, Config{Shards: 4, Partitioner: PartitionIVF, RecallTarget: 0.9, Quantized: true})
	s, ok := c.Index().(*vectordb.Sharded)
	if !ok {
		t.Fatalf("index is %T", c.Index())
	}
	if !s.QuantizedEnabled() {
		t.Fatal("quantized config must enable the sidecar on the index")
	}
	if s.Overfetch() != vectordb.DefaultOverfetch {
		t.Fatalf("Overfetch = %d on the index, want the default %d", s.Overfetch(), vectordb.DefaultOverfetch)
	}
}
