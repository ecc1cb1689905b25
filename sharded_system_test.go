package rcacopilot

import (
	"fmt"
	"testing"

	"repro/internal/vectordb"
)

// TestSystemShardedMatchesFlat assembles two systems over the same corpus
// and seed — one on the flat store, one sharded with IVF routing — and
// requires identical end-to-end outcomes: the facade-level proof that the
// Config shard knobs change scaling, not results.
func TestSystemShardedMatchesFlat(t *testing.T) {
	c := sharedCorpus(t)
	history := c.Incidents[:150]

	build := func(cfg Config) (*System, *Incident) {
		t.Helper()
		sys, err := NewSystem(c.Fleet, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.TrainEmbedding(history); err != nil {
			t.Fatal(err)
		}
		if err := sys.AddHistory(history); err != nil {
			t.Fatal(err)
		}
		probe := c.Incidents[200].Clone()
		probe.Summary, probe.Predicted, probe.Explanation = "", "", ""
		return sys, probe
	}

	flatSys, flatProbe := build(Config{Seed: 2})
	shardSys, shardProbe := build(Config{Seed: 2, Shards: 7, Partitioner: PartitionIVF})

	idx := shardSys.Copilot().Index()
	s, ok := idx.(*vectordb.Sharded)
	if !ok {
		t.Fatalf("sharded system runs on %T", idx)
	}
	if _, ok := s.Partitioner().(*vectordb.IVF); !ok {
		t.Fatalf("partitioner is %T after AddHistory, want trained IVF", s.Partitioner())
	}
	if s.Len() != len(history) {
		t.Fatalf("sharded history len = %d, want %d", s.Len(), len(history))
	}

	flatRes, err := flatSys.Predict(flatProbe)
	if err != nil {
		t.Fatal(err)
	}
	shardRes, err := shardSys.Predict(shardProbe)
	if err != nil {
		t.Fatal(err)
	}
	if flatRes.Category != shardRes.Category || flatRes.Explanation != shardRes.Explanation {
		t.Fatalf("sharded prediction diverged: %+v vs %+v", shardRes, flatRes)
	}
}

// TestSystemAdaptiveServing exercises the Config.RecallTarget/RetrainSkew
// wiring end to end: the adaptive controller must be live on
// the system's index after AddHistory (trained IVF, probe budget within
// [1, shards]), and the full pipeline must predict while shadow sampling
// runs behind retrieval.
func TestSystemAdaptiveServing(t *testing.T) {
	c := sharedCorpus(t)
	sys, err := NewSystem(c.Fleet, Config{
		Seed: 2, Shards: 7, Partitioner: PartitionIVF,
		RecallTarget: 0.95, RetrainSkew: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	history := c.Incidents[:150]
	if err := sys.TrainEmbedding(history); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddHistory(history); err != nil {
		t.Fatal(err)
	}
	s, ok := sys.Copilot().Index().(*vectordb.Sharded)
	if !ok {
		t.Fatalf("adaptive system runs on %T", sys.Copilot().Index())
	}
	tn := s.AdaptiveTuner()
	if tn == nil {
		t.Fatal("adaptive config must install a controller")
	}
	if _, ok := s.Partitioner().(*vectordb.IVF); !ok {
		t.Fatalf("partitioner is %T after AddHistory, want trained IVF", s.Partitioner())
	}
	// The tuner shadows one query in 20, so predict enough probes for at
	// least one exact shadow to run alongside the live pipeline.
	for _, in := range c.Incidents[200:224] {
		probe := in.Clone()
		probe.Summary, probe.Predicted, probe.Explanation = "", "", ""
		res, err := sys.Predict(probe)
		if err != nil {
			t.Fatal(err)
		}
		if res.Category == "" {
			t.Fatal("adaptive Predict returned no category")
		}
	}
	tn.Quiesce()
	if tn.Shadows() == 0 {
		t.Fatal("no shadow query ran behind 24 adaptive predictions")
	}
	if p := s.Probes(); p < 1 || p > 7 {
		t.Fatalf("effective probe budget %d outside [1, 7]", p)
	}
	// Bad adaptive configs must be rejected at the facade too.
	if _, err := NewSystem(c.Fleet, Config{Seed: 2, Shards: 1, RecallTarget: 0.95}); err == nil {
		t.Fatal("RecallTarget without an IVF sharded store must fail")
	}
}

// TestSystemAsyncLearnQueue exercises the Config.AsyncLearnQueue wiring:
// feedback verdicts land in the history only after Flush, and the history
// grows by exactly the confirmed count.
func TestSystemAsyncLearnQueue(t *testing.T) {
	c := sharedCorpus(t)
	sys, err := NewSystem(c.Fleet, Config{Seed: 2, AsyncLearnQueue: 8})
	if err != nil {
		t.Fatal(err)
	}
	history := c.Incidents[:120]
	if err := sys.TrainEmbedding(history); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddHistory(history); err != nil {
		t.Fatal(err)
	}
	loop := sys.Feedback()
	defer loop.Close()
	before := sys.Copilot().Index().Len()

	const reviews = 5
	for i := 0; i < reviews; i++ {
		inc := c.Incidents[300+i].Clone()
		inc.ID = fmt.Sprintf("INC-ASYNC-%d", i)
		inc.Predicted = inc.Category
		if _, err := loop.Submit(inc, VerdictConfirm, "", "oce", ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := loop.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := sys.Copilot().Index().Len(); got != before+reviews {
		t.Fatalf("history len = %d after Flush, want %d", got, before+reviews)
	}
}
