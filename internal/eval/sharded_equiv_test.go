package eval

import (
	"testing"

	"repro/internal/core"
)

// These goldens pin the sharded retrieval layer's contract at the harness
// level: swapping the vector index behind the full pipeline — flat,
// category-hash sharded, or IVF sharded — must reproduce the flat
// reference's predictions and modelled latencies bit for bit, because
// sharded search is exact and merges under the flat store's total
// retrieval order. (The store-level equivalence grid lives in
// internal/vectordb; this covers the wiring through core.Config and Env.)

// runShardedVariant runs the small-env pipeline with the env's index knobs
// temporarily overridden.
func runShardedVariant(t *testing.T, e *Env, shards int, partitioner string) *PipelineRun {
	t.Helper()
	prevS, prevP := e.Config.Shards, e.Config.Partitioner
	e.Config.Shards, e.Config.Partitioner = shards, partitioner
	defer func() { e.Config.Shards, e.Config.Partitioner = prevS, prevP }()
	run, err := RunPipeline(e, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func samePipelineRun(t *testing.T, name string, ref, got *PipelineRun) {
	t.Helper()
	if got.Result.Scores != ref.Result.Scores {
		t.Fatalf("%s: scores %+v != flat %+v", name, got.Result.Scores, ref.Result.Scores)
	}
	if got.Result.Infer != ref.Result.Infer {
		t.Fatalf("%s: modelled infer %v != flat %v", name, got.Result.Infer, ref.Result.Infer)
	}
	if got.UnseenAnswered != ref.UnseenAnswered {
		t.Fatalf("%s: unseen %d != flat %d", name, got.UnseenAnswered, ref.UnseenAnswered)
	}
	if len(got.Preds) != len(ref.Preds) {
		t.Fatalf("%s: %d preds != %d", name, len(got.Preds), len(ref.Preds))
	}
	for i := range ref.Preds {
		if got.Preds[i] != ref.Preds[i] {
			t.Fatalf("%s: pred %d = %q, flat says %q", name, i, got.Preds[i], ref.Preds[i])
		}
	}
}

// TestShardedPipelineMatchesFlat runs the full pipeline on the flat store
// and on sharded stores at several shard counts (category-hash and IVF
// routing) and requires identical predictions.
func TestShardedPipelineMatchesFlat(t *testing.T) {
	skipHeavyGolden(t, "sharded-vs-flat pipeline golden skips in -short")
	e := smallEnv(t, 1, 0)
	flat := runShardedVariant(t, e, 0, "")
	for _, tc := range []struct {
		name        string
		shards      int
		partitioner string
	}{
		{"shards=2", 2, ""},
		{"shards=7", 7, core.PartitionCategory},
		{"shards=7-ivf", 7, core.PartitionIVF},
		{"shards=16", 16, ""},
	} {
		samePipelineRun(t, tc.name, flat, runShardedVariant(t, e, tc.shards, tc.partitioner))
	}
}

// TestShardedPipelineRejectsUnknownPartitioner covers the config error
// path end to end.
func TestShardedPipelineRejectsUnknownPartitioner(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a generated env")
	}
	e := smallEnv(t, 1, 0)
	prevS, prevP := e.Config.Shards, e.Config.Partitioner
	e.Config.Shards, e.Config.Partitioner = 4, "kd-tree"
	defer func() { e.Config.Shards, e.Config.Partitioner = prevS, prevP }()
	if _, err := RunPipeline(e, PipelineOptions{}); err == nil {
		t.Fatal("unknown partitioner must fail pipeline construction")
	}
}
