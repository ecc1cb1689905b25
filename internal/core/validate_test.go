package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/incident"
	"repro/internal/vectordb"
)

// TestConfigValidate is the one rule set for serving configs: every shape
// a front end or New must refuse fails Validate with an error naming the
// offending knob, and the derived and default shapes pass.
func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string // substring of the error; "" = valid
	}{
		{"zero value", Config{}, ""},
		{"flat store", Config{Shards: 1}, ""},
		{"category shards", Config{Shards: 4, Partitioner: PartitionCategory}, ""},
		{"recall target derives ivf", Config{Shards: 4, RecallTarget: 0.9}, ""},
		{"retrain skew derives ivf", Config{Shards: 4, RetrainSkew: 1.5}, ""},
		{"heavy deployment", Config{Shards: 8, RecallTarget: 0.95, RetrainSkew: 4, Quantized: true, BatchMax: 16, WALDir: "wal", WALCompactBytes: 1 << 20}, ""},
		{"batching on flat", Config{Shards: 1, BatchMax: 4}, ""},
		{"wal tuning with dir", Config{WALDir: "wal", WALSyncEvery: 1, WALSyncInterval: time.Millisecond, WALCompactBytes: -1}, ""},

		{"negative alpha", Config{Alpha: -0.3}, "Alpha"},
		{"nan alpha", Config{Alpha: math.NaN()}, "Alpha"},
		{"infinite alpha", Config{Alpha: math.Inf(1)}, "Alpha"},
		{"unknown partitioner", Config{Shards: 4, Partitioner: "kd-tree"}, "unknown partitioner"},
		{"recall target above 1", Config{Shards: 4, RecallTarget: 1.5}, "RecallTarget"},
		{"negative recall target", Config{Shards: 4, RecallTarget: -0.5}, "RecallTarget"},
		{"sub-1 retrain skew", Config{Shards: 4, RetrainSkew: 0.5}, "RetrainSkew"},
		{"negative retrain skew", Config{Shards: 4, RetrainSkew: -2}, "RetrainSkew"},
		{"recall target on flat store", Config{Shards: 1, RecallTarget: 0.9}, "Shards > 1"},
		{"retrain skew on flat store", Config{Shards: 1, RetrainSkew: 1.5}, "Shards > 1"},
		{"recall target with category routing", Config{Shards: 4, Partitioner: PartitionCategory, RecallTarget: 0.9}, "Partitioner"},
		{"retrain skew with category routing", Config{Shards: 4, Partitioner: PartitionCategory, RetrainSkew: 2}, "Partitioner"},
		{"quantized without recall target", Config{Shards: 4, Quantized: true}, "Quantized"},
		{"quantized with retrain only", Config{Shards: 4, RetrainSkew: 2, Quantized: true}, "Quantized"},
		{"negative batch max", Config{BatchMax: -1}, "BatchMax"},
		{"negative async learn queue", Config{AsyncLearnQueue: -1}, "AsyncLearnQueue"},
		{"negative wal sync every", Config{WALDir: "wal", WALSyncEvery: -1}, "WALSyncEvery"},
		{"negative wal sync interval", Config{WALDir: "wal", WALSyncInterval: -time.Millisecond}, "WALSyncInterval"},
		{"wal sync every without dir", Config{WALSyncEvery: 1}, "requires WALDir"},
		{"wal sync interval without dir", Config{WALSyncInterval: time.Second}, "requires WALDir"},
		{"wal compaction without dir", Config{WALCompactBytes: 1 << 20}, "requires WALDir"},
	} {
		err := tc.cfg.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %+v rejected: %v", tc.name, tc.cfg, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: %+v accepted, want an error naming %q", tc.name, tc.cfg, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}

// TestDerivedPartitionerServesAdaptively: a config that asks for a recall
// target but names no partitioner gets IVF routing, a recall tuner on the
// store and, once history is learned, a trained IVF quantizer. Without
// adaptive serving the routing stays category-hash.
func TestDerivedPartitionerServesAdaptively(t *testing.T) {
	if got := (Config{Shards: 4}).WithDefaults().Partitioner; got != PartitionCategory {
		t.Fatalf("exact serving derived partitioner %q, want %q", got, PartitionCategory)
	}
	e := getEnv(t)
	c := newCopilot(t, Config{Shards: 4, RecallTarget: 0.9})
	if got := c.Config().Partitioner; got != PartitionIVF {
		t.Fatalf("derived partitioner %q, want %q", got, PartitionIVF)
	}
	s, ok := vectordb.AsSharded(c.Index())
	if !ok {
		t.Fatalf("index is %T, want sharded", c.Index())
	}
	if s.AdaptiveTuner() == nil {
		t.Fatal("recall target installed no tuner")
	}
	incs := make([]*incident.Incident, 40)
	for i, in := range e.corpus.Incidents[:len(incs)] {
		incs[i] = in.Clone()
	}
	if err := c.LearnBatch(incs, 2); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Partitioner().(*vectordb.IVF); !ok {
		t.Fatalf("partitioner is %T after LearnBatch, want trained IVF", s.Partitioner())
	}
}
