package main

import (
	"fmt"
	"os"

	rca "repro"
	"repro/internal/core"
	"repro/internal/embed/fasttext"
	"repro/internal/incident"
	"repro/internal/vectordb"
)

// auxOps is how many auxiliary ops of each kind a traced run adds.
const auxOps = 64

// traceAux runs a traced run's auxiliary ops, then derives its per-layer
// metrics. Auxiliary ops are the kinds the workload does not itself make:
// decomposed incidents (oncall), dashboard reads of incs (reads), and
// synchronous learns of learns, whose entries then go through a
// write-ahead log of their own. They run one at a time under "aux.*"
// roots on the workload's own system, after its own ops, so every layer
// is timed on every workload without entering the workload's shares.
func (b *bench) traceAux(sys *rca.System, model *fasttext.Model, incs []*incident.Incident, learns []verdict, oncall, reads bool) error {
	cop := sys.Copilot()
	emb := core.FastTextEmbedder{Model: model}
	if oncall {
		ops := oncallOps(incs[:auxOps], 1, "a")
		stats := make([]oncallStats, len(ops))
		for i, in := range ops {
			root := b.rec.begin("aux.oncall", i, -1)
			st, err := b.tracedHandle(cop, emb, in, i, root)
			b.rec.end(root)
			if err != nil {
				return fmt.Errorf("auxiliary incident %s: %w", in.ID, err)
			}
			stats[i] = st
		}
		if err := b.oncallCounts(emb, stats, ops); err != nil {
			return err
		}
	}
	if reads {
		// Two passes over auxOps queries read each one plain and diverse.
		t, err := newTracedReader(newReader(sys, incs[:auxOps]), b.rec, emb)
		if err != nil {
			return err
		}
		for i := 0; i < 2*auxOps; i++ {
			root := b.rec.begin("aux.retrieve", i, -1)
			err := t.read(i, root, i)
			b.rec.end(root)
			if err != nil {
				return fmt.Errorf("auxiliary read %d: %w", i, err)
			}
		}
	}
	if len(learns) > 0 {
		if err := b.tracedLearns(cop, emb, learns, "aux.learn", 0); err != nil {
			return err
		}
		if err := b.auxWAL(cop.Index(), learns); err != nil {
			return err
		}
	}
	return b.layerMetrics()
}

// auxWAL writes the learned entries of learns through a durable store of
// their own and compacts it: the write-ahead log timed on a workload whose
// store has none.
func (b *bench) auxWAL(idx vectordb.Index, learns []verdict) error {
	dir, err := os.MkdirTemp(b.dir, "aux-wal-")
	if err != nil {
		return err
	}
	flat := func() vectordb.Index { return vectordb.NewIndex(idx.Dim(), vectordb.Options{Shards: 1}) }
	d, err := vectordb.OpenDurable(dir, flat, vectordb.DurableOptions{CompactBytes: -1})
	if err != nil {
		return err
	}
	defer d.Close()
	for i, v := range learns {
		e, ok := idx.Get(v.inc.ID)
		if !ok {
			return fmt.Errorf("auxiliary learn %s not readable", v.inc.ID)
		}
		root := b.rec.begin("aux.wal", i, -1)
		s := b.rec.begin("wal.add", i, root)
		err := d.Add(e)
		b.rec.end(s)
		b.rec.end(root)
		if err != nil {
			return err
		}
	}
	ms, err := compactMs(d)
	b.layer["wal.compact_ms"] = ms
	return err
}
