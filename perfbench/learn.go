package main

import (
	"fmt"
	"time"

	rca "repro"
	"repro/internal/core"
	"repro/internal/embed/fasttext"
	"repro/internal/feedback"
	"repro/internal/incident"
	"repro/internal/prompt"
	"repro/internal/vectordb"
)

// Learns are OCE confirm/correct verdicts on fresh incidents, submitted one
// at a time through the feedback loop; each is timed until the store
// serves the learned entry. On oncall the loop learns synchronously into
// the plain store; on retrieve it is the daemon's asynchronous loop over
// the durable store, so each learn also goes through the write-ahead log's
// group commit and compaction.
const (
	learnOps        = minTailOps
	learnWarmWrites = 64
	learnQueue      = 64 // AsyncLearnQueue, the daemon default
	// learnCompactBytes makes the timed learns cross several compactions:
	// a learned entry logs about 1.7 KiB.
	learnCompactBytes = 512 << 10
)

// learnProbe submits vs one at a time and times each from its submission
// until the store serves it: learn_p50_ms, the median over rounds of each
// round's p50, and tail.learn_p99_ms over all of them. after, if set, runs
// after each learn.
func (b *bench) learnProbe(sys *rca.System, vs []verdict, after func()) {
	loop := sys.Feedback()
	idx := sys.Copilot().Index()
	lat := make([]time.Duration, len(vs))
	failed := 0
	for i, v := range vs {
		start := time.Now()
		_, err := loop.Submit(v.inc, verdictOf(v), v.corrected, "oce", "")
		if err == nil {
			err = waitVisible(idx, v.inc.ID)
		}
		lat[i] = time.Since(start)
		if err != nil {
			failed++
			b.check(false, "learn %s: %v", v.inc.ID, err)
		}
		if after != nil {
			after()
		}
	}
	b.count(len(vs), failed)
	var rounds [][]time.Duration
	for r := 0; r < measureRounds; r++ {
		lo, hi := slice(len(lat), r)
		rounds = append(rounds, lat[lo:hi])
	}
	b.latencies("learn", rounds, "learn_p50_ms", "learn_p99_ms")
}

// learnPhase runs the learn probe on a durable deployment. The first
// learnWarmWrites verdicts warm the write path untimed. Every acknowledged
// learn must become readable, the store must hold history plus the learns,
// the durable store must report no error, and the timed learns must cross
// at least two WAL compactions. A traced run then replays the timed learns
// decomposed.
func (b *bench) learnPhase(sys *rca.System, model *fasttext.Model, vs, traced []verdict, history int) error {
	loop, idx, d := sys.Feedback(), sys.Copilot().Index(), sys.Copilot().Durable()
	warm, timed := vs[:learnWarmWrites], vs[learnWarmWrites:]
	for _, v := range warm {
		if _, err := loop.Submit(v.inc, verdictOf(v), v.corrected, "oce", ""); err != nil {
			return fmt.Errorf("warm-up verdict %s: %w", v.inc.ID, err)
		}
	}
	if err := loop.Flush(); err != nil {
		return err
	}

	w := newWalWatch(d)
	b.learnProbe(sys, timed, w.observe)
	n := float64(len(timed))
	b.layer["wal.appended_per_op"] = float64(w.appended) / n
	b.layer["wal.log_bytes_per_learn"] = float64(w.bytes) / n
	b.layer["wal.compactions"] = float64(w.compactions)
	b.layer["wal.synced_share"] = float64(w.synced) / float64(w.appended)

	for _, v := range vs {
		_, ok := idx.Get(v.inc.ID)
		b.check(ok, "acknowledged learn %s not readable", v.inc.ID)
	}
	b.check(idx.Len() == history+len(vs), "store holds %d entries, want %d history + %d learned", idx.Len(), history, len(vs))
	b.check(d.Stats().Err == "", "durable store error: %s", d.Stats().Err)
	b.check(w.compactions >= 2, "timed learns crossed %d WAL compactions, want at least 2", w.compactions)
	b.info("%d verdicts learned, %d WAL compactions while timed", len(vs), w.compactions)
	if !b.trace {
		return nil
	}
	if err := b.tracedLearns(sys.Copilot(), core.FastTextEmbedder{Model: model}, traced, "op.learn", learnQueue); err != nil {
		return err
	}
	ms, err := compactMs(d)
	b.layer["wal.compact_ms"] = ms
	return err
}

// walWatch samples the durable store's stats after each write to count
// compactions and to total the log's counters across rotations since it
// was made: each compaction starts a fresh log whose counters restart from
// zero. Growth between the last sample and a rotation goes uncounted.
type walWatch struct {
	d           *vectordb.Durable
	prev        vectordb.DurableStats
	compactions int
	bytes       int64
	appended    int64
	synced      int64
}

func newWalWatch(d *vectordb.Durable) *walWatch { return &walWatch{d: d, prev: d.Stats()} }

func (w *walWatch) observe() {
	st := w.d.Stats()
	if !st.LastCompaction.Equal(w.prev.LastCompaction) {
		w.compactions++
		w.prev = vectordb.DurableStats{}
	}
	w.bytes += max(0, st.LogBytes-w.prev.LogBytes)
	w.appended += max(0, st.AppendedRecords-w.prev.AppendedRecords)
	w.synced += max(0, st.SyncedRecords-w.prev.SyncedRecords)
	w.prev = st
}

// tracedLearner is core.Copilot's Learn as its public layer calls, so the
// feedback loop's learns record spans under their write: op maps an
// incident to its op, roots[op] is the span its learn runs under.
type tracedLearner struct {
	cop   *core.Copilot
	emb   core.FastTextEmbedder
	rec   *recorder
	op    map[string]int
	roots []int
}

func newTracedLearner(cop *core.Copilot, emb core.FastTextEmbedder, rec *recorder, vs []verdict) *tracedLearner {
	l := &tracedLearner{cop: cop, emb: emb, rec: rec, op: map[string]int{}, roots: make([]int, len(vs))}
	for i, v := range vs {
		l.op[v.inc.ID] = i
	}
	return l
}

func (l *tracedLearner) Learn(in *incident.Incident) error {
	op := l.op[in.ID]
	s := l.rec.begin("core.learn", op, l.roots[op])
	defer l.rec.end(s)
	if in.Category == "" {
		return fmt.Errorf("incident %s has no root-cause label", in.ID)
	}
	if in.Summary == "" {
		c := l.rec.begin("simgpt.summarize", op, s)
		err := l.cop.Summarize(in)
		l.rec.end(c)
		if err != nil {
			return err
		}
	}
	c := l.rec.begin("fasttext.embed", op, s)
	vec, err := l.emb.Embed(embedText(in))
	l.rec.end(c)
	if err != nil {
		return err
	}
	demo := in.Summary
	if demo == "" {
		demo = prompt.TrimToTokens(embedText(in), 200, l.cop.Chat().CountTokens)
	}
	add := "vectordb.add"
	if l.cop.Durable() != nil {
		add = "wal.add"
	}
	c = l.rec.begin(add, op, s)
	err = l.cop.Index().Add(vectordb.Entry{ID: in.ID, Vector: vec, Category: in.Category, Time: in.CreatedAt, Summary: demo})
	l.rec.end(c)
	return err
}

// tracedLearns submits vs one at a time, each under a root span named
// root, through a feedback loop whose learner is the traced decomposition,
// and records feedback.visible_us: Submit to readable. With queue > 0 the
// loop learns in the background, as the daemon's does, and each learn's
// spans hang under its root; otherwise Submit learns inline and they hang
// under its span.
func (b *bench) tracedLearns(cop *core.Copilot, emb core.FastTextEmbedder, vs []verdict, root string, queue int) error {
	l := newTracedLearner(cop, emb, b.rec, vs)
	loop := feedback.New(nil, l)
	if queue > 0 {
		if err := loop.StartIngest(queue); err != nil {
			return err
		}
	}
	idx := cop.Index()
	visible := make([]float64, len(vs))
	for i, v := range vs {
		r := b.rec.begin(root, i, -1)
		t0 := time.Now()
		s := b.rec.begin("feedback.submit", i, r)
		l.roots[i] = s
		if queue > 0 {
			l.roots[i] = r
		}
		_, err := loop.Submit(v.inc, verdictOf(v), v.corrected, "oce", "")
		b.rec.end(s)
		if err == nil {
			err = waitVisible(idx, v.inc.ID)
		}
		visible[i] = float64(time.Since(t0)) / float64(time.Microsecond)
		b.rec.end(r)
		if err != nil {
			return fmt.Errorf("traced learn %s: %w", v.inc.ID, err)
		}
	}
	b.layer["feedback.visible_us"] = median(visible)
	return loop.Close()
}

// compactMs is the median time of three explicit compactions of d.
func compactMs(d *vectordb.Durable) (float64, error) {
	var ms []float64
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		if err := d.Compact(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return median(ms), nil
}
