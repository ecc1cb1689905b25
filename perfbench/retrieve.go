package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	rca "repro"
	"repro/internal/core"
	"repro/internal/embed/fasttext"
	"repro/internal/incident"
	"repro/internal/vectordb"
)

// The retrieve workload is dashboard retrieval against a multi-year store:
// the seed's training quarter plus 5 more seeded years (~3.8k incidents)
// under the heavy deployment config, made durable. Queries repeat over the
// held-out incidents' texts, few enough to stay in the query-embedding
// cache, so after warm-up the store does the work and the embedder almost
// none. After the reads, the learn phase writes OCE verdicts into the same
// store through the write-ahead log.
const (
	retrieveRate      = 200.0 // reads/s, about a sixth of the closed-loop throughput on 2 CPUs
	retrieveOpenOps   = 2000  // per 10 s of budget; at least minTailOps
	retrieveClosedOps = 6000  // per 10 s of budget
	retrieveCorpora   = 5
	retrieveWarmRound = 328 // reads per warm-up round: each query both ways
	retrieveWarmMax   = 40  // rounds before warm-up gives up on settling
)

// heavyConfig is the README's heavy deployment with the daemon's
// asynchronous learn queue and a write-ahead log (WALDir is set per build).
func heavyConfig(seed int64) rca.Config {
	return rca.Config{
		Seed: seed, Shards: 8, Partitioner: rca.PartitionIVF, RecallTarget: 0.95,
		RetrainSkew: 4, Quantized: true, BatchMax: 16,
		AsyncLearnQueue: learnQueue, WALCompactBytes: learnCompactBytes,
	}
}

func runRetrieve(b *bench) error {
	c, train, test, err := seedCorpus(b.seed)
	if err != nil {
		return err
	}
	extra, err := extraIncidents(b.seed, 1, retrieveCorpora*len(c.Incidents))
	if err != nil {
		return err
	}
	history := append(append([]*incident.Incident(nil), train...), extra...)
	writes, err := extraIncidents(b.seed, 1+retrieveCorpora, learnWarmWrites+learnOps)
	if err != nil {
		return err
	}
	learns := verdicts(writes, "")
	var traced []verdict
	if b.trace {
		traced = verdicts(writes[learnWarmWrites:], "-t")
	}
	openN := max(minTailOps, b.scaled(retrieveOpenOps))
	closedN := b.scaled(retrieveClosedOps)

	// The corpus fleet's clock stands at the end of the history year, where
	// a dashboard reading that history would anchor its decay.
	sys, model, err := b.setUp(deployment{fleet: c.Fleet, cfg: heavyConfig(b.seed), train: train, history: history, durable: true})
	if err != nil {
		return err
	}
	r := newReader(sys, test)
	b.warmReads(sys, r)

	v0 := readVectorStats(sys)
	open, closed := r.results(openN), r.results(closedN)
	var times []opTimes
	var rounds [][]time.Duration
	var cp closedPhase
	for round := 0; round < measureRounds; round++ {
		lo, hi := slice(openN, round)
		t := poolOpen(runtime.NumCPU(), hi-lo, retrieveRate, func(i int) { open.read(lo + i) })
		times, rounds = append(times, t...), append(rounds, latenciesOf(t))
		lo, hi = slice(closedN, round)
		cp.measure(hi-lo, func() { closedLoop(runtime.NumCPU(), hi-lo, func(i int) { closed.read(lo + i) }) })
	}
	b.latencies("read", rounds, "latency_p50_ms", "latency_p99_ms")
	b.layer["bench.gen_lag_p99_ms"] = percentile(sortedIn(lagsOf(times), time.Millisecond), 0.99)
	untracedP50 := b.e2e["latency_p50_ms"]
	b.closedMetrics(cp)
	b.vectorMetrics(v0, readVectorStats(sys), openN+closedN)

	ref, err := exactReference(sys.Copilot().Index(), history)
	if err != nil {
		return err
	}
	exact, err := r.exact(ref, model)
	if err != nil {
		return err
	}
	failed, recall := 0, 0.0
	for _, res := range []*readResults{open, closed} {
		ff, rc := res.judge(b, exact)
		failed, recall = failed+ff, recall+rc
	}
	n := openN + closedN
	b.count(n, failed)
	b.e2e["recall_at_5"] = recall / float64(n)

	// Accuracy is the paper's: HandleIncident's prediction for each
	// held-out incident against its gold category, here with the
	// multi-year history to draw demonstrations from.
	right, predFailed := 0, 0
	for k, in := range oncallOps(test, 1, "p") {
		_, err := sys.HandleIncident(in)
		b.check(err == nil, "HandleIncident(%s): %v", in.ID, err)
		if err != nil {
			predFailed++
		} else if in.Predicted == test[k].Category {
			right++
		}
	}
	b.count(len(test), predFailed)
	b.e2e["accuracy"] = float64(right) / float64(len(test))
	b.info("accuracy %d/%d", right, len(test))

	if b.trace {
		if err := b.traceReads(r, model, openN, retrieveRate, untracedP50); err != nil {
			return err
		}
	}
	if err := b.learnPhase(sys, model, learns, traced, len(history)); err != nil {
		return err
	}
	b.layer["vectordb.retrains"] = float64(readVectorStats(sys).retrains)
	if b.trace {
		if err := b.traceAux(sys, model, test, nil, true, false); err != nil {
			return err
		}
	}
	b.heapLive(sys)
	return nil
}

// reader issues dashboard reads through System.Retrieve, which anchors
// each read's temporal decay at the fleet's clock: op i asks for the top K
// of query i mod len(texts), diverse on odd passes, so each text is read
// both ways.
type reader struct {
	sys   *rca.System
	texts []string
	k     int
}

func newReader(sys *rca.System, queries []*incident.Incident) *reader {
	r := &reader{sys: sys, k: sys.Copilot().Config().K}
	for _, in := range queries {
		r.texts = append(r.texts, in.DiagnosticText())
	}
	return r
}

// anchor is the decay anchor System.Retrieve uses.
func (r *reader) anchor() time.Time { return r.sys.Fleet().Clock().Now() }

func (r *reader) query(i int) (q int, diverse bool) {
	return i % len(r.texts), (i/len(r.texts))%2 == 1
}

// readResults holds one phase's served reads.
type readResults struct {
	r    *reader
	hits [][]vectordb.Scored
	errs []error
}

func (r *reader) results(n int) *readResults {
	return &readResults{r: r, hits: make([][]vectordb.Scored, n), errs: make([]error, n)}
}

// read serves op i.
func (res *readResults) read(i int) {
	r := res.r
	q, diverse := r.query(i)
	res.hits[i], res.errs[i] = r.sys.Retrieve(r.texts[q], r.k, diverse)
}

// judge checks every read and returns how many failed and the summed
// recall against exact.
func (res *readResults) judge(b *bench, exact [][2][]vectordb.Scored) (failed int, recall float64) {
	for i, hits := range res.hits {
		q, diverse := res.r.query(i)
		if res.errs[i] != nil || len(hits) != res.r.k {
			failed++
			b.check(false, "read %d: %v (%d hits)", i, res.errs[i], len(hits))
			continue
		}
		recall += overlap(hits, exact[q][boolIndex(diverse)])
	}
	return failed, recall
}

func boolIndex(v bool) int {
	if v {
		return 1
	}
	return 0
}

// exact computes every query's exact top K, plain and diverse, on ref.
func (r *reader) exact(ref vectordb.Index, model *fasttext.Model) ([][2][]vectordb.Scored, error) {
	emb := core.FastTextEmbedder{Model: model}
	alpha := r.sys.Copilot().Config().Alpha
	out := make([][2][]vectordb.Scored, len(r.texts))
	for q, text := range r.texts {
		v, err := emb.Embed(text)
		if err == nil {
			out[q][0], err = ref.TopK(v, r.anchor(), r.k, alpha)
		}
		if err == nil {
			out[q][1], err = ref.TopKDiverse(v, r.anchor(), r.k, alpha)
		}
		if err != nil {
			return nil, fmt.Errorf("exact reference for query %d: %w", q, err)
		}
	}
	return out, nil
}

// warmReads runs rounds of reads on every client until the query cache is
// full and the store's serving state (probe budget, shadow sampling, IVF
// retrains) stops moving over a whole round.
func (b *bench) warmReads(sys *rca.System, r *reader) {
	prev := readVectorStats(sys)
	for round := 1; ; round++ {
		res := r.results(retrieveWarmRound)
		closedLoop(runtime.NumCPU(), retrieveWarmRound, res.read)
		cur := readVectorStats(sys)
		settled := cur.probes == prev.probes && cur.shadows == prev.shadows && cur.retrains == prev.retrains
		if (settled && round >= 2) || round == retrieveWarmMax {
			b.info("warm-up: %d rounds, probes %d, settled %v", round, cur.probes, settled)
			return
		}
		prev = cur
	}
}

// vectorStats is a snapshot of the store's serving counters.
type vectorStats struct {
	probes                     int
	recall                     float64
	shadows, quant, retrains   int
	batches, queries, flushTmr int64
}

func readVectorStats(sys *rca.System) vectorStats {
	var v vectorStats
	if s, ok := vectordb.AsSharded(sys.Copilot().Index()); ok {
		st := s.NamespaceStats()[0]
		v.probes, v.recall, v.shadows, v.quant, v.retrains = st.Probes, st.ObservedRecall, st.Shadows, st.QuantScans, st.Retrains
	}
	if bt := sys.Copilot().Batcher(); bt != nil {
		st := bt.Stats()
		v.batches, v.queries, v.flushTmr = st.Batches, st.Queries, st.FlushTimer
	}
	return v
}

// vectorMetrics records the vectordb per-layer metrics for n reads served
// between two snapshots.
func (b *bench) vectorMetrics(v0, v1 vectorStats, n int) {
	b.layer["vectordb.probes"] = float64(v1.probes)
	b.layer["vectordb.observed_recall"] = v1.recall
	b.layer["vectordb.retrains"] = float64(v1.retrains)
	b.layer["vectordb.shadows_per_kop"] = float64(v1.shadows-v0.shadows) * 1000 / float64(n)
	b.layer["vectordb.quant_scan_share"] = float64(v1.quant-v0.quant) / float64(n)
	if batches := v1.batches - v0.batches; batches > 0 {
		b.layer["vectordb.batch_occupancy"] = float64(v1.queries-v0.queries) / float64(batches)
		b.layer["vectordb.flush_timer_share"] = float64(v1.flushTmr-v0.flushTmr) / float64(batches)
	}
}

// tracedReader decomposes System.Retrieve into the calls Copilot.Retrieve
// makes: a query-embedding cache lookup, FastText on a miss, then the
// store's TopK or TopKDiverse.
type tracedReader struct {
	*reader
	rec   *recorder
	emb   core.FastTextEmbedder
	mu    sync.Mutex
	cache map[string][]float64
}

// newTracedReader returns a traced reader whose query cache is warm, as
// System.Retrieve's is after warm-up: it first reads every query once
// under an "aux.retrieve" root, so its embedding spans time cache misses.
func newTracedReader(r *reader, rec *recorder, emb core.FastTextEmbedder) (*tracedReader, error) {
	t := &tracedReader{reader: r, rec: rec, emb: emb, cache: map[string][]float64{}}
	for q := range r.texts {
		root := rec.begin("aux.retrieve", q, -1)
		err := t.read(q, root, q)
		rec.end(root)
		if err != nil {
			return nil, fmt.Errorf("warming traced read %d: %w", q, err)
		}
	}
	return t, nil
}

func (t *tracedReader) read(op, parent int, i int) error {
	q, diverse := t.query(i)
	text := t.texts[q]
	s := t.rec.begin("core.retrieve", op, parent)
	defer t.rec.end(s)
	cop := t.sys.Copilot()
	t.mu.Lock()
	v, ok := t.cache[text]
	t.mu.Unlock()
	if !ok {
		e := t.rec.begin("fasttext.query_embed", op, s)
		var err error
		v, err = t.emb.Embed(text)
		t.rec.end(e)
		if err != nil {
			return err
		}
		t.mu.Lock()
		t.cache[text] = v
		t.mu.Unlock()
	}
	cfg := cop.Config()
	at := t.anchor()
	db := cop.Index()
	var hits []vectordb.Scored
	var err error
	if diverse {
		e := t.rec.begin("vectordb.diverse", op, s)
		hits, err = db.TopKDiverse(v, at, t.k, cfg.Alpha)
		t.rec.end(e)
	} else {
		e := t.rec.begin("vectordb.topk", op, s)
		hits, err = db.TopK(v, at, t.k, cfg.Alpha)
		t.rec.end(e)
	}
	if err == nil && len(hits) != t.k {
		err = fmt.Errorf("%d hits", len(hits))
	}
	return err
}

// traceReads replays the read schedule traced on the benchmark's workers.
func (b *bench) traceReads(r *reader, model *fasttext.Model, n int, rate float64, untracedP50 float64) error {
	t, err := newTracedReader(r, b.rec, core.FastTextEmbedder{Model: model})
	if err != nil {
		return err
	}
	errs := make([]error, n)
	times := poolOpen(runtime.NumCPU(), n, rate, func(i int) {
		root := b.rec.begin("op.retrieve", i, -1)
		errs[i] = t.read(i, root, i)
		b.rec.end(root)
	})
	for i, err := range errs {
		b.check(err == nil, "traced read %d: %v", i, err)
	}
	b.traceTimes(times, untracedP50)
	return nil
}
