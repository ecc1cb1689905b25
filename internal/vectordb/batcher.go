package vectordb

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/incident"
)

// Batcher is the serving-side micro-batcher: an Index decorator that
// coalesces concurrent TopK/TopKDiverse calls into TopKBatch executions.
// A dispatcher goroutine collects queries into a time/size-bounded window
// — flushing when maxBatch queries have accumulated or the oldest has
// waited maxWait, whichever comes first — and a query that finds the
// collector empty with no follower queued is served on the single-query
// fast path (straight through the underlying TopK/TopKDiverse, no timer
// wait), so idle-traffic p50 latency is unchanged and batching engages
// exactly when concurrency makes it profitable. All other Index methods
// delegate to the wrapped store.
//
// The request channel is unbuffered on purpose: a send succeeds only when
// the dispatcher is receiving, so callers that arrive while a batch
// executes block in a select that also watches the shutdown signal —
// after Close no query can strand in a queue nobody drains; it just
// serves directly.
type Batcher struct {
	idx      root
	maxBatch int
	maxWait  time.Duration

	reqs chan *batchReq
	stop chan struct{} // closed by Close to stop the dispatcher
	done chan struct{} // closed by the dispatcher on exit

	batches    atomic.Int64
	queries    atomic.Int64
	flushIdle  atomic.Int64
	flushSize  atomic.Int64
	flushTimer atomic.Int64
}

var _ root = (*Batcher)(nil)

type batchReq struct {
	q   BatchQuery
	out chan batchResp
}

type batchResp struct {
	scs []Scored
	err error
}

// BatcherStats is a point-in-time snapshot of batch formation, exported
// on the daemon's /metrics surface.
type BatcherStats struct {
	// Batches is the number of flushes executed (including single-query
	// fast-path serves, which are batches of occupancy 1).
	Batches int64
	// Queries is the number of queries served through the collector.
	Queries int64
	// FlushIdle counts single-query fast-path flushes (collector empty, no
	// follower queued).
	FlushIdle int64
	// FlushSize counts flushes triggered by reaching maxBatch.
	FlushSize int64
	// FlushTimer counts flushes triggered by the maxWait deadline.
	FlushTimer int64
	// MeanOccupancy is Queries/Batches — 1.0 under idle traffic, rising
	// toward maxBatch as concurrency saturates the collector.
	MeanOccupancy float64
}

// NewBatcher wraps idx with a micro-batching collector: at most maxBatch
// queries per flush (must be >= 2 — a 1-query batcher is the identity and
// should just not be constructed), each waiting at most maxWait for
// companions. idx must be one of this package's stores (DB, Sharded,
// Durable, Batcher), not a namespace view. The dispatcher goroutine runs
// until Close.
func NewBatcher(idx Index, maxBatch int, maxWait time.Duration) (*Batcher, error) {
	r, ok := idx.(root)
	if !ok {
		return nil, fmt.Errorf("vectordb: batcher cannot wrap %T", idx)
	}
	if maxBatch < 2 {
		return nil, fmt.Errorf("vectordb: batcher max batch %d must be >= 2", maxBatch)
	}
	if maxWait <= 0 {
		return nil, fmt.Errorf("vectordb: batcher max wait %v must be positive", maxWait)
	}
	b := &Batcher{
		idx:      r,
		maxBatch: maxBatch,
		maxWait:  maxWait,
		reqs:     make(chan *batchReq),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go b.dispatch()
	return b, nil
}

// Close stops the dispatcher. Queries in flight complete; later
// TopK/TopKDiverse calls serve directly through the wrapped store.
// Idempotent.
func (b *Batcher) Close() {
	select {
	case <-b.stop:
	default:
		close(b.stop)
	}
	<-b.done
}

// Unwrap returns the wrapped Index (used by AsSharded to reach the
// sharded store through decorator layers).
func (b *Batcher) Unwrap() Index { return b.idx }

// Stats returns a snapshot of batch-formation counters.
func (b *Batcher) Stats() BatcherStats {
	st := BatcherStats{
		Batches:    b.batches.Load(),
		Queries:    b.queries.Load(),
		FlushIdle:  b.flushIdle.Load(),
		FlushSize:  b.flushSize.Load(),
		FlushTimer: b.flushTimer.Load(),
	}
	if st.Batches > 0 {
		st.MeanOccupancy = float64(st.Queries) / float64(st.Batches)
	}
	return st
}

// AsSharded unwraps decorator layers (Batcher, and any future wrapper
// exposing Unwrap() Index) down to the sharded store, if one is at the
// bottom. The daemon's tuning/metrics surfaces use it to reach
// Sharded-only knobs through a batched index.
func AsSharded(idx Index) (*Sharded, bool) {
	for idx != nil {
		switch v := idx.(type) {
		case *Sharded:
			return v, true
		case interface{ Unwrap() Index }:
			idx = v.Unwrap()
		default:
			return nil, false
		}
	}
	return nil, false
}

// dispatch is the collector loop: receive one query, drain any
// already-blocked companions, then either serve immediately (idle fast
// path, occupancy 1), flush at maxBatch, or hold the window open up to
// maxWait.
func (b *Batcher) dispatch() {
	defer close(b.done)
	for {
		select {
		case <-b.stop:
			return
		case r := <-b.reqs:
			batch := b.collect(r)
			b.execute(batch)
		}
	}
}

// collect assembles one flush window starting from the first received
// query and accounts the flush reason.
func (b *Batcher) collect(first *batchReq) []*batchReq {
	batch := append(make([]*batchReq, 0, b.maxBatch), first)
	// Drain companions already blocked on send — callers that arrived
	// while the previous batch executed.
drain:
	for len(batch) < b.maxBatch {
		select {
		case r := <-b.reqs:
			batch = append(batch, r)
		default:
			break drain
		}
	}
	switch {
	case len(batch) == b.maxBatch:
		b.flushSize.Add(1)
	case len(batch) == 1:
		// Idle: nobody else is waiting — serve now rather than holding a
		// lone query hostage to the window timer.
		b.flushIdle.Add(1)
	default:
		// Partial window: hold it open for up to maxWait from now.
		timer := time.NewTimer(b.maxWait)
	fill:
		for len(batch) < b.maxBatch {
			select {
			case r := <-b.reqs:
				batch = append(batch, r)
			case <-timer.C:
				break fill
			}
		}
		if len(batch) == b.maxBatch {
			timer.Stop()
			b.flushSize.Add(1)
		} else {
			b.flushTimer.Add(1)
		}
	}
	b.batches.Add(1)
	b.queries.Add(int64(len(batch)))
	return batch
}

// execute serves one flush: a single query goes straight through the
// wrapped TopK/TopKDiverse (identical code path to unbatched serving), a
// real batch through TopKBatch with per-query results fanned back out.
func (b *Batcher) execute(batch []*batchReq) {
	if len(batch) == 1 {
		r := batch[0]
		r.out <- b.serveDirect(r.q)
		return
	}
	queries := make([]BatchQuery, len(batch))
	for i, r := range batch {
		queries[i] = r.q
	}
	out, err := b.idx.TopKBatch(queries)
	for i, r := range batch {
		if err != nil {
			r.out <- batchResp{err: err}
		} else {
			r.out <- batchResp{scs: out[i]}
		}
	}
}

func (b *Batcher) serveDirect(q BatchQuery) batchResp {
	scs, err := b.idx.search(q)
	return batchResp{scs: scs, err: err}
}

// search implements root: it routes one query — its namespace scope
// riding along, so co-tenant queries coalesce too — through the
// collector, falling back to direct serving once the batcher is closed.
func (b *Batcher) search(q BatchQuery) ([]Scored, error) {
	r := &batchReq{q: q, out: make(chan batchResp, 1)}
	select {
	case b.reqs <- r:
		resp := <-r.out
		return resp.scs, resp.err
	case <-b.done:
		resp := b.serveDirect(q)
		return resp.scs, resp.err
	}
}

// TopK serves through the micro-batching collector; results are
// bit-identical to the wrapped store's TopK (see the TopKBatch contract).
func (b *Batcher) TopK(query []float64, qt time.Time, k int, alpha float64) ([]Scored, error) {
	return b.search(BatchQuery{Vector: query, Time: qt, K: k, Alpha: alpha})
}

// TopKDiverse serves through the micro-batching collector; results are
// bit-identical to the wrapped store's TopKDiverse.
func (b *Batcher) TopKDiverse(query []float64, qt time.Time, k int, alpha float64) ([]Scored, error) {
	return b.search(BatchQuery{Vector: query, Time: qt, K: k, Alpha: alpha, Diverse: true})
}

// TopKBatch passes an already-formed batch straight through to the
// wrapped store — callers that batch at the source skip the collector.
func (b *Batcher) TopKBatch(queries []BatchQuery) ([][]Scored, error) {
	return b.idx.TopKBatch(queries)
}

// Dim returns the wrapped store's vector dimensionality.
func (b *Batcher) Dim() int { return b.idx.Dim() }

// Len returns the wrapped store's entry count.
func (b *Batcher) Len() int { return b.idx.Len() }

// Add stores an entry in the wrapped store.
func (b *Batcher) Add(e Entry) error { return b.idx.Add(e) }

// Get returns the entry with the given ID from the wrapped store.
func (b *Batcher) Get(id string) (Entry, bool) { return b.idx.Get(id) }

// Categories returns the wrapped store's sorted distinct categories.
func (b *Batcher) Categories() []incident.Category { return b.idx.Categories() }

// tally implements root over the wrapped store.
func (b *Batcher) tally(sc scope, cats map[incident.Category]int) int { return b.idx.tally(sc, cats) }

// Namespace returns a view of the batched store scoped to ns: its TopK
// and TopKDiverse still coalesce through the shared collector (the scope
// rides on each BatchQuery), so co-tenant queries amortize the same row
// streams.
func (b *Batcher) Namespace(ns string) Index { return view{b, ns} }
