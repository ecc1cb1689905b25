package vectordb

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// DefaultOverfetch is the candidate over-fetch factor the quantized stage
// uses when EnableQuantized is called with 0: each probed shard's int8
// scan keeps k×4 candidates for the full-precision re-rank.
const DefaultOverfetch = 4

// quantSidecar is a shard's int8 scalar-quantized copy of its columnar
// vector backing: one code per float, row-major in the same order as
// shard.vecs, plus the per-dimension affine parameters that map codes
// back to values (code = round((v − offset[d]) / scale[d]) − 128,
// trained from the shard's own per-dimension value range). The scan walks
// codes instead of floats — 8× less memory traffic per lane and a pure
// widening-multiply inner loop — and days carries each row's timestamp so
// the temporal-decay term needs no Entry access per row.
//
// Candidate ranking accumulates Σ w[d]·(Δcode)² in integers, where the
// per-dimension weight w[d] ≈ weightResolution·(scale[d]/s₀)² folds each
// dimension's code step back into the shared metric (s₀ is the smallest
// nonzero step) — so the approximate distance tracks the true Euclidean
// distance up to quantization noise and ~1% weight rounding, while the
// inner loop stays pure widening-multiply integer arithmetic. The
// overfetched candidate set plus the exact re-rank absorb what little
// rank distortion remains, and the recall-floor benchmarks pin it.
//
// The sidecar is derived state: never serialized (Load rebuilds it),
// rebuilt wholesale on Rebalance/TrainIVF, and maintained incrementally
// on Add — an out-of-range insert clamps into the trained range and flags
// an asynchronous rescale (Sharded.scheduleRescale).
type quantSidecar struct {
	scale  []float64 // per-dim code step ((max−min)/255); 0 for constant dims
	offset []float64 // per-dim range minimum
	inv    []float64 // per-dim 1/scale; 0 for constant dims
	w      []int64   // per-dim integer metric weight; 0 for constant dims
	unit   float64   // distance per unit of sqrt(acc): s₀/sqrt(weightResolution)
	codes  []int8    // row-major codes, parallel to shard.vecs
	days   []float64 // per-row entry time in days since the Unix epoch
	s2     []int64   // per-row Σ w[d]·code², the row's half of the expanded metric
}

// weightResolution is the integer resolution of the per-dimension metric
// weights: w[d] = round(weightResolution·(scale[d]/s₀)²), bounding the
// weight rounding error at 1/(2·weightResolution).
const weightResolution = 64

// maxWeight caps a single dimension's weight so pathological scale ratios
// cannot overflow the int64 accumulator (dim·255²·maxWeight stays far
// below 2⁶³ for any realistic dimensionality); ranking quality for such a
// shard degrades toward the re-rank, never correctness.
const maxWeight = 1 << 32

// daysOf is an entry (or query) timestamp on the sidecar's day axis.
func daysOf(t time.Time) float64 { return float64(t.Unix()) / 86400 }

// buildSidecar trains a fresh sidecar from a shard's current contents:
// per-dimension range from the data, then every row encoded. Caller holds
// the shard lock (or owns the shard exclusively).
func buildSidecar(dim int, entries []Entry, vecs []float64) *quantSidecar {
	q := &quantSidecar{
		scale:  make([]float64, dim),
		offset: make([]float64, dim),
		inv:    make([]float64, dim),
	}
	n := len(entries)
	if n > 0 {
		lo := append([]float64(nil), vecs[:dim]...)
		hi := append([]float64(nil), vecs[:dim]...)
		for i := 1; i < n; i++ {
			row := vecs[i*dim : (i+1)*dim]
			for d, v := range row {
				if v < lo[d] {
					lo[d] = v
				}
				if v > hi[d] {
					hi[d] = v
				}
			}
		}
		for d := range q.scale {
			q.offset[d] = lo[d]
			if s := (hi[d] - lo[d]) / 255; s > 0 {
				q.scale[d] = s
				q.inv[d] = 1 / s
			}
		}
	}
	var s0 float64 // smallest nonzero per-dim step: the metric reference
	for _, s := range q.scale {
		if s > 0 && (s0 == 0 || s < s0) {
			s0 = s
		}
	}
	if s0 == 0 {
		// Empty shard or every dimension constant: any positive unit keeps
		// the (all-zero) code distance well-defined.
		s0 = 1
	}
	q.unit = s0 / math.Sqrt(weightResolution)
	q.w = make([]int64, dim)
	for d, s := range q.scale {
		if s <= 0 {
			continue
		}
		r := s / s0
		w := int64(math.Round(weightResolution * r * r))
		if w > maxWeight {
			w = maxWeight
		}
		q.w[d] = w
	}
	q.codes = make([]int8, 0, n*dim)
	q.days = make([]float64, 0, n)
	q.s2 = make([]int64, 0, n)
	for i := 0; i < n; i++ {
		q.encode(vecs[i*dim:(i+1)*dim], entries[i].Time)
	}
	return q
}

// encode appends one row's codes (and its day stamp), reporting whether
// any value fell outside the trained range and had to clamp — the signal
// that the sidecar's parameters no longer cover the shard and a rescale
// should be scheduled. Caller holds the shard lock.
func (q *quantSidecar) encode(vec []float64, t time.Time) (clamped bool) {
	var s2 int64
	for d, v := range vec {
		var c float64
		if q.inv[d] != 0 {
			c = math.Round((v - q.offset[d]) * q.inv[d])
		} else if v != q.offset[d] {
			// A dimension trained constant just saw a second value: the zero
			// scale cannot represent it.
			clamped = true
		}
		if c < 0 {
			c, clamped = 0, true
		} else if c > 255 {
			c, clamped = 255, true
		}
		code := int64(int(c) - 128)
		s2 += q.w[d] * code * code
		q.codes = append(q.codes, int8(code))
	}
	q.days = append(q.days, daysOf(t))
	q.s2 = append(q.s2, s2)
	return clamped
}

// encodeQuery maps a query vector into the sidecar's code space, clamped
// into the trained range (a query is never a reason to rescale).
func (q *quantSidecar) encodeQuery(query []float64) []int64 {
	out := make([]int64, len(query))
	for d, v := range query {
		var c float64
		if q.inv[d] != 0 {
			c = math.Round((v - q.offset[d]) * q.inv[d])
		}
		if c < 0 {
			c = 0
		} else if c > 255 {
			c = 255
		}
		out[d] = int64(c) - 128
	}
	return out
}

// qCand is one first-stage candidate: a row index and its approximate
// similarity. Ties rank the lower row index higher, which is a
// deterministic order for any fixed insert sequence.
type qCand struct {
	idx int
	sim float64
}

// qHeap is the bounded worst-first min-heap of the candidate stage —
// same streaming-selection shape as worstFirst, over row indices instead
// of materialized entries.
type qHeap []qCand

func (h qHeap) Len() int { return len(h) }
func (h qHeap) Less(i, j int) bool {
	if h[i].sim != h[j].sim {
		return h[i].sim < h[j].sim
	}
	return h[i].idx > h[j].idx
}
func (h qHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *qHeap) Push(x any)   { *h = append(*h, x.(qCand)) }
func (h *qHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// offer streams one candidate into the bounded heap of capacity cap.
func (h *qHeap) offer(c qCand, cap int) {
	if len(*h) < cap {
		heap.Push(h, c)
	} else if r := (*h)[0]; r.sim < c.sim || (r.sim == c.sim && r.idx > c.idx) {
		(*h)[0] = c
		heap.Fix(h, 0)
	}
}

// fastExp is Schraudolph's IEEE-754 exponential approximation: a linear
// map into the float64 bit pattern, ~2% maximum relative error and
// monotone over the decay range. The candidate stage uses it in place of
// math.Exp — stage-one scores only pick which rows reach the exact
// re-rank, which recomputes the true similarity, so approximation error
// here costs (bounded, benchmarked) recall, never ranking correctness of
// the final results.
func fastExp(x float64) float64 {
	if x < -500 {
		return 0 // exp(-500) ~ 7e-218: below any similarity that could rank
	}
	return math.Float64frombits(uint64(int64(1512775.3951951856*x) + 4607182418800017408))
}

// scanQuantized is the first stage: walk the shard's int8 rows and keep
// the `want` rows with the best approximate similarity. The weighted code
// distance Σ w[d]·(Δcode)² is expanded as s2[row] + q2 − 2·Σ wq[d]·code —
// the per-row half (s2) is precomputed at encode time and the per-query
// half (wq, q2) is hoisted out of the loop, so the inner loop is a single
// widening multiply-accumulate per dimension, all exact integer
// arithmetic. The per-row epilogue is one sqrt + fast-exp; the
// approximate similarity reuses the exact form 1/(1+d̂)·e^(−α·Δt) so the
// distance-vs-recency blend matches the re-rank's, and the division is
// deferred behind a cross-multiplied threshold check
// (decay > thr·(1+d̂) ⇔ sim > thr), so rows that cannot displace the kept
// candidates cost no divide. Caller holds sh.mu and has checked the
// sidecar is in sync with the entries.
func (sh *shard) scanQuantized(q *quantSidecar, query []float64, qt time.Time, want int, alpha float64, ns scope) qHeap {
	qq := q.encodeQuery(query)
	qdays := daysOf(qt)
	dim := sh.dim
	wq := make([]int64, dim)
	var q2 int64
	for d, c := range qq[:dim] {
		wq[d] = q.w[d] * c
		q2 += wq[d] * c
	}
	cands := make(qHeap, 0, min(want, len(sh.entries))+1)
	thr := math.Inf(-1)
	for i := range sh.entries {
		if !ns.match(sh.entries[i].Namespace) {
			continue
		}
		row := q.codes[i*dim : i*dim+dim]
		var dot int64
		for d, c := range row {
			dot += wq[d] * int64(c)
		}
		acc := q.s2[i] + q2 - 2*dot
		dist := q.unit * math.Sqrt(float64(acc))
		dt := qdays - q.days[i]
		if dt < 0 {
			dt = -dt
		}
		decay := fastExp(-alpha * dt)
		if decay <= thr*(1+dist) {
			continue // cannot displace the worst kept candidate (ties lose to the earlier row)
		}
		cands.offer(qCand{idx: i, sim: decay / (1 + dist)}, want)
		if len(cands) == want {
			thr = cands[0].sim
		}
	}
	return cands
}

// topKQuantized is the shard's two-stage probe scan for TopK; see
// twoStageLocked.
func (sh *shard) topKQuantized(query []float64, qt time.Time, k, overfetch int, alpha float64, ns scope) []Scored {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.twoStageLocked(query, qt, k, overfetch, alpha, ns, false)
}

// categoryBestQuantized is the two-stage form of categoryBest; see
// twoStageLocked.
func (sh *shard) categoryBestQuantized(query []float64, qt time.Time, k, overfetch int, alpha float64, ns scope) []Scored {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.twoStageLocked(query, qt, k, overfetch, alpha, ns, true)
}

// twoStageLocked is the shard's two-stage probe scan under a caller-held
// shard lock: the int8 stage collects k×overfetch candidates, then each
// candidate is re-scored against the full-precision backing under the
// exact similarity — the best k win for a plain query, the k best
// categories over the candidate set for a diverse one.
// When the candidate budget covers the whole shard the result is
// identical to the exact scan — every row is a candidate and the re-rank
// IS the exact scan — which is the property the fuzz oracle pins. A shard
// whose sidecar is missing or momentarily out of sync (EnableQuantized
// racing an Add) serves full precision instead.
func (sh *shard) twoStageLocked(query []float64, qt time.Time, k, overfetch int, alpha float64, ns scope, diverse bool) []Scored {
	q := sh.quant
	if q == nil || len(q.codes) != len(sh.entries)*sh.dim {
		if diverse {
			return sh.categoryBestLocked(query, qt, k, alpha, ns)
		}
		return sh.topKLocked(query, qt, k, alpha, ns)
	}
	// A k beyond the shard's rows keeps every row a candidate either way;
	// capping it first keeps k×overfetch from overflowing.
	cands := sh.scanQuantized(q, query, qt, min(k, len(sh.entries))*overfetch, alpha, ns)
	if diverse {
		b := newCatBest()
		for _, c := range cands {
			d, s := similarityAt(query, qt, sh.row(c.idx), sh.entries[c.idx].Time, alpha)
			e := &sh.entries[c.idx]
			b.offer(e.Category, e.ID, 0, c.idx, d, s)
		}
		return sh.materializeSlots(b.top(k))
	}
	h := newWorstFirst(k, len(cands))
	for _, c := range cands {
		d, s := similarityAt(query, qt, sh.row(c.idx), sh.entries[c.idx].Time, alpha)
		h.offer(Scored{Entry: sh.entries[c.idx], Distance: d, Similarity: s}, k)
	}
	for i := range h {
		h[i].Entry.Vector = append([]float64(nil), sh.row(sh.byID[h[i].Entry.ID])...)
	}
	return h.drain()
}

// rebuildQuant retrains the shard's sidecar from its current contents
// under the shard lock.
func (sh *shard) rebuildQuant() {
	sh.mu.Lock()
	sh.quant = buildSidecar(sh.dim, sh.entries, sh.vecs)
	sh.mu.Unlock()
}

// EnableQuantized builds the int8 scalar-quantized sidecar on every shard
// and turns on the two-stage probe scan: probe-limited queries walk int8
// rows, keep k×overfetch candidates per shard, and re-rank them at full
// precision (overfetch 0 selects DefaultOverfetch; negative values are
// rejected). Exact fan-out — probes off, rebalance draining, forced-exact
// shadow queries — always reads the float backing, so exact results stay
// bit-identical to the flat store whether or not quantization is on.
// Sidecars track Adds incrementally, retrain on Rebalance/TrainIVF/Load,
// and an out-of-range insert clamps and schedules an asynchronous
// per-shard rescale. Idempotent; safe to call on a serving store.
func (s *Sharded) EnableQuantized(overfetch int) error {
	if overfetch < 0 {
		return fmt.Errorf("vectordb: negative overfetch %d (use 0 for the default %d×)", overfetch, DefaultOverfetch)
	}
	if overfetch == 0 {
		overfetch = DefaultOverfetch
	}
	s.overfetch.Store(int64(overfetch))
	s.mu.RLock()
	defer s.mu.RUnlock()
	draining, current := s.liveShards()
	for _, sh := range append(append([]*shard(nil), draining...), current...) {
		sh.rebuildQuant()
	}
	s.quantized.Store(true)
	return nil
}

// DisableQuantized turns the two-stage scan off and frees the sidecars.
func (s *Sharded) DisableQuantized() {
	s.quantized.Store(false)
	s.mu.RLock()
	defer s.mu.RUnlock()
	draining, current := s.liveShards()
	for _, sh := range append(append([]*shard(nil), draining...), current...) {
		sh.mu.Lock()
		sh.quant = nil
		sh.mu.Unlock()
	}
}

// QuantizedEnabled reports whether the two-stage quantized probe scan is
// on.
func (s *Sharded) QuantizedEnabled() bool { return s.quantized.Load() }

// maxEscalatedOverfetch caps tuner-driven overfetch escalation: past this
// the candidate stage re-ranks so much of each shard that the two-stage
// scan has no advantage over the exact one.
const maxEscalatedOverfetch = 64

// escalateOverfetch doubles the quantized candidate pool, capped at
// maxEscalatedOverfetch — the recall-SLO tuner's second knob, pulled when
// the next probe grow would mean full fan-out and shadow recall still
// misses the target (at that point the loss is quantization rank noise
// inside the probed shards, which more probes cannot fix but a wider
// re-rank pool can). Reports whether the pool actually widened.
func (s *Sharded) escalateOverfetch() bool {
	if !s.quantized.Load() {
		return false
	}
	for {
		cur := s.overfetch.Load()
		if cur <= 0 {
			cur = DefaultOverfetch
		}
		if cur >= maxEscalatedOverfetch {
			return false
		}
		next := min(cur*2, maxEscalatedOverfetch)
		if s.overfetch.CompareAndSwap(cur, next) {
			return true
		}
	}
}

// escalateOverfetchNS is escalateOverfetch against one namespace's own
// candidate pool (its recall-SLO controller's second knob): the
// namespace's factor starts at the root's effective value and doubles
// independently, capped at maxEscalatedOverfetch, without touching any
// co-tenant's pool. nil st escalates the root pool.
func (s *Sharded) escalateOverfetchNS(st *nsState) bool {
	if st == nil {
		return s.escalateOverfetch()
	}
	if !s.quantized.Load() {
		return false
	}
	for {
		raw := st.overfetch.Load()
		eff := raw
		if eff <= 0 {
			eff = int64(s.Overfetch())
		}
		if eff >= maxEscalatedOverfetch {
			return false
		}
		next := min(eff*2, maxEscalatedOverfetch)
		if st.overfetch.CompareAndSwap(raw, next) {
			return true
		}
	}
}

// Overfetch returns the candidate over-fetch factor of the quantized
// stage (DefaultOverfetch until EnableQuantized sets one).
func (s *Sharded) Overfetch() int {
	if v := int(s.overfetch.Load()); v > 0 {
		return v
	}
	return DefaultOverfetch
}

// QuantizedScans returns how many queries the quantized two-stage path
// has served.
func (s *Sharded) QuantizedScans() int { return int(s.qScans.Load()) }

// Rescales returns how many asynchronous sidecar rescales clamped inserts
// have triggered.
func (s *Sharded) Rescales() int { return int(s.rescales.Load()) }

// scheduleRescale retrains one shard's sidecar off the insert path after
// a clamped encode. At most one rescale per shard is scheduled at a time;
// the flag re-arms before the rebuild runs, so a clamp landing mid-rebuild
// schedules a fresh pass instead of being absorbed into a stale one.
func (s *Sharded) scheduleRescale(sh *shard) {
	if !sh.rescale.CompareAndSwap(false, true) {
		return
	}
	s.quantWG.Add(1)
	go func() {
		defer s.quantWG.Done()
		sh.rescale.Store(false)
		sh.mu.Lock()
		if sh.quant != nil {
			sh.quant = buildSidecar(sh.dim, sh.entries, sh.vecs)
			s.rescales.Add(1)
		}
		sh.mu.Unlock()
	}()
}

// rebuildQuantSidecars retrains every current-generation sidecar — the
// post-Rebalance/TrainIVF hook that re-derives quantization ranges from
// the new shard contents.
func (s *Sharded) rebuildQuantSidecars() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, sh := range s.gen.shard {
		sh.rebuildQuant()
	}
}

// quiesceRescales blocks until every scheduled sidecar rescale has
// completed — the barrier tests use before asserting on sidecar state.
func (s *Sharded) quiesceRescales() { s.quantWG.Wait() }
