package vectordb

import (
	"fmt"
	"math"
	"time"

	"repro/internal/parallel"
)

// BatchQuery is one query of a TopKBatch call. Each query carries its own
// anchor time, k, decay coefficient, and diversity flag, so one batch can
// mix heterogeneous retrievals (the daemon's micro-batcher coalesces
// whatever arrives).
type BatchQuery struct {
	Vector []float64
	Time   time.Time
	K      int
	Alpha  float64
	// Diverse applies the §4.2.2 category-diversity constraint (each
	// category at most once), i.e. the query behaves like TopKDiverse
	// instead of TopK.
	Diverse bool
	// Namespace + Scoped pin the query to one namespace view: when Scoped
	// is set the query sees only entries tagged Namespace (Namespace = ""
	// meaning the default namespace), exactly like TopK through
	// Index.Namespace. Scoped=false (the zero value) is the unscoped root
	// query over every entry — the pre-namespace behavior.
	Namespace string
	Scoped    bool
}

// bqScope is the query's namespace filter in scan-scope form.
func bqScope(bq *BatchQuery) scope { return scope{on: bq.Scoped, ns: bq.Namespace} }

// scopedQueries clones a batch with every member pinned to one namespace
// view's scope — how a view scopes a whole batch.
func scopedQueries(queries []BatchQuery, ns string) []BatchQuery {
	out := make([]BatchQuery, len(queries))
	copy(out, queries)
	for i := range out {
		out[i].Namespace = ns
		out[i].Scoped = true
	}
	return out
}

// TopKBatch on the flat store: one shared-row batch scan of its shard
// serving every query at full precision, with results bit-identical to
// issuing the queries sequentially.
func (db *DB) TopKBatch(queries []BatchQuery) ([][]Scored, error) {
	all := make([]int, len(queries))
	for i := range queries {
		if err := checkQuery(db.sh.dim, queries[i].Vector, queries[i].K); err != nil {
			return nil, fmt.Errorf("vectordb: batch query %d: %w", i, err)
		}
		all[i] = i
	}
	res := db.sh.scanBatch(queries, all, nil, nil)
	out := make([][]Scored, len(queries))
	for i := range out {
		out[i] = res[i]
	}
	return out, nil
}

// shardScanResult carries one shard's per-query local results back to the
// batch merge, keyed by batch index: the bounded top k for a plain query,
// the k best categories for a diverse one, best first either way.
type shardScanResult map[int][]Scored

// scanBatch serves a set of queries from one shard visit under a single
// shard lock: floatQ are scanned at full precision in one pass over the
// columnar float rows, every member query scoring each row; quantQ each
// run the per-query two-stage scan (twoStageLocked) with the candidate
// pool k times ofs[qi], the query's own overfetch factor (co-batched
// tenants can carry different factors). Namespace-scoped queries skip
// rows outside their namespace, exactly like the sequential scoped scans.
// Per-query decisions — threshold pre-checks, candidate heaps,
// tie-breaks — replicate the sequential single-query scans exactly, so
// each query's local result is bit-identical to what
// topK/categoryBest/topKQuantized/categoryBestQuantized would have
// returned for it.
func (sh *shard) scanBatch(queries []BatchQuery, floatQ, quantQ []int, ofs []int) shardScanResult {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	res := make(shardScanResult, len(floatQ)+len(quantQ))
	if len(floatQ) > 0 {
		sh.scanBatchFloat(queries, floatQ, res)
	}
	for _, qi := range quantQ {
		bq := &queries[qi]
		res[qi] = sh.twoStageLocked(bq.Vector, bq.Time, bq.K, ofs[qi], bq.Alpha, bqScope(bq), bq.Diverse)
	}
	return res
}

// scanBatchFloat is the full-precision half of scanBatch: one walk of the
// columnar rows, every member query maintaining its own bounded heap (or
// category slots) with the same pre-checks as the sequential scan, and
// each decay group a decay gate. Caller holds sh.mu.
func (sh *shard) scanBatchFloat(queries []BatchQuery, floatQ []int, res shardScanResult) {
	heaps := make([]worstFirst, len(floatQ))
	bests := make([]catBest, len(floatQ))
	// floors[j] is member j's accumulator floor (worstFirst.floor,
	// catBest.floor): a row whose decay is below it cannot enter.
	floors := make([]float64, len(floatQ))
	// Queries with an identical (Time, Alpha) pair — a flush anchored at
	// one clock reading — share every row's decay factor, so group them
	// and compute exp(-α·Δt) once per row per group instead of once per
	// row per query. similarityAt's 1/(1+dist)·exp(−α·days) is the same
	// two-operand product either way (struct-equal Times subtract
	// identically), so grouping cannot change a bit of any result. The
	// group's decay gate, driven by its members' lowest floor, skips a row
	// no member can take before the Exp.
	type groupKey struct {
		t     time.Time
		alpha float64
	}
	type decayGroup struct {
		qt      time.Time
		alpha   float64
		members []int // indices into floatQ
		gate    decayGate
	}
	var groups []*decayGroup
	byKey := make(map[groupKey]*decayGroup, len(floatQ))
	for j, qi := range floatQ {
		if queries[qi].Diverse {
			bests[j] = newCatBest()
		} else {
			heaps[j] = newWorstFirst(queries[qi].K, len(sh.entries))
		}
		gk := groupKey{queries[qi].Time, queries[qi].Alpha}
		g := byKey[gk]
		if g == nil {
			g = &decayGroup{qt: queries[qi].Time, alpha: queries[qi].Alpha, gate: newDecayGate(queries[qi].Time, queries[qi].Alpha)}
			byKey[gk] = g
			groups = append(groups, g)
		}
		g.members = append(g.members, j)
	}
	// commit applies one scored row to member j with the exact sequential
	// pre-check and tie-break, and records a floor that rose.
	rose := false
	commit := func(i, j int, dist, decay float64) {
		sim := 1 / (1 + dist) * decay
		bq := &queries[floatQ[j]]
		if bq.Diverse {
			e := &sh.entries[i]
			bests[j].offer(e.Category, e.ID, 0, i, dist, sim)
			if f := bests[j].floor(bq.K); f > floors[j] {
				floors[j], rose = f, true
			}
			return
		}
		h := &heaps[j]
		if len(*h) == bq.K {
			if r := &(*h)[0]; r.Similarity > sim || (r.Similarity == sim && r.Entry.ID < sh.entries[i].ID) {
				return
			}
		}
		h.offer(Scored{Entry: sh.entries[i], Distance: dist, Similarity: sim}, bq.K)
		if f := h.floor(bq.K); f > floors[j] {
			floors[j], rose = f, true
		}
	}
	pend := make([]int, 0, len(floatQ))
	for i := range sh.entries {
		row := sh.row(i)
		e := &sh.entries[i]
		sec := e.Time.Unix()
		for _, g := range groups {
			if g.gate.skip(sec) {
				continue
			}
			days := math.Abs(g.qt.Sub(e.Time).Hours()) / 24
			decay := math.Exp(-g.alpha * days)
			pend = pend[:0]
			for _, j := range g.members {
				bq := &queries[floatQ[j]]
				if bq.Scoped && bq.Namespace != e.Namespace {
					continue
				}
				if decay < floors[j] {
					// sim = decay/(1+dist) <= decay: this row cannot
					// enter the member's accumulator, skip the dot.
					continue
				}
				pend = append(pend, j)
			}
			// Distances for the row's contenders, four queries per pass:
			// the four accumulator chains are independent, so the CPU
			// overlaps the additions a lone Distance call serializes.
			// Each chain keeps Distance's dimension order, so every
			// query's value is bit-identical to its scalar scan.
			base := 0
			for ; base+4 <= len(pend); base += 4 {
				j0, j1, j2, j3 := pend[base], pend[base+1], pend[base+2], pend[base+3]
				d0, d1, d2, d3 := distance4(
					queries[floatQ[j0]].Vector, queries[floatQ[j1]].Vector,
					queries[floatQ[j2]].Vector, queries[floatQ[j3]].Vector, row)
				commit(i, j0, d0, decay)
				commit(i, j1, d1, decay)
				commit(i, j2, d2, decay)
				commit(i, j3, d3, decay)
			}
			for _, j := range pend[base:] {
				commit(i, j, Distance(queries[floatQ[j]].Vector, row), decay)
			}
			if rose {
				// Lift the group's gate to its members' lowest floor.
				rose = false
				low := floors[g.members[0]]
				for _, j := range g.members[1:] {
					low = min(low, floors[j])
				}
				g.gate.raise(low)
			}
		}
	}
	for j, qi := range floatQ {
		if queries[qi].Diverse {
			res[qi] = sh.materializeSlots(bests[j].top(queries[qi].K))
			continue
		}
		h := &heaps[j]
		for i := range *h {
			(*h)[i].Entry.Vector = append([]float64(nil), sh.row(sh.byID[(*h)[i].Entry.ID])...)
		}
		res[qi] = h.drain()
	}
}

// distance4 computes four queries' Euclidean distances to one row in a
// single pass over the dimensions. Each accumulator sums in exactly
// Distance's order — the four chains are merely independent, letting the
// CPU pipeline additions that a scalar call serializes — so every result
// is bit-identical to Distance on the same pair.
func distance4(a0, a1, a2, a3, row []float64) (d0, d1, d2, d3 float64) {
	var s0, s1, s2, s3 float64
	for i := range row {
		r := row[i]
		t0 := a0[i] - r
		s0 += t0 * t0
		t1 := a1[i] - r
		s1 += t1 * t1
		t2 := a2[i] - r
		s2 += t2 * t2
		t3 := a3[i] - r
		s3 += t3 * t3
	}
	return math.Sqrt(s0), math.Sqrt(s1), math.Sqrt(s2), math.Sqrt(s3)
}

// shardScan is one shard's work item in a batch: the queries that consume
// it, split by scan mode.
type shardScan struct {
	sh     *shard
	floatQ []int
	quantQ []int
}

// TopKBatch executes a batch of queries with results bit-identical to
// issuing each query sequentially through TopK/TopKDiverse: probe
// selection runs per query against the same ranking, shards are visited
// in the union of the per-query selections, and each probed shard is
// visited ONCE for all the queries that selected it — its columnar float
// rows stream once for every full-precision member, the way a blocked
// matmul amortizes operand loads, while quantized members run their own
// two-stage scan within the same shard visit. Each query consumes rows
// only from shards its own budget selected. With a rebalance in flight
// every query fans out exactly over both generations, the draining shards
// merged before the current ones and duplicates collapsed by ID — the
// same no-miss/no-double-count argument as the sequential mid-rebalance
// path.
func (s *Sharded) TopKBatch(queries []BatchQuery) ([][]Scored, error) {
	for i := range queries {
		if err := checkQuery(s.dim, queries[i].Vector, queries[i].K); err != nil {
			return nil, fmt.Errorf("vectordb: batch query %d: %w", i, err)
		}
	}
	out := make([][]Scored, len(queries))
	if len(queries) == 0 {
		return out, nil
	}
	s.batchQueries.Add(int64(len(queries)))

	s.mu.RLock()
	defer s.mu.RUnlock()
	draining, current := s.liveShards()

	// Per-query serving knobs: each query resolves its namespace's probe
	// budget, overfetch factor, and controller — unscoped and default-
	// namespace queries resolve to the root store's, the pre-namespace
	// behavior.
	nsSts := make([]*nsState, len(queries))
	ofs := make([]int, len(queries))
	for qi := range queries {
		nsSts[qi] = s.scopeNS(bqScope(&queries[qi]))
		ofs[qi] = s.overfetchFor(nsSts[qi])
	}

	var scans []*shardScan
	probed := make([]bool, len(queries))
	if draining != nil {
		all := make([]int, len(queries))
		for i := range all {
			all[i] = i
		}
		for _, sh := range append(append([]*shard(nil), draining...), current...) {
			scans = append(scans, &shardScan{sh: sh, floatQ: all})
		}
	} else {
		// Per-query probe selection (the same ranking sequential
		// probeShards uses), grouped into one scan per selected shard.
		quantOn := s.quantized.Load()
		scanFor := make(map[*shard]*shardScan)
		for qi := range queries {
			bq := &queries[qi]
			sel := s.probeShards(s.gen, bq.Vector, bq.Time, bq.Alpha, s.probesFor(nsSts[qi]))
			quant := false
			if sel == nil {
				sel = current
			} else {
				probed[qi], quant = true, quantOn
				if quant {
					s.noteQuantScan(nsSts[qi])
				}
			}
			for _, sh := range sel {
				sc := scanFor[sh]
				if sc == nil {
					sc = &shardScan{sh: sh}
					scanFor[sh] = sc
					scans = append(scans, sc)
				}
				if quant {
					sc.quantQ = append(sc.quantQ, qi)
				} else {
					sc.floatQ = append(sc.floatQ, qi)
				}
			}
		}
	}
	results, err := parallel.Map(len(scans), 0, func(i int) (shardScanResult, error) {
		return scans[i].sh.scanBatch(queries, scans[i].floatQ, scans[i].quantQ, ofs), nil
	})
	if err != nil {
		return nil, err
	}

	for qi := range queries {
		parts := make([][]Scored, len(results)) // draining shards first, then current
		for i, r := range results {
			parts[i] = r[qi]
		}
		if queries[qi].Diverse {
			out[qi] = mergeDiverse(parts, queries[qi].K)
		} else {
			out[qi] = mergeTopK(parts, queries[qi].K, draining != nil)
		}
	}
	if draining != nil {
		return out, nil
	}
	// Feed every batched query through the same shadow-sampling hook as
	// sequential serving — each into ITS namespace's controller — so every
	// tenant's observed recall measures the batched path end-to-end.
	for qi := range queries {
		if t := s.tunerFor(nsSts[qi]); t != nil {
			t.observeQuery(queries[qi].Vector, queries[qi].Time, queries[qi].K, queries[qi].Alpha,
				out[qi], probed[qi], queries[qi].Diverse, bqScope(&queries[qi]))
		}
	}
	return out, nil
}

// BatchQueries returns how many queries have been served through
// TopKBatch.
func (s *Sharded) BatchQueries() int { return int(s.batchQueries.Load()) }
