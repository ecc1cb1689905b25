package vectordb

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/incident"
)

// The exact scan loops as they ran before the decay gate: every row is
// scored. They are the reference the gated scans must reproduce bit for
// bit.

func ungatedDBTopK(db *DB, query []float64, qt time.Time, k int, alpha float64, ns scope) []Scored {
	db.sh.mu.RLock()
	defer db.sh.mu.RUnlock()
	h := make(worstFirst, 0, k+1)
	for i := range db.sh.entries {
		if !ns.match(db.sh.entries[i].Namespace) {
			continue
		}
		d, s := similarityAt(query, qt, db.sh.row(i), db.sh.entries[i].Time, alpha)
		if len(h) == k {
			if r := &h[0]; r.Similarity > s || (r.Similarity == s && r.Entry.ID < db.sh.entries[i].ID) {
				continue
			}
		}
		h.offer(Scored{Entry: db.sh.entries[i], Distance: d, Similarity: s}, k)
	}
	for i := range h {
		h[i].Entry.Vector = append([]float64(nil), db.sh.row(db.sh.byID[h[i].Entry.ID])...)
	}
	return h.drain()
}

func ungatedDBDiverse(db *DB, query []float64, qt time.Time, k int, alpha float64, ns scope) []Scored {
	db.sh.mu.RLock()
	defer db.sh.mu.RUnlock()
	b := newCatBest()
	for i := range db.sh.entries {
		e := &db.sh.entries[i]
		if !ns.match(e.Namespace) {
			continue
		}
		d, s := similarityAt(query, qt, db.sh.row(i), e.Time, alpha)
		b.offer(e.Category, e.ID, 0, i, d, s)
	}
	return db.sh.materializeSlots(b.top(k))
}

func ungatedDBBatch(db *DB, queries []BatchQuery) [][]Scored {
	out := make([][]Scored, len(queries))
	for i := range queries {
		bq := &queries[i]
		if bq.Diverse {
			out[i] = ungatedDBDiverse(db, bq.Vector, bq.Time, bq.K, bq.Alpha, bqScope(bq))
		} else {
			out[i] = ungatedDBTopK(db, bq.Vector, bq.Time, bq.K, bq.Alpha, bqScope(bq))
		}
	}
	return out
}

func ungatedShardTopK(sh *shard, query []float64, qt time.Time, k int, alpha float64, ns scope) []Scored {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	h := make(worstFirst, 0, k+1)
	for i := range sh.entries {
		if !ns.match(sh.entries[i].Namespace) {
			continue
		}
		d, s := similarityAt(query, qt, sh.row(i), sh.entries[i].Time, alpha)
		if len(h) == k {
			if r := &h[0]; r.Similarity > s || (r.Similarity == s && r.Entry.ID < sh.entries[i].ID) {
				continue
			}
		}
		h.offer(Scored{Entry: sh.entries[i], Distance: d, Similarity: s}, k)
	}
	for i := range h {
		h[i].Entry.Vector = append([]float64(nil), sh.row(sh.byID[h[i].Entry.ID])...)
	}
	return h.drain()
}

func ungatedShardCategoryBest(sh *shard, query []float64, qt time.Time, k int, alpha float64, ns scope) []Scored {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	b := newCatBest()
	for i := range sh.entries {
		e := &sh.entries[i]
		if !ns.match(e.Namespace) {
			continue
		}
		d, s := similarityAt(query, qt, sh.row(i), e.Time, alpha)
		b.offer(e.Category, e.ID, 0, i, d, s)
	}
	return sh.materializeSlots(b.top(k))
}

func ungatedInline(shards []*shard, query []float64, qt time.Time, k int, alpha float64, ns scope) []Scored {
	b := newCatBest()
	for si, sh := range shards {
		sh.mu.RLock()
		for i := range sh.entries {
			e := &sh.entries[i]
			if !ns.match(e.Namespace) {
				continue
			}
			d, sim := similarityAt(query, qt, sh.row(i), e.Time, alpha)
			b.offer(e.Category, e.ID, si, i, d, sim)
		}
		sh.mu.RUnlock()
	}
	win := b.top(k)
	out := make([]Scored, len(win))
	for j := range win {
		sh := shards[win[j].src]
		sh.mu.RLock()
		out[j] = win[j].scored(sh.entries[win[j].row], sh.row(win[j].row))
		sh.mu.RUnlock()
	}
	return out
}

// ungatedScanBatchFloat is the shared-row batch scan as it ran before the
// gate: per-group decay factor, decay pre-check and four-query distance
// chains, but no gate.
func ungatedScanBatchFloat(sh *shard, queries []BatchQuery, floatQ []int) shardScanResult {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	res := make(shardScanResult, len(floatQ))
	heaps := make([]worstFirst, len(floatQ))
	bests := make([]catBest, len(floatQ))
	// Queries with an identical (Time, Alpha) pair — a flush anchored at
	// one clock reading — share every row's decay factor, so group them
	// and compute exp(-α·Δt) once per row per group instead of once per
	// row per query. similarityAt's 1/(1+dist)·exp(−α·days) is the same
	// two-operand product either way (struct-equal Times subtract
	// identically), so grouping cannot change a bit of any result.
	type groupKey struct {
		t     time.Time
		alpha float64
	}
	type decayGroup struct {
		qt      time.Time
		alpha   float64
		members []int // indices into floatQ
	}
	var groups []*decayGroup
	byKey := make(map[groupKey]*decayGroup, len(floatQ))
	for j, qi := range floatQ {
		if queries[qi].Diverse {
			bests[j] = newCatBest()
		} else {
			heaps[j] = make(worstFirst, 0, queries[qi].K+1)
		}
		gk := groupKey{queries[qi].Time, queries[qi].Alpha}
		g := byKey[gk]
		if g == nil {
			g = &decayGroup{qt: queries[qi].Time, alpha: queries[qi].Alpha}
			byKey[gk] = g
			groups = append(groups, g)
		}
		g.members = append(g.members, j)
	}
	// commit applies one scored row to member j with the exact sequential
	// pre-check and tie-break.
	commit := func(i, j int, dist, decay float64) {
		sim := 1 / (1 + dist) * decay
		bq := &queries[floatQ[j]]
		if bq.Diverse {
			e := &sh.entries[i]
			bests[j].offer(e.Category, e.ID, 0, i, dist, sim)
			return
		}
		h := &heaps[j]
		if len(*h) == bq.K {
			if r := &(*h)[0]; r.Similarity > sim || (r.Similarity == sim && r.Entry.ID < sh.entries[i].ID) {
				return
			}
		}
		h.offer(Scored{Entry: sh.entries[i], Distance: dist, Similarity: sim}, bq.K)
	}
	pend := make([]int, 0, len(floatQ))
	for i := range sh.entries {
		row := sh.row(i)
		et := sh.entries[i].Time
		for _, g := range groups {
			days := math.Abs(g.qt.Sub(et).Hours()) / 24
			decay := math.Exp(-g.alpha * days)
			pend = pend[:0]
			for _, j := range g.members {
				bq := &queries[floatQ[j]]
				if bq.Scoped && bq.Namespace != sh.entries[i].Namespace {
					continue
				}
				if !bq.Diverse {
					if h := &heaps[j]; len(*h) == bq.K && decay < (*h)[0].Similarity {
						// sim = decay/(1+dist) <= decay: this row cannot
						// displace the worst kept one, skip the dot.
						continue
					}
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
	return res
}

// The sharded store's exact public paths composed from the ungated
// per-shard scans and the unchanged merges: TopK's heap merge,
// TopKDiverse's inline scan or fan-out merge, and TopKBatch's per-query
// merge over one batch scan per shard. The store must be quiescent with
// exact serving (no probes, no rebalance).

func ungatedShardedTopK(s *Sharded, query []float64, qt time.Time, k int, alpha float64, sc scope) []Scored {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h := make(worstFirst, 0, k+1)
	for _, sh := range s.gen.shard {
		for _, x := range ungatedShardTopK(sh, query, qt, k, alpha, sc) {
			h.offer(x, k)
		}
	}
	return h.drain()
}

func ungatedShardedDiverse(s *Sharded, query []float64, qt time.Time, k int, alpha float64, sc scope) []Scored {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.count.Load() <= diverseInlineMax {
		return ungatedInline(s.gen.shard, query, qt, k, alpha, sc)
	}
	var parts [][]Scored
	for _, sh := range s.gen.shard {
		parts = append(parts, ungatedShardCategoryBest(sh, query, qt, k, alpha, sc))
	}
	return mergeDiverse(parts, k)
}

func ungatedShardedBatch(s *Sharded, queries []BatchQuery) [][]Scored {
	s.mu.RLock()
	defer s.mu.RUnlock()
	all := make([]int, len(queries))
	for i := range all {
		all[i] = i
	}
	var results []shardScanResult
	for _, sh := range s.gen.shard {
		results = append(results, ungatedScanBatchFloat(sh, queries, all))
	}
	out := make([][]Scored, len(queries))
	for qi, bq := range queries {
		if bq.Diverse {
			parts := make([][]Scored, len(results))
			for i, r := range results {
				parts[i] = r[qi]
			}
			out[qi] = mergeDiverse(parts, bq.K)
			continue
		}
		h := make(worstFirst, 0, bq.K+1)
		for _, r := range results {
			for _, x := range r[qi] {
				h.offer(x, bq.K)
			}
		}
		out[qi] = h.drain()
	}
	return out
}

// sameBits requires identical IDs in identical order with bit-identical
// Distance and Similarity. Any NaN matches any NaN: which operand's
// payload a NaN·NaN product carries depends on the operand order the
// compiler picks (coverage-instrumented fuzz builds pick differently), and
// no comparison can tell NaNs apart.
func sameBits(t *testing.T, name string, got, want []Scored) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
	}
	bits := func(x float64) uint64 {
		if x != x {
			return math.Float64bits(math.NaN())
		}
		return math.Float64bits(x)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Entry.ID != w.Entry.ID ||
			bits(g.Distance) != bits(w.Distance) ||
			bits(g.Similarity) != bits(w.Similarity) {
			t.Fatalf("%s: rank %d: got %s (d=%v s=%v), want %s (d=%v s=%v)",
				name, i, g.Entry.ID, g.Distance, g.Similarity, w.Entry.ID, w.Distance, w.Similarity)
		}
	}
}

// gateCorpus generates n entries over a coarse vector grid (so many rows
// tie exactly on similarity) in three namespaces. Times spread over 400
// days at hour granularity, or all sit at `at` when same is set.
func gateCorpus(seed int64, n, dim, numCats int, same bool, at time.Time) []Entry {
	rng := rand.New(rand.NewSource(seed))
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	out := make([]Entry, n)
	for i := range out {
		v := make([]float64, dim)
		for j := range v {
			v[j] = float64(rng.Intn(3))
		}
		et := base.Add(time.Duration(rng.Intn(400*24)) * time.Hour)
		if same {
			et = at
		}
		out[i] = Entry{
			ID:        fmt.Sprintf("INC-%06d", i),
			Vector:    v,
			Category:  incident.Category(fmt.Sprintf("cat-%03d", rng.Intn(numCats))),
			Time:      et,
			Namespace: []string{"", "team-a", "team-b"}[i%3],
		}
	}
	return out
}

// gateStores loads the entries into a flat store, a one-shard store, and
// an eight-shard store routed by ID hash (every category spans shards).
func gateStores(t testing.TB, dim int, entries []Entry) (*DB, []*Sharded) {
	flat := New(dim)
	shs := []*Sharded{NewSharded(dim, 1, nil), NewSharded(dim, 0, idRoute{8})}
	for _, e := range entries {
		if err := flat.Add(e); err != nil {
			t.Fatal(err)
		}
		for _, s := range shs {
			if err := s.Add(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	return flat, shs
}

// checkGate runs every gated exact scan against its ungated reference for
// one (query, qt, k, alpha, scope).
func checkGate(t *testing.T, name string, flat *DB, shs []*Sharded, q []float64, qt time.Time, k int, alpha float64, sc scope) {
	t.Helper()
	got, err := flat.search(BatchQuery{Vector: q, Time: qt, K: k, Alpha: alpha, Namespace: sc.ns, Scoped: sc.on})
	must(t, err)
	sameBits(t, name+" flat TopK", got, ungatedDBTopK(flat, q, qt, k, alpha, sc))
	got, err = flat.search(BatchQuery{Vector: q, Time: qt, K: k, Alpha: alpha, Diverse: true, Namespace: sc.ns, Scoped: sc.on})
	must(t, err)
	sameBits(t, name+" flat TopKDiverse", got, ungatedDBDiverse(flat, q, qt, k, alpha, sc))
	for _, s := range shs {
		sn := fmt.Sprintf("%s shards=%d", name, s.NumShards())
		got, err := s.topK(q, qt, k, alpha, false, sc)
		must(t, err)
		sameBits(t, sn+" TopK", got, ungatedShardedTopK(s, q, qt, k, alpha, sc))
		got, err = s.topKDiverse(q, qt, k, alpha, false, sc)
		must(t, err)
		sameBits(t, sn+" TopKDiverse", got, ungatedShardedDiverse(s, q, qt, k, alpha, sc))
		// Both diverse shapes whatever the store size: the inline scan
		// and the per-shard scans the fan-out merges.
		s.mu.RLock()
		shards := s.gen.shard
		inline := s.categoryBestInline(shards, q, qt, k, alpha, sc)
		parts, err := fanCategoryBest(shards, q, qt, k, alpha, sc)
		s.mu.RUnlock()
		must(t, err)
		sameBits(t, sn+" inline", inline, ungatedInline(shards, q, qt, k, alpha, sc))
		for i, sh := range shards {
			sameBits(t, fmt.Sprintf("%s shard %d categoryBest", sn, i), parts[i],
				ungatedShardCategoryBest(sh, q, qt, k, alpha, sc))
		}
	}
}

// checkGateBatch runs the flat and sharded TopKBatch against their ungated
// compositions.
func checkGateBatch(t *testing.T, name string, flat *DB, shs []*Sharded, batch []BatchQuery) {
	t.Helper()
	got, err := flat.TopKBatch(batch)
	must(t, err)
	want := ungatedDBBatch(flat, batch)
	for i := range batch {
		sameBits(t, fmt.Sprintf("%s flat batch member %d", name, i), got[i], want[i])
	}
	for _, s := range shs {
		got, err := s.TopKBatch(batch)
		must(t, err)
		want := ungatedShardedBatch(s, batch)
		for i := range batch {
			sameBits(t, fmt.Sprintf("%s shards=%d batch member %d", name, s.NumShards(), i), got[i], want[i])
		}
	}
}

// TestDecayGateMatchesUngated is the differential oracle for the decay
// gate: every gated exact scan — flat TopK/TopKDiverse/TopKBatch, and on
// one- and eight-shard stores TopK, the inline and fan-out TopKDiverse
// and TopKBatch, unscoped and namespace-scoped — must return the ungated
// reference's IDs in the same order with bit-identical scores. Cases
// cover decay coefficients that disable the gate (0, negative), barely
// prune (1e-3) and prune hard (5); query times whose Sub saturates (the
// zero time, ±200 years); every row at the query time; exact ties; query
// components large enough that distances overflow to +Inf; and k at or
// above the store size. Non-finite components never reach a scan
// (TestRejectsNonFinite).
func TestDecayGateMatchesUngated(t *testing.T) {
	const dim = 4
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	mid := base.AddDate(0, 0, 180).Add(7 * time.Hour)
	qts := []time.Time{mid, {}, base.AddDate(200, 0, 0), base.AddDate(-200, 0, 0)}
	alphas := []float64{0, 1e-3, 0.3, 5, -0.3}
	scopes := []scope{{}, {on: true, ns: "team-a"}, {on: true, ns: ""}}
	big := math.MaxFloat64
	cases := []struct {
		name    string
		n, cats int
		same    bool
		ks      []int
		queries [][]float64
	}{
		{name: "grid", n: 600, cats: 40, ks: []int{1, 5, 33, 640},
			queries: [][]float64{{1, 0, 2, 1}, {0, 0, 0, 0}, {2, 2, 1, 0}}},
		{name: "grid-fanout", n: diverseInlineMax + 300, cats: 40, ks: []int{1, 5, 33},
			queries: [][]float64{{1, 0, 2, 1}, {2, 1, 1, 0}}},
		{name: "same-time", n: 600, cats: 40, same: true, ks: []int{1, 5, 33},
			queries: [][]float64{{1, 0, 2, 1}, {0, 2, 1, 1}}},
		{name: "overflow", n: 600, cats: 40, ks: []int{1, 5, 33},
			queries: [][]float64{{big, 0, 1, 1}, {-big, big, 0, 0}, {1e154, 1e154, 0, 0}}},
		{name: "tiny", n: 12, cats: 5, ks: []int{1, 5, 12, 20},
			queries: [][]float64{{1, 0, 2, 1}, {0, 0, 0, 0}}},
	}
	for ci, c := range cases {
		entries := gateCorpus(int64(ci+1), c.n, dim, c.cats, c.same, mid)
		flat, shs := gateStores(t, dim, entries)
		for qi, q := range c.queries {
			for _, qt := range qts {
				for _, alpha := range alphas {
					for _, k := range c.ks {
						for _, sc := range scopes {
							name := fmt.Sprintf("%s q=%d qt=%s alpha=%v k=%d scope=%+v",
								c.name, qi, qt.Format(time.DateOnly), alpha, k, sc)
							checkGate(t, name, flat, shs, q, qt, k, alpha, sc)
						}
					}
				}
			}
		}
		// One mixed batch per corpus: every (query, qt, alpha) member, plain
		// and diverse, some scoped, so decay groups hold several members.
		var batch []BatchQuery
		for qi, q := range c.queries {
			for ti, qt := range qts {
				for ai, alpha := range alphas {
					i := len(batch)
					bq := BatchQuery{Vector: q, Time: qt, K: c.ks[(qi+ti+ai)%len(c.ks)], Alpha: alpha, Diverse: i%2 == 1}
					if i%3 == 2 {
						bq.Namespace, bq.Scoped = "team-b", true
					}
					batch = append(batch, bq)
				}
			}
		}
		checkGateBatch(t, c.name, flat, shs, batch)
	}

	// Monotonic clock readings: rows and queries stamped from time.Now()
	// carry them, and Sub, Before and After then compare those instead of
	// the wall clock; a query whose reading is stripped mixes the two.
	now := time.Now()
	entries := gateCorpus(7, 600, dim, 40, false, mid)
	for i := range entries {
		entries[i].Time = now.Add(entries[i].Time.Sub(base))
	}
	flat, shs := gateStores(t, dim, entries)
	for _, qt := range []time.Time{now.AddDate(0, 0, 180), now.AddDate(0, 0, 180).Round(0), now} {
		for _, k := range []int{1, 5} {
			checkGate(t, fmt.Sprintf("monotonic qt=%v k=%d", qt, k), flat, shs, []float64{1, 0, 2, 1}, qt, k, 0.3, scope{})
		}
		checkGateBatch(t, "monotonic", flat, shs, []BatchQuery{
			{Vector: []float64{1, 0, 2, 1}, Time: qt, K: 5, Alpha: 0.3},
			{Vector: []float64{1, 0, 2, 1}, Time: qt, K: 5, Alpha: 0.3, Diverse: true},
		})
	}
}

// TestDecayGateBound checks the gate's window against similarityAt
// directly: a row the gate skips has a decay (its similarity at distance
// 0, the largest it can score) strictly below the floor, sampled densely
// around the window's edges, and every row past the exact cut by more than
// the margin and the window's one-second granularity is skipped.
func TestDecayGateBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	qt := time.Date(2022, 7, 1, 0, 0, 0, 0, time.UTC)
	zero := []float64{0}
	day := float64(24 * time.Hour)
	for _, alpha := range []float64{1e-9, 1e-3, 0.3, 5, 1e6} {
		for trial := 0; trial < 2000; trial++ {
			tau := math.Pow(10, -300*rng.Float64())
			switch trial % 10 {
			case 0:
				tau = 1 - rng.Float64()*1e-12
			case 5:
				tau = 0x1p-1022 * (1 + 10*rng.Float64()) // just above the subnormals
			}
			g := newDecayGate(qt, alpha)
			g.raise(tau)
			if !g.on {
				continue
			}
			exact := -math.Log(tau) / alpha * day // ns where decay crosses tau
			check := func(dt time.Duration) {
				if et := qt.Add(dt); g.skip(et.Unix()) {
					if _, decay := similarityAt(zero, qt, zero, et, alpha); !(decay < tau) {
						t.Fatalf("alpha=%v tau=%v: skipped row at %v has decay %v >= floor", alpha, tau, dt, decay)
					}
				}
			}
			for i := 0; i < 20; i++ {
				if d := exact + (rng.Float64()-0.5)*4e9; d > 0 && d < math.MaxInt64 {
					check(time.Duration(d))
					check(-time.Duration(d))
				}
			}
			check(0)
			check(math.MaxInt64)
			check(math.MinInt64)
			if far := (exact+1e-12/alpha*day)*(1+1e-8) + 1e9 + 1; far < math.MaxInt64 {
				for _, dt := range []time.Duration{time.Duration(far), -time.Duration(far)} {
					if et := qt.Add(dt); !g.skip(et.Unix()) {
						t.Fatalf("alpha=%v tau=%v: row at %v, past the exact cut of %v ns by more than the margin, not skipped",
							alpha, tau, dt, exact)
					}
				}
			}
			if g.skip(qt.Unix()) {
				t.Fatalf("alpha=%v tau=%v: row at the query time skipped", alpha, tau)
			}
		}
	}
	// Off states: no positive floor, a subnormal one, alpha not positive,
	// NaN, a cut past every Duration, and a query time carrying a
	// monotonic clock reading.
	for _, c := range []struct{ alpha, tau float64 }{
		{0.3, 0}, {0.3, 9.93e-322}, {0.3, math.NaN()}, {0, 0.5}, {-0.3, 0.5}, {math.NaN(), 0.5}, {1e-300, 0.5},
	} {
		g := newDecayGate(qt, c.alpha)
		g.raise(c.tau)
		if zero, far := (time.Time{}), qt.AddDate(200, 0, 0); g.skip(zero.Unix()) || g.skip(far.Unix()) {
			t.Fatalf("alpha=%v tau=%v: gate must stay off", c.alpha, c.tau)
		}
	}
	g := newDecayGate(time.Now(), 0.3)
	if g.raise(0.5); g.on {
		t.Fatal("gate on for a query time carrying a monotonic clock reading")
	}
}

// TestDecayGateExtremeTimes runs the oracle where the gate's Unix seconds
// wrap: rows and query times within a few thousand years of the earliest
// time.Time (its Unix second wraps for the first ~1969 years), on both
// sides of the wrap, mixed with rows in 2022.
func TestDecayGateExtremeTimes(t *testing.T) {
	const dim = 4
	// The earliest time.Time: internal second MinInt64+1 in the binary
	// encoding (version 1, UTC).
	enc := []byte{1, 0x80, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0xff, 0xff}
	var earliest time.Time
	must(t, earliest.UnmarshalBinary(enc))
	addYears := func(at time.Time, years int) time.Time {
		for ; years > 0; years -= 100 {
			at = at.Add(time.Duration(min(years, 100)) * 8766 * time.Hour)
		}
		return at
	}
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, years := range []int{0, 150, 1969, 1970, 3000} {
		anchor := addYears(earliest, years)
		entries := gateCorpus(int64(years), 400, dim, 30, false, anchor)
		for i := range entries {
			if i%5 == 4 {
				continue // stays in 2022
			}
			// Spread the rest over anchor ± 200 days.
			entries[i].Time = anchor.Add(entries[i].Time.Sub(base) - 200*24*time.Hour)
		}
		flat, shs := gateStores(t, dim, entries)
		for _, qt := range []time.Time{anchor, anchor.Add(36 * time.Hour), anchor.Add(-90 * 24 * time.Hour)} {
			for _, alpha := range []float64{0.3, 5} {
				for _, k := range []int{1, 5} {
					name := fmt.Sprintf("earliest+%dy qt=%v alpha=%v k=%d", years, qt.Sub(anchor), alpha, k)
					checkGate(t, name, flat, shs, []float64{1, 0, 2, 1}, qt, k, alpha, scope{})
				}
			}
		}
	}
}

// FuzzDecayGate fuzzes the differential oracle over corpus shape, decay
// coefficient (any float64: NaN, ±Inf, subnormal), query-time offset (any
// Duration, so Sub saturates at the extremes; a zero offset selects the
// zero time), k, and co-timed rows. Every
// gated scan, single and batched, must match its ungated reference bit
// for bit. CI runs a short coverage-guided session (-fuzz).
func FuzzDecayGate(f *testing.F) {
	f.Add(int64(1), 0.3, int64(90*24*time.Hour), uint8(5), uint8(60), false)
	f.Add(int64(2), 5.0, int64(0), uint8(3), uint8(40), false)
	f.Add(int64(3), 1e-3, int64(math.MaxInt64), uint8(80), uint8(30), true)
	f.Add(int64(4), -0.3, int64(math.MinInt64), uint8(1), uint8(79), false)
	f.Add(int64(5), math.Inf(1), int64(time.Hour), uint8(9), uint8(50), false)
	f.Add(int64(-19), 3.0, int64(90*24*time.Hour), uint8(17), uint8(60), false)
	f.Fuzz(func(t *testing.T, seed int64, alpha float64, qtOff int64, kB, nB uint8, same bool) {
		const dim = 3
		base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
		qt := base.Add(time.Duration(qtOff))
		if qtOff == 0 {
			qt = time.Time{}
		}
		n, k := 1+int(nB%80), 1+int(kB%40)
		entries := gateCorpus(seed, n, dim, 1+int(nB%13), same, qt)
		flat := New(dim)
		sh := NewSharded(dim, 0, idRoute{3})
		for _, e := range entries {
			must(t, flat.Add(e))
			must(t, sh.Add(e))
		}
		shs := []*Sharded{sh}
		rng := rand.New(rand.NewSource(seed))
		q := make([]float64, dim)
		for j := range q {
			q[j] = float64(rng.Intn(3))
		}
		for _, sc := range []scope{{}, {on: true, ns: "team-a"}} {
			checkGate(t, "fuzz", flat, shs, q, qt, k, alpha, sc)
		}
		batch := []BatchQuery{
			{Vector: q, Time: qt, K: k, Alpha: alpha},
			{Vector: q, Time: qt, K: k, Alpha: alpha, Diverse: true},
			{Vector: q, Time: qt, K: 1 + k/2, Alpha: alpha, Namespace: "team-b", Scoped: true},
			{Vector: []float64{2, 1, 0}, Time: qt, K: k, Alpha: alpha, Diverse: true, Namespace: "", Scoped: true},
			{Vector: []float64{0, 1, 2}, Time: base, K: k, Alpha: 0.3},
		}
		checkGateBatch(t, "fuzz", flat, shs, batch)
	})
}

// TestRejectsNonFinite pins the input boundary the decay gate relies on:
// no NaN or ±Inf vector component reaches a scan. Add (flat and sharded),
// Load (a snapshot holding one) and every query entry point reject it and
// leave the store as it was.
func TestRejectsNonFinite(t *testing.T) {
	const dim = 3
	qt := time.Date(2022, 7, 1, 0, 0, 0, 0, time.UTC)
	ok := Entry{ID: "ok", Vector: []float64{1, 2, 3}, Category: "c", Time: qt}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := []float64{1, x, 3}
		for _, idx := range []snapshotter{New(dim), NewSharded(dim, 1, nil), NewSharded(dim, 0, idRoute{8})} {
			name := fmt.Sprintf("%T %v", idx, x)
			must(t, idx.Add(ok))
			if err := idx.Add(Entry{ID: "bad", Vector: bad, Category: "c", Time: qt}); err == nil {
				t.Fatalf("%s: Add accepted a non-finite vector", name)
			}
			if _, err := idx.TopK(bad, qt, 1, 0.3); err == nil {
				t.Fatalf("%s: TopK accepted a non-finite query", name)
			}
			if _, err := idx.TopKDiverse(bad, qt, 1, 0.3); err == nil {
				t.Fatalf("%s: TopKDiverse accepted a non-finite query", name)
			}
			if _, err := idx.TopKBatch([]BatchQuery{{Vector: ok.Vector, Time: qt, K: 1, Alpha: 0.3}, {Vector: bad, Time: qt, K: 1, Alpha: 0.3}}); err == nil {
				t.Fatalf("%s: TopKBatch accepted a non-finite query", name)
			}
			var buf bytes.Buffer
			snap := snapshot{Dim: dim, Entries: []Entry{ok, {ID: "bad", Vector: bad, Category: "c", Time: qt}}}
			must(t, gob.NewEncoder(&buf).Encode(snap))
			if err := idx.Load(&buf); err == nil {
				t.Fatalf("%s: Load accepted a snapshot with a non-finite vector", name)
			}
			if idx.Len() != 1 {
				t.Fatalf("%s: %d entries after the rejections, want 1", name, idx.Len())
			}
		}
	}
}
