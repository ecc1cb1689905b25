package vectordb

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/incident"
	"repro/internal/parallel"
)

// Sharded is a vector store partitioned across N shards, the
// scale-oriented Index implementation. Entries route to a shard through a
// Partitioner (category-hash by default, or a trained IVF coarse
// quantizer), each shard guards its slice with its own lock, and queries
// fan out across shards on the shared internal/parallel pool — so
// concurrent inserts contend per shard instead of on one store-wide write
// lock, and a TopK over millions of entries splits into N streaming
// heap scans that run on every available core.
//
// # Exact vs probe-limited serving
//
// By default every query searches every shard exactly and per-shard
// candidates merge under the same total retrieval order as the flat store
// — similarity descending, ties by ascending entry ID — so results are
// bit-identical to DB's for any shard count, partitioner, and insert
// interleaving. TopK merges the per-shard bounded heaps through one final
// size-k heap; TopKDiverse merges the per-shard per-category bests by
// keeping each category's best-ranked representative (a commutative,
// associative reduction under the total order) before the final heap.
//
// SetProbes(p) with p > 0 opts into approximate serving: when the store is
// routed by a trained IVF quantizer, TopK and TopKDiverse search only the
// p partitions ranked best for the query (skipping empty partitions so no
// probe is wasted), trading recall for a ~shards/p scan reduction. Probe
// mode silently falls back to exact fan-out whenever its preconditions do
// not hold: probes <= 0, probes >= the number of (non-empty) shards, a
// category-hash partitioner (its placement carries no geometry to probe),
// or a rebalance in flight. Partitions rank by centroid distance blended
// with their newest entry's recency (see probeShards and the package
// comment for the full contract).
//
// EnableQuantized layers a two-stage scan onto probe-limited serving:
// each probed shard walks an int8 scalar-quantized sidecar of its
// columnar backing to collect k×overfetch candidates, then re-ranks the
// candidates against the full-precision floats under the exact
// similarity. Exact fan-out never touches the sidecar, so the
// bit-identity contract is untouched; see the package comment's
// two-stage section for when the int8 stage engages and how sidecars
// retrain.
//
// # Locking and rebalance generations
//
// A store-wide RWMutex is held shared by every normal operation — Add
// included, so inserts never serialize against each other on it — and
// exclusively only by Load and the two brief generation swaps that bracket
// an incremental rebalance. Rebalance and TrainIVF no longer stop the
// world: they install a new routing generation (fresh shards under the new
// partitioner), migrate the old generation shard-at-a-time under per-shard
// locks, and retire it, while ingest and queries keep flowing throughout.
// The routing epoch increments at each generation swap; an Add holds the
// store lock shared across route-and-insert, so a swap (exclusive) can
// never interleave with it — every in-flight Add lands in the generation
// its route was computed against. Duplicate-ID rejection is a lock-free
// LoadOrStore against an ID→shard map that migration keeps current.
//
// While a rebalance drains, a migrating entry is briefly visible in both
// its old and new shard (copy first, clear after — never in neither), and
// queries scan the old generation to completion before the new one, then
// deduplicate by ID, so exact results stay bit-identical to the flat
// reference even mid-rebalance.
//
// # Memory layout
//
// Each shard packs its vectors into one contiguous row-major backing array
// rather than one heap allocation per entry. The distance scan — the hot
// loop of every query — walks that backing sequentially, so it prefetches
// instead of pointer-chasing, and a million vectors cost one long-lived
// allocation instead of a million GC-visible slices. The flat DB is one
// such shard, unpartitioned.
type Sharded struct {
	dim int
	// mu is shared by all normal ops and exclusive only for Load and the
	// two brief generation swaps of a rebalance.
	mu sync.RWMutex
	// rebMu serializes whole rebalances (and Load against them) so at most
	// one migration drains at a time.
	rebMu sync.Mutex
	// epoch is the routing-generation stamp: it increments when a rebalance
	// installs its target generation and again when the old generation
	// retires. Odd = rebalance in flight.
	epoch  atomic.Uint64
	probes atomic.Int64
	// tuner is the adaptive serving controller, nil until EnableAdaptive.
	tuner atomic.Pointer[Tuner]
	// quantized gates the two-stage int8 probe scan (EnableQuantized);
	// overfetch is its per-shard candidate factor, and qScans/rescales are
	// the serving counters the daemon exports.
	quantized atomic.Bool
	overfetch atomic.Int64
	qScans    atomic.Int64
	rescales  atomic.Int64
	// quantWG tracks in-flight asynchronous sidecar rescales.
	quantWG sync.WaitGroup
	// batchQueries counts queries served through TopKBatch.
	batchQueries atomic.Int64
	// savedState carries a loaded serving-state trailer until a tuner
	// exists to absorb it (Load before EnableAdaptive).
	savedState atomic.Pointer[tunerState]
	// retrainNotify, when set (OnRetrain), observes every rebalance onto a
	// trained IVF quantizer — the durable layer's hook for journaling
	// retrain events to the WAL.
	retrainNotify atomic.Pointer[func(*IVF)]
	// nss maps non-default namespace -> *nsState (per-tenant serving state
	// over the shared shard geometry); defCount counts default-namespace
	// (untagged) entries, and adaptiveCfg is the EnableAdaptive config that
	// seeds a controller for each namespace on its first write.
	nss         sync.Map
	defCount    atomic.Int64
	adaptiveCfg atomic.Pointer[AutoConfig]
	gen         *generation // current target: Adds route here
	old         *generation // non-nil mid-rebalance: shards draining into gen
	byID        *sync.Map   // entry ID -> *shard (kept current by migration)
	count       atomic.Int64
}

var _ snapshotter = (*Sharded)(nil)

// generation is one routing regime: a partitioner and the shards it routes
// into. A rebalance replaces the store's generation wholesale instead of
// mutating it, so queries snapshot a consistent (partitioner, shards) pair
// under the shared lock.
type generation struct {
	parts Partitioner
	shard []*shard
}

// shard is one partition under its own lock (the flat DB is a single
// shard holding the whole store). Entry metadata lives in entries with
// the Vector field nilled out; the vectors themselves pack into vecs, dim
// floats per row, in the same order — the columnar layout the query scan
// walks. Vectors are materialized (copied out of the backing) whenever an
// Entry leaves the shard.
type shard struct {
	mu      sync.RWMutex
	dim     int
	entries []Entry
	vecs    []float64
	byID    map[string]int
	// newest is the latest entry timestamp in the shard — the per-partition
	// recency summary time-aware probe ranking folds into partition
	// selection. Zero when the shard is empty.
	newest time.Time
	// quant is the int8 scalar-quantized sidecar of vecs, nil unless
	// EnableQuantized built it; rescale latches one pending asynchronous
	// sidecar retrain after a clamped insert.
	quant   *quantSidecar
	rescale atomic.Bool
}

// NewSharded returns an empty sharded store for vectors of the given
// dimensionality. A nil partitioner — or one reporting no shards —
// selects CategoryHash over shards (a shards value below 1 selects 2; a
// single-shard store is the degenerate case the equivalence tests anchor
// on); a valid non-nil partitioner's Shards() takes precedence over the
// shards argument.
func NewSharded(dim, shards int, p Partitioner) *Sharded {
	if p == nil || p.Shards() < 1 {
		if shards < 1 {
			shards = 2
		}
		p = CategoryHash{N: shards}
	}
	s := &Sharded{dim: dim, byID: &sync.Map{}}
	s.gen = &generation{parts: p, shard: newShards(p.Shards(), dim)}
	return s
}

func newShards(n, dim int) []*shard {
	out := make([]*shard, n)
	for i := range out {
		out[i] = &shard{dim: dim, byID: make(map[string]int)}
	}
	return out
}

// Dim returns the vector dimensionality.
func (s *Sharded) Dim() int { return s.dim }

// Len returns the number of stored entries.
func (s *Sharded) Len() int { return int(s.count.Load()) }

// NumShards returns the shard count of the current routing generation.
func (s *Sharded) NumShards() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.gen.shard)
}

// Partitioner returns the current routing partitioner.
func (s *Sharded) Partitioner() Partitioner {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen.parts
}

// Epoch returns the routing-generation stamp: it increments when a
// rebalance installs its target generation and again when the old
// generation retires, so an odd value means a rebalance is in flight.
func (s *Sharded) Epoch() uint64 { return s.epoch.Load() }

// Rebalancing reports whether an incremental rebalance is draining.
func (s *Sharded) Rebalancing() bool { return s.Epoch()%2 == 1 }

// SetProbes sets the probe budget for approximate serving: TopK and
// TopKDiverse search only the p IVF partitions ranked nearest the query.
// p = 0 restores exact fan-out; negative values are rejected (a caller
// that computed a negative budget has a bug that silently going exact
// would mask). Probe mode only engages under a trained IVF partitioner
// with more (non-empty) shards than probes — in every other configuration
// queries stay exact.
//
// With the adaptive controller running (EnableAdaptive), SetProbes is the
// manual override: it pins the budget and pauses the auto-tuner's
// adjustments until EnableAdaptive is called again.
func (s *Sharded) SetProbes(p int) error {
	if p < 0 {
		return fmt.Errorf("vectordb: negative probe count %d (use 0 for exact fan-out)", p)
	}
	if t := s.tuner.Load(); t != nil {
		// Pause-and-pin atomically with any in-flight controller decision,
		// so the manual value can never be overwritten after the fact.
		t.pinProbes(p)
		return nil
	}
	s.probes.Store(int64(p))
	return nil
}

// Probes returns the effective probe budget (0 = exact fan-out). Under
// the adaptive controller this is the budget the SLO loop currently
// holds, so it moves as the controller adjusts.
func (s *Sharded) Probes() int { return int(s.probes.Load()) }

// ShardLens returns the per-shard entry counts of the current routing
// generation (the load-balance view). Mid-rebalance the counts exclude
// entries still draining from the old generation, so they may sum below
// Len until the handoff completes.
func (s *Sharded) ShardLens() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int, len(s.gen.shard))
	for i, sh := range s.gen.shard {
		out[i] = sh.length()
	}
	return out
}

// routeTo validates a partitioner's placement of an entry, so a buggy or
// hostile Partitioner returning an index outside [0, shards) surfaces as a
// descriptive error instead of corrupting the store.
func routeTo(p Partitioner, e Entry) (int, error) {
	dst := p.Route(e)
	if dst < 0 || dst >= p.Shards() {
		return 0, fmt.Errorf("vectordb: partitioner %T routed entry %s to shard %d, want [0, %d)",
			p, e.ID, dst, p.Shards())
	}
	return dst, nil
}

// Add stores an entry, rejecting dimension mismatches, duplicate IDs,
// non-finite vector components, and out-of-range partitioner placements.
// Concurrent Adds contend only on the destination shard's lock; during a
// rebalance they route through the new generation's partitioner, so
// nothing lands in a draining shard.
func (s *Sharded) Add(e Entry) error {
	if err := validateEntry(s.dim, e); err != nil {
		return err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	dst, err := routeTo(s.gen.parts, e)
	if err != nil {
		return err
	}
	sh := s.gen.shard[dst]
	if _, dup := s.byID.LoadOrStore(e.ID, sh); dup {
		return fmt.Errorf("vectordb: duplicate entry ID %s", e.ID)
	}
	if sh.add(e) {
		s.scheduleRescale(sh)
	}
	s.count.Add(1)
	if t := s.tuner.Load(); t != nil {
		t.noteAdd()
	}
	if e.Namespace == "" {
		s.defCount.Add(1)
	} else {
		st := s.nsStateFor(e.Namespace)
		st.count.Add(1)
		if t := st.tuner.Load(); t != nil {
			t.noteAdd()
		}
	}
	return nil
}

// add copies the entry's vector into the shard's columnar backing (and,
// when a quantized sidecar exists, encodes it there too — reporting
// whether the encode clamped, i.e. the sidecar's trained range no longer
// covers the shard and a rescale should be scheduled). The caller has
// validated the entry and claimed its ID.
func (sh *shard) add(e Entry) (clamped bool) {
	sh.mu.Lock()
	clamped = sh.addLocked(e)
	sh.mu.Unlock()
	return clamped
}

// addLocked is add under a caller-held exclusive shard lock.
func (sh *shard) addLocked(e Entry) (clamped bool) {
	vec := e.Vector
	e.Vector = nil
	sh.byID[e.ID] = len(sh.entries)
	sh.entries = append(sh.entries, e)
	sh.vecs = append(sh.vecs, vec...)
	if e.Time.After(sh.newest) {
		sh.newest = e.Time
	}
	if sh.quant != nil {
		clamped = sh.quant.encode(vec, e.Time)
	}
	return clamped
}

// length returns the shard's entry count under its own lock.
func (sh *shard) length() int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.entries)
}

// stats returns the shard's entry count and newest-entry timestamp in one
// locked read — what probe ranking consumes per candidate partition.
func (sh *shard) stats() (n int, newest time.Time) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.entries), sh.newest
}

// row returns entry i's vector view into the backing; valid only under
// sh.mu.
func (sh *shard) row(i int) []float64 {
	return sh.vecs[i*sh.dim : (i+1)*sh.dim]
}

// materialize returns entry i with its vector copied out of the backing;
// valid only under sh.mu.
func (sh *shard) materialize(i int) Entry {
	e := sh.entries[i]
	e.Vector = append([]float64(nil), sh.row(i)...)
	return e
}

// snapshot returns every entry in the shard, vectors materialized.
func (sh *shard) snapshot() []Entry {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	out := make([]Entry, 0, len(sh.entries))
	for i := range sh.entries {
		out = append(out, sh.materialize(i))
	}
	return out
}

// clear empties the shard; migration calls it after every entry has been
// copied into the new generation (and byID repointed), so a query never
// finds an entry in neither generation.
func (sh *shard) clear() {
	sh.mu.Lock()
	sh.entries, sh.vecs, sh.byID = nil, nil, make(map[string]int)
	sh.newest = time.Time{}
	sh.quant = nil
	sh.mu.Unlock()
}

// Get returns the entry with the given ID. If the lookup races a
// migration (the mapped shard was just drained), it retries against the
// updated ID→shard mapping; migration repoints the mapping before
// clearing the source shard, so at most one retry per rebalance is ever
// needed.
func (s *Sharded) Get(id string) (Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.byID.Load(id)
	for ok {
		sh := v.(*shard)
		sh.mu.RLock()
		i, found := sh.byID[id]
		if found {
			e := sh.materialize(i)
			sh.mu.RUnlock()
			return e, true
		}
		sh.mu.RUnlock()
		v2, ok2 := s.byID.Load(id)
		if !ok2 || v2 == v {
			return Entry{}, false
		}
		v, ok = v2, ok2
	}
	return Entry{}, false
}

// liveShards returns the shard lists a query must scan, old generation
// (if draining) separate from the current one; caller holds s.mu.
func (s *Sharded) liveShards() (draining, current []*shard) {
	if s.old != nil {
		draining = s.old.shard
	}
	return draining, s.gen.shard
}

// Categories returns the set of distinct categories stored.
func (s *Sharded) Categories() []incident.Category { return categoriesIn(s, scope{}) }

// tally implements root. Without cats it reads the maintained entry
// counters (store, default namespace, or the namespace's state — never
// creating one). With cats it is one locked pass per shard; mid-rebalance
// a migrating entry may sit in two shards at once, so an ID filter keeps
// the count exact.
func (s *Sharded) tally(sc scope, cats map[incident.Category]int) int {
	if cats == nil {
		switch {
		case !sc.on:
			return s.Len()
		case sc.ns == "":
			return int(s.defCount.Load())
		}
		if v, ok := s.nss.Load(sc.ns); ok {
			return int(v.(*nsState).count.Load())
		}
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	draining, current := s.liveShards()
	var seen map[string]bool
	if draining != nil {
		seen = make(map[string]bool, s.count.Load())
	}
	n := 0
	for _, sh := range append(append([]*shard(nil), draining...), current...) {
		n += sh.tally(sc, cats, seen)
	}
	return n
}

// tally adds the per-category counts of the shard's entries visible under
// sc into cats and returns how many it counted. A non-nil seen skips IDs
// already counted and records the rest.
func (sh *shard) tally(sc scope, cats map[incident.Category]int, seen map[string]bool) int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	n := 0
	for i := range sh.entries {
		e := &sh.entries[i]
		if !sc.match(e.Namespace) {
			continue
		}
		if seen != nil {
			if seen[e.ID] {
				continue
			}
			seen[e.ID] = true
		}
		cats[e.Category]++
		n++
	}
	return n
}

// probeShards returns the shards a probe-limited query searches, or nil
// when the query must fan out exactly: no probe budget, a partitioner
// without centroid geometry (category hash), a rebalance in flight
// (caller passes draining != nil), or a budget that already covers every
// non-empty shard. Empty partitions are skipped so no probe is wasted on
// a centroid with nothing behind it (TrainIVF with more shards than
// distinct vectors leaves such shards).
//
// Populated partitions rank by the same functional form the retrieval
// similarity uses — 1/(1+d)·e^(−α·Δt) — with d the query-to-centroid
// distance and Δt the age of the partition's NEWEST entry relative to the
// query time, so a partition holding recent incidents can out-rank a
// stale partition whose centroid is nearer. With α = 0 the form reduces
// to plain centroid distance. Ties go to the lower shard index.
// The probe budget p is the caller's: sequential serving passes the
// scope's effective budget (root or per-namespace), so co-tenants probe
// independently over the same ranked partitions.
func (s *Sharded) probeShards(g *generation, query []float64, qt time.Time, alpha float64, p int) []*shard {
	if p <= 0 || p >= len(g.shard) {
		return nil
	}
	ivf, ok := g.parts.(*IVF)
	if !ok {
		return nil
	}
	dists := ivf.centroidDists(query)
	type cand struct {
		sh    *shard
		score float64
	}
	cands := make([]cand, 0, len(g.shard))
	for i, sh := range g.shard {
		n, newest := sh.stats()
		if n == 0 {
			continue
		}
		score := -dists[i] // α = 0: nearer ranks higher
		if alpha != 0 {
			days := math.Abs(qt.Sub(newest).Hours()) / 24
			score = 1 / (1 + dists[i]) * math.Exp(-alpha*days)
		}
		cands = append(cands, cand{sh: sh, score: score})
	}
	if len(cands) <= p {
		// The budget covers every populated partition: identical to exact
		// fan-out, so take the exact path and keep the bit-identity
		// guarantee trivially.
		return nil
	}
	// Ties keep ascending shard index (stable sort over the ascending pass).
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].score > cands[b].score })
	sel := make([]*shard, p)
	for i := range sel {
		sel[i] = cands[i].sh
	}
	return sel
}

// fanTopK runs the per-shard bounded-heap scan over the given shards on
// the shared worker pool.
func fanTopK(shards []*shard, query []float64, qt time.Time, k int, alpha float64, sc scope) ([][]Scored, error) {
	return parallel.Map(len(shards), 0, func(i int) ([]Scored, error) {
		return shards[i].topK(query, qt, k, alpha, sc), nil
	})
}

// TopK returns the k most similar entries under the paper's temporal-decay
// similarity, fanning the scan out across shards (each shard streams its
// entries through a size-k bounded heap) and merging the per-shard heaps
// through one final size-k heap. In exact mode (the default) results are
// bit-identical to DB.TopK, including mid-rebalance: the draining
// generation is scanned to completion before the target one and the merge
// deduplicates by ID, so a migrating entry — briefly present in both —
// counts once and never zero times. With SetProbes under IVF routing only
// the nearest partitions are scanned (approximate; see the type comment).
func (s *Sharded) TopK(query []float64, qt time.Time, k int, alpha float64) ([]Scored, error) {
	return s.topK(query, qt, k, alpha, false, scope{})
}

// exactTopK is TopK with probe selection forced off — the oracle path the
// adaptive controller's shadow queries measure observed recall against.
func (s *Sharded) exactTopK(query []float64, qt time.Time, k int, alpha float64) ([]Scored, error) {
	return s.topK(query, qt, k, alpha, true, scope{})
}

func (s *Sharded) topK(query []float64, qt time.Time, k int, alpha float64, forceExact bool, sc scope) ([]Scored, error) {
	if err := checkQuery(s.dim, query, k); err != nil {
		return nil, err
	}
	nsSt := s.scopeNS(sc)
	s.mu.RLock()
	defer s.mu.RUnlock()
	draining, current := s.liveShards()

	if draining == nil {
		shards := current
		probed := false
		if !forceExact {
			if sel := s.probeShards(s.gen, query, qt, alpha, s.probesFor(nsSt)); sel != nil {
				shards, probed = sel, true
			}
		}
		var perShard [][]Scored
		var err error
		if probed && s.quantized.Load() {
			// Two-stage quantized scan: int8 candidate collection per probed
			// shard, exact re-rank. Engages only on the probe-limited path —
			// exact fan-out always reads the float backing.
			of := s.overfetchFor(nsSt)
			s.noteQuantScan(nsSt)
			perShard, err = parallel.Map(len(shards), 0, func(i int) ([]Scored, error) {
				return shards[i].topKQuantized(query, qt, k, of, alpha, sc), nil
			})
		} else {
			perShard, err = fanTopK(shards, query, qt, k, alpha, sc)
		}
		if err != nil {
			return nil, err
		}
		out := mergeTopK(perShard, k, false)
		if !forceExact {
			if t := s.tunerFor(nsSt); t != nil {
				t.observeQuery(query, qt, k, alpha, out, probed, false, sc)
			}
		}
		return out, nil
	}

	// Rebalance in flight: exact over both generations, the draining one
	// first. Copy-before-clear migration plus this scan order guarantees
	// every entry is seen at least once; the ID filter collapses the
	// at-most-twice case.
	oldRes, err := fanTopK(draining, query, qt, k, alpha, sc)
	if err != nil {
		return nil, err
	}
	newRes, err := fanTopK(current, query, qt, k, alpha, sc)
	if err != nil {
		return nil, err
	}
	return mergeTopK(append(oldRes, newRes...), k, true), nil
}

// mergeTopK merges row sets' best-first results (per shard, the draining
// generation's first) into the global k best. dedup drops an ID an
// earlier set already offered: mid-rebalance a migrating row is briefly in
// both generations.
func mergeTopK(parts [][]Scored, k int, dedup bool) []Scored {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	h := newWorstFirst(k, n)
	var seen map[string]bool
	if dedup {
		seen = make(map[string]bool, n)
	}
	for _, p := range parts {
		for _, sc := range p {
			if seen != nil {
				if seen[sc.Entry.ID] {
					continue
				}
				seen[sc.Entry.ID] = true
			}
			h.offer(sc, k)
		}
	}
	return h.drain()
}

// search implements root: one query under its own namespace scope.
func (s *Sharded) search(q BatchQuery) ([]Scored, error) {
	if q.Diverse {
		return s.topKDiverse(q.Vector, q.Time, q.K, q.Alpha, false, bqScope(&q))
	}
	return s.topK(q.Vector, q.Time, q.K, q.Alpha, false, bqScope(&q))
}

// fanCategoryBest runs the per-shard per-category scan over the given
// shards on the shared worker pool; each shard returns its k best
// categories (see mergeDiverse for why that is enough).
func fanCategoryBest(shards []*shard, query []float64, qt time.Time, k int, alpha float64, sc scope) ([][]Scored, error) {
	return parallel.Map(len(shards), 0, func(i int) ([]Scored, error) {
		return shards[i].categoryBest(query, qt, k, alpha, sc), nil
	})
}

// TopKDiverse returns the k most similar entries with each root-cause
// category appearing at most once (§4.2.2), fanning out across shards.
// Each shard finds its k best categories; mergeDiverse keeps each
// category's best across shards, so exact-mode results are identical to
// the flat store's regardless of shard count, routing, or an in-flight
// rebalance (a migrating entry seen twice merges with itself). With
// SetProbes under IVF routing only the nearest partitions are scanned
// (approximate; see the type comment).
func (s *Sharded) TopKDiverse(query []float64, qt time.Time, k int, alpha float64) ([]Scored, error) {
	return s.topKDiverse(query, qt, k, alpha, false, scope{})
}

func (s *Sharded) topKDiverse(query []float64, qt time.Time, k int, alpha float64, forceExact bool, sc scope) ([]Scored, error) {
	if err := checkQuery(s.dim, query, k); err != nil {
		return nil, err
	}
	nsSt := s.scopeNS(sc)
	s.mu.RLock()
	defer s.mu.RUnlock()
	draining, current := s.liveShards()

	var parts [][]Scored
	if draining != nil {
		// Rebalance in flight: exact over both generations, the draining
		// one scanned to completion first (same no-miss argument as TopK;
		// a migrating entry seen twice merges with itself).
		var err error
		if parts, err = fanCategoryBest(draining, query, qt, k, alpha, sc); err != nil {
			return nil, err
		}
	}
	shards := current
	probed := false
	if draining == nil && !forceExact {
		if sel := s.probeShards(s.gen, query, qt, alpha, s.probesFor(nsSt)); sel != nil {
			shards, probed = sel, true
		}
	}
	if draining == nil && !probed && s.count.Load() <= diverseInlineMax {
		// Small store: one category-slot scan across all shards in
		// sequence beats the fan-out's per-shard scans and merge — the
		// regime where the sharded TopKDiverse used to lose to the flat
		// store.
		out := s.categoryBestInline(shards, query, qt, k, alpha, sc)
		if !forceExact {
			if t := s.tunerFor(nsSt); t != nil {
				t.observeQuery(query, qt, k, alpha, out, false, true, sc)
			}
		}
		return out, nil
	}
	var perShard [][]Scored
	var err error
	if probed && s.quantized.Load() {
		of := s.overfetchFor(nsSt)
		s.noteQuantScan(nsSt)
		perShard, err = parallel.Map(len(shards), 0, func(i int) ([]Scored, error) {
			return shards[i].categoryBestQuantized(query, qt, k, of, alpha, sc), nil
		})
	} else {
		perShard, err = fanCategoryBest(shards, query, qt, k, alpha, sc)
	}
	if err != nil {
		return nil, err
	}
	out := mergeDiverse(append(parts, perShard...), k)
	if draining == nil && !forceExact {
		if t := s.tunerFor(nsSt); t != nil {
			t.observeQuery(query, qt, k, alpha, out, probed, true, sc)
		}
	}
	return out, nil
}

// diverseInlineMax is the store size at or below which TopKDiverse takes
// the inline single-scan path instead of per-shard fan-out: small enough
// that scan time cannot amortize per-shard scans and the merge.
const diverseInlineMax = 4096

// categoryBestInline runs one category-slot scan across the given shards
// in sequence — the same comparisons as the per-shard scans merged by
// mergeDiverse, so bit-identical results — and returns the k best
// categories, best first. Slots reference (shard, row) during the scan
// and only the k winners materialize at the end: under the caller-held
// store read lock no generation swap can start, so shards only append and
// row indexes stay stable across the brief per-shard lock releases.
func (s *Sharded) categoryBestInline(shards []*shard, query []float64, qt time.Time, k int, alpha float64, ns scope) []Scored {
	b, g := newCatBest(), newDecayGate(qt, alpha)
	for si, sh := range shards {
		sh.mu.RLock()
		sh.offerCategories(&b, &g, si, query, qt, k, alpha, ns)
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

// topK streams one shard's columnar rows through a bounded heap and
// returns its local best-first top k, vectors materialized. The threshold
// pre-check skips the Entry copy for the overwhelming majority of rows
// that can't displace the heap root.
func (sh *shard) topK(query []float64, qt time.Time, k int, alpha float64, ns scope) []Scored {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.topKLocked(query, qt, k, alpha, ns)
}

// topKLocked is topK's body under a caller-held shard lock — shared with
// the quantized path's full-precision fallback.
func (sh *shard) topKLocked(query []float64, qt time.Time, k int, alpha float64, ns scope) []Scored {
	h := newWorstFirst(k, len(sh.entries))
	g := newDecayGate(qt, alpha)
	for i := range sh.entries {
		if !ns.match(sh.entries[i].Namespace) || g.skip(sh.entries[i].Time.Unix()) {
			continue
		}
		d, s := similarityAt(query, qt, sh.row(i), sh.entries[i].Time, alpha)
		if len(h) == k {
			if r := &h[0]; r.Similarity > s || (r.Similarity == s && r.Entry.ID < sh.entries[i].ID) {
				continue
			}
		}
		h.offer(Scored{Entry: sh.entries[i], Distance: d, Similarity: s}, k)
		g.raise(h.floor(k))
	}
	for i := range h {
		h[i].Entry.Vector = append([]float64(nil), sh.row(sh.byID[h[i].Entry.ID])...)
	}
	return h.drain()
}

// categoryBest returns the shard's k best categories, each by its
// best-ranked entry, best first, vectors materialized.
func (sh *shard) categoryBest(query []float64, qt time.Time, k int, alpha float64, ns scope) []Scored {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.categoryBestLocked(query, qt, k, alpha, ns)
}

// categoryBestLocked is categoryBest's body under a caller-held shard
// lock — shared with the quantized path's full-precision fallback.
func (sh *shard) categoryBestLocked(query []float64, qt time.Time, k int, alpha float64, ns scope) []Scored {
	b, g := newCatBest(), newDecayGate(qt, alpha)
	sh.offerCategories(&b, &g, 0, query, qt, k, alpha, ns)
	return sh.materializeSlots(b.top(k))
}

// offerCategories is the category-slot row loop: it scores every row
// visible under ns that the decay gate g lets through, offers it to b as
// a row of source src, and lifts g to b's floor for k. One call covers the
// whole shard; a scan across several shards calls it once per shard with
// the same b and g. Caller holds sh.mu.
func (sh *shard) offerCategories(b *catBest, g *decayGate, src int, query []float64, qt time.Time, k int, alpha float64, ns scope) {
	for i := range sh.entries {
		e := &sh.entries[i]
		if !ns.match(e.Namespace) || g.skip(e.Time.Unix()) {
			continue
		}
		d, s := similarityAt(query, qt, sh.row(i), e.Time, alpha)
		b.offer(e.Category, e.ID, src, i, d, s)
		g.raise(b.floor(k))
	}
}

// materializeSlots copies out the shard rows the slots reference, in
// order; valid only under sh.mu.
func (sh *shard) materializeSlots(win []catSlot) []Scored {
	out := make([]Scored, len(win))
	for j := range win {
		out[j] = win[j].scored(sh.entries[win[j].row], sh.row(win[j].row))
	}
	return out
}

// entriesSortedByIDLocked snapshots every entry across both generations,
// vectors materialized, deduplicated by ID and ordered by ID — the
// canonical order for persistence and partitioner training, independent
// of how concurrent inserts interleaved. Caller holds s.mu (shared or
// exclusive); mid-rebalance duplicates (copied but not yet cleared)
// collapse to one identical copy.
func (s *Sharded) entriesSortedByIDLocked() []Entry {
	out := make([]Entry, 0, s.count.Load())
	draining, current := s.liveShards()
	for _, sh := range append(append([]*shard(nil), draining...), current...) {
		out = append(out, sh.snapshot()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	dedup := out[:0]
	for i, e := range out {
		if i > 0 && e.ID == dedup[len(dedup)-1].ID {
			continue
		}
		dedup = append(dedup, e)
	}
	return dedup
}

// snapshotSortedByID is entriesSortedByIDLocked under the shared lock.
func (s *Sharded) snapshotSortedByID() []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.entriesSortedByIDLocked()
}

// Rebalance re-routes every stored entry under a new partitioner without
// stopping the world: it pre-validates the partitioner's routing over a
// snapshot (a hostile Partitioner returning out-of-range shard indices is
// rejected before any state changes), installs the new generation under a
// brief exclusive swap — from which instant new Adds route through the new
// partitioner — and then drains the old shards one at a time under
// per-shard locks while ingest and queries keep flowing. Queries before,
// during and after return identical results — placement is invisible to
// exact fan-out search. Concurrent Rebalance/TrainIVF/Load calls
// serialize; probe-limited serving suspends (exact fan-out) for the
// duration of the drain.
func (s *Sharded) Rebalance(p Partitioner) error {
	if p == nil || p.Shards() < 1 {
		return fmt.Errorf("vectordb: Rebalance needs a partitioner with at least 1 shard")
	}
	s.rebMu.Lock()
	defer s.rebMu.Unlock()

	// Pre-validate: every stored entry must route in range before the
	// store commits to the new partitioner. Entries added after this pass
	// are validated individually on their Add.
	if err := s.validateRouting(p); err != nil {
		return fmt.Errorf("vectordb: Rebalance rejected: %w", err)
	}

	next := &generation{parts: p, shard: newShards(p.Shards(), s.dim)}
	s.mu.Lock()
	s.old = s.gen
	s.gen = next
	s.epoch.Add(1)
	s.mu.Unlock()

	s.drainInto(next)

	s.mu.Lock()
	s.old = nil
	s.epoch.Add(1)
	s.mu.Unlock()
	if s.quantized.Load() {
		// The new generation's shards hold freshly routed contents: retrain
		// each sidecar from its shard's own value range. Probe serving (and
		// with it the quantized scan) was suspended during the drain, and a
		// shard whose sidecar has not been rebuilt yet serves full precision,
		// so queries stay correct throughout.
		s.rebuildQuantSidecars()
	}
	if ivf, ok := p.(*IVF); ok {
		if fn := s.retrainNotify.Load(); fn != nil {
			(*fn)(ivf)
		}
	}
	return nil
}

// OnRetrain installs an observer invoked after every rebalance onto a
// trained IVF quantizer (explicit TrainIVF/Rebalance or the adaptive
// controller's skew-triggered retrain), with the installed quantizer.
// The durable layer uses it to journal retrain events; nil uninstalls.
// The observer runs on the rebalancing goroutine after the handoff
// completes and must not call back into Rebalance/TrainIVF/Load.
func (s *Sharded) OnRetrain(fn func(*IVF)) {
	if fn == nil {
		s.retrainNotify.Store(nil)
		return
	}
	s.retrainNotify.Store(&fn)
}

// validateRouting checks a candidate partitioner's placement of every
// stored entry, shard by shard under read locks. Unlike the training
// snapshot this needs no sorting, deduplication (rebMu is held, so no
// drain is in flight and no entry is doubled), or vector copies — Route
// only reads the vector, so each entry is scored through a view into the
// columnar backing while the shard lock is held.
func (s *Sharded) validateRouting(p Partitioner) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, sh := range s.gen.shard {
		sh.mu.RLock()
		for i := range sh.entries {
			e := sh.entries[i]
			e.Vector = sh.row(i)
			if _, err := routeTo(p, e); err != nil {
				sh.mu.RUnlock()
				return err
			}
		}
		sh.mu.RUnlock()
	}
	return nil
}

// drainInto migrates every old-generation shard into the target
// generation, one shard at a time: snapshot the source under its read
// lock, copy each entry into its new shard (repointing the ID map as it
// goes), then clear the source under a brief exclusive lock. Routing runs
// lock-free, so a slow — or deliberately blocking — partitioner stalls
// only the rebalance, never ingest or queries. The old generation is
// append-frozen (Adds route to the new one), so the snapshot is complete.
func (s *Sharded) drainInto(next *generation) {
	for _, src := range s.old.shard {
		for _, e := range src.snapshot() {
			dst, err := routeTo(next.parts, e)
			if err != nil {
				// The partitioner passed pre-validation but misroutes now
				// (nondeterministic or adversarial). Placement never
				// affects exact correctness, so park the entry in shard 0
				// rather than losing it or corrupting the store.
				dst = 0
			}
			nsh := next.shard[dst]
			nsh.add(e)
			s.byID.Store(e.ID, nsh)
		}
		src.clear()
	}
}

// TrainIVF trains an IVF coarse quantizer from the stored vectors (in
// canonical ID order, so training from a quiesced store is deterministic
// regardless of insert interleaving) and rebalances the store onto it,
// keeping the current shard count. Training and the subsequent handoff
// run incrementally — no store-wide exclusive lock beyond the two brief
// generation swaps — so ingest and queries keep flowing; entries added
// mid-training are not in the training set but route through the trained
// centroids once the new generation installs. Call it once enough history
// has accumulated.
func (s *Sharded) TrainIVF(iters int) error {
	entries := s.snapshotSortedByID()
	if len(entries) == 0 {
		return fmt.Errorf("vectordb: TrainIVF on an empty store")
	}
	vecs := make([][]float64, len(entries))
	for i := range entries {
		vecs[i] = entries[i].Vector
	}
	p, err := TrainIVF(vecs, s.NumShards(), iters)
	if err != nil {
		return err
	}
	return s.Rebalance(p)
}
