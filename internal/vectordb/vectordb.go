// Package vectordb is the embedding vector store of the prediction stage
// (the "Embedding vector DB" of Figure 4). It stores one entry per
// historical incident — embedding vector, root-cause category, occurrence
// time, and the summarized diagnostic text used as a prompt demonstration —
// and answers nearest-neighbour queries under the paper's temporal-decay
// similarity (§4.2.2):
//
//	Distance(a,b)   = ||a − b||₂
//	Similarity(a,b) = 1/(1 + Distance(a,b)) · e^(−α·|T(a) − T(b)|)
//
// where T is the incident date in days. The decay encodes Insight 2:
// recurring incidents cluster within ~20 days, so a recent incident is a
// far better demonstration than an old one at equal embedding distance.
//
// # Decay-bounded exact scans
//
// The first factor is at most 1, so a row's similarity never exceeds its
// decay e^(−α·|T(a) − T(b)|), and in floating point too. Every
// full-precision exact scan (the per-shard TopK and TopKDiverse scans, the
// sharded inline diverse scan, the shared-row batch scan) therefore skips,
// once its accumulator holds k candidates, every row whose time lies
// outside the window where the decay alone could still reach the k-th
// best similarity τ: one timestamp compare instead of a distance and an
// Exp. The window is |Δt| ≤ (−ln τ)/α days plus a margin that absorbs
// every rounding on both sides (derivation on decayGate). The batch scan,
// which computes each row's decay once per group of co-timed queries,
// gates a group on its members' lowest floor and then skips each member
// whose floor that decay is below. The rows a scan keeps are
// scored by the unchanged arithmetic, so results are BIT-IDENTICAL to
// scoring every row — pinned by a differential oracle against the ungated
// loops and FuzzDecayGate. The gate is off for α ≤ 0. Stores reject
// vectors with a NaN or ±Inf component, in entries, snapshots and queries
// alike, so no similarity a gated scan compares is NaN. The quantized
// two-stage scan is not gated.
//
// # Pluggable indexes
//
// The pipeline is written against the Index interface, with two swappable
// implementations sharing one exact retrieval contract (similarity
// descending, ties by ascending entry ID):
//
//   - DB — the flat store: one unpartitioned shard, so it runs the very
//     row store and scan kernels (heap scan, category-slot scan,
//     shared-row batch scan) every partition of Sharded runs, in insertion
//     order under one lock.
//   - Sharded — entries partitioned across N shards (category-hash routing
//     by default, or an IVF-style coarse quantizer trained from the stored
//     vectors via Sharded.TrainIVF) with per-shard locks; queries fan out
//     across shards on the shared internal/parallel pool and merge
//     deterministically, bit-identical to DB for any shard count.
//
// The semantics oracles both are tested against share no code with those
// kernels: a full-sort reference that scores and sorts every row, and the
// ungated scan loops the decay gate is held to. NewIndex selects Sharded
// when Options.Shards > 1 and DB otherwise; both persist the same flat
// snapshot format, so stores round-trip between implementations.
//
// # Exact vs probe-limited retrieval
//
// The sharded store serves two contracts, chosen by the probe budget —
// owned by the recall-SLO tuner (Options.RecallTarget, see Adaptive
// serving below) or pinned manually with Sharded.SetProbes:
//
//   - Exact (probes = 0, the default): every query searches every shard
//     and results are BIT-IDENTICAL to the flat DB — for any shard count,
//     partitioner, insert interleaving, and even while an incremental
//     Rebalance/TrainIVF is draining shards mid-query. All pipeline
//     goldens assume this mode.
//   - Probe-limited (probes = p > 0, IVF routing): TopK and TopKDiverse
//     search only the p partitions ranked nearest the query, skipping
//     empty partitions. This is approximate — a true neighbour stored in
//     an unprobed partition is missed — in exchange for scanning roughly
//     p/shards of the corpus. Whenever probe mode's preconditions fail —
//     category-hash routing, probes covering every non-empty shard, or a
//     rebalance in flight — queries silently fall back to the exact
//     contract, so approximation is strictly opt-in and never degrades
//     below exact.
//
// # Time-aware probe ranking
//
// Each partition maintains a recency summary (its newest-entry
// timestamp), and probe selection ranks partitions by the similarity's
// own functional form — 1/(1+d)·e^(−α·Δt) — with d the query-to-centroid
// distance and Δt the age of the partition's newest entry, so a partition
// holding recent incidents can out-rank a stale partition whose centroid
// is nearer; under the paper's temporal-decay retrieval that is exactly
// when the true neighbours live in the farther partition. This is the
// only ranking: plain centroid distance, which it reduces to at α = 0 or
// when every entry shares one timestamp, survives as a test oracle that
// the time-aware ranking must beat on a time-spread corpus.
//
// # Two-stage quantized probe scan (Sharded.EnableQuantized)
//
// The probe-limited path can additionally trade float memory bandwidth
// for an int8 candidate scan. EnableQuantized (Options.Quantized) builds
// a per-shard scalar-quantized sidecar of the columnar backing — one int8
// code per float plus per-dimension scale/offset trained from the shard's
// own value range — and probe-limited queries then run in two stages:
//
//  1. Candidate collection: walk the shard's int8 rows (8× less memory
//     traffic than float64, integer inner loop) and keep the k×overfetch
//     rows with the best approximate similarity (EnableQuantized's
//     factor, default 4×, which the recall-SLO tuner escalates).
//  2. Re-rank: score only those candidates against the full-precision
//     backing under the exact similarity 1/(1+d)·e^(−α·Δt) and return the
//     best k in the standard retrieval order.
//
// The int8 stage engages exactly when probe-limited serving does — a
// trained IVF partitioner routing, 0 < probes < populated shards, no
// rebalance draining — and never elsewhere: exact fan-out (probes = 0,
// forced-exact shadow queries, mid-rebalance queries, the flat DB) always
// reads the float backing, so exact-mode results remain BIT-IDENTICAL to
// the flat store with quantization on. Approximate results may differ
// from the unquantized probe scan only within the candidate cut: whenever
// k×overfetch covers a probed shard, its two-stage result is identical to
// the exact scan of that shard (the fuzz oracle pins this).
//
// Sidecars are derived state: rebuilt from shard contents on
// Rebalance/TrainIVF and on Load (never serialized — the snapshot format
// is unchanged), and maintained incrementally on Add. An insert outside
// the trained per-dimension range clamps into it and schedules an
// asynchronous per-shard rescale (at most one in flight per shard), so
// the sidecar self-heals as the value distribution moves; the recall-SLO
// tuner's shadow queries compare the SERVED two-stage results against
// exact fan-out, so its recall target is end-to-end and the controller
// compensates first with probes and then — when the next grow would mean
// full fan-out and the loss is quantization rank noise more probes cannot
// recover — by doubling the overfetch pool (capped at 64×), keeping
// serving probe-limited instead of collapsing to exact.
//
// # Adaptive serving (Sharded.EnableAdaptive)
//
// The serving controller closes the loop on probe quality, so one config
// serves both head and tail queries instead of shipping a hand-picked
// probe count:
//
//   - Recall-SLO auto-tuning: a Tuner samples a configurable fraction of
//     live TopK/TopKDiverse queries and shadows each sampled probe-limited
//     query with an exact fan-out OFF the hot path — the served result
//     returns immediately; the shadow runs on its own goroutine holding
//     one slot of the shared internal/parallel budget, at most one in
//     flight. Observed recall@k accumulates in a window; each full window
//     moves the effective probe budget one step — below target grows,
//     comfortably above target shrinks, with hysteresis (the controller
//     remembers the last failing budget and will not shrink back onto it
//     until a retrain changes the geometry). Queries that fell back to
//     exact feed free recall=1 samples, which is how the controller
//     discovers it can shrink an over-provisioned budget. Convergence: the
//     budget rises until either the SLO holds or probes cover every
//     populated partition — at which point serving is exact and recall is
//     1 by construction — so the target is always eventually met. With
//     the quantized stage on, the ladder top is handled differently: one
//     step before full fan-out the controller escalates the candidate
//     overfetch instead of growing (see the two-stage section above).
//     SetProbes is the manual override: it pins the budget and pauses the
//     controller until EnableAdaptive is called again.
//   - Skew-triggered retraining: every RetrainCheckEvery-th Add schedules
//     an asynchronous check of shard imbalance (max/mean of ShardLens) and
//     centroid drift (mean centroid distance of each shard's newest rows
//     vs the quantizer's training distortion); when either ratio reaches
//     RetrainSkew, the incremental TrainIVF runs automatically,
//     rate-limited by MinRetrainInterval. Ingest and queries keep flowing
//     throughout — retraining reuses the generation-based online
//     rebalance.
//
// Shadow queries and retrain checks never run while a rebalance drains
// (those queries are exact already), and Tuner.Quiesce is the barrier
// that waits out in-flight shadow/retrain work where determinism matters.
//
// # Namespaces (multi-tenant views)
//
// Index.Namespace(ns) returns a logical view of the store scoped to one
// namespace — the unit of multi-tenant isolation (the serving layer maps
// one incident team to one namespace). Every store serves its views
// through one view type over the store itself, which passes the scope as
// an argument to two internal per-store methods: a single-query search
// (a BatchQuery with Scoped set) and a scoped count. Views share
// everything physical with the root store: the same shard pool, the same
// columnar backings, the same worker budget, the same locks, the same
// WAL under Durable and the same collector under Batcher (so co-tenant
// queries still coalesce). Only the logical contract changes:
//
//   - Add through a view tags the entry with the view's namespace; Add
//     through the root store leaves the tag empty (the DEFAULT namespace).
//   - TopK/TopKDiverse/TopKBatch through a view scan the same shards the
//     root store would but filter per row, returning only entries of the
//     view's namespace — bit-identical to a dedicated flat store holding
//     only that namespace's entries (pinned by goldens and a namespace
//     dimension of the probe-equivalence fuzz oracle). Len, Get and
//     Categories are scoped the same way.
//   - Namespace("") is the default-namespace view: it serves exactly the
//     untagged entries, so on a store that never tagged anything it is
//     indistinguishable from the root store. The ROOT store itself stays
//     unscoped — it serves every entry regardless of tag — which is what
//     keeps every pre-namespace golden bit-identical.
//   - An unknown namespace is not an error: its view is simply empty
//     (zero hits, zero length). Creating a view and reading through it
//     have no side effect; only writes create tenant state.
//   - Snapshots are whole-store: Save and Load are methods of the
//     concrete stores (DB, Sharded, Durable), not of Index or a view.
//
// On the sharded store each non-default namespace additionally carries its
// own serving state over the shared shard geometry: a probe budget, a
// quantized overfetch factor, and — when adaptive serving is enabled — its
// own recall-SLO controller with its own shadow window, overfetch
// escalation, and skew/retrain triggers (retrains are global, the geometry
// is shared; the per-namespace controllers just decide independently when
// to ask for one). That state is created by the namespace's first Add, by
// Load or WAL replay, or by SetNamespaceProbes — never by a read, so
// request input naming unknown tenants cannot grow it. A scoped read of a
// namespace without state serves exact fan-out and feeds no controller.
// SetNamespaceProbes is the per-tenant manual override; NamespaceStats is
// the per-tenant metrics surface. The default namespace's serving state
// is the root store's own, so single-tenant deployments tune exactly as
// before.
//
// # Batched execution (TopKBatch and Batcher)
//
// TopKBatch serves B heterogeneous queries (per-query k, anchor time,
// decay, diversity flag) in one pass. The sharded executor inverts the
// loop: probe selection still runs per query against the same partition
// ranking sequential serving uses, shards are visited in the union of the
// per-query selections, and each selected shard is visited ONCE under one
// lock for every query that selected it. Full-precision members share
// that visit's columnar row stream, each maintaining its own bounded
// heap; the scan is memory-bandwidth dominated, so the shared stream
// amortizes across the batch the way a blocked matmul amortizes operand
// loads. Quantized members scan per query within the shared shard visit —
// the same two-stage scan (int8 candidates, exact re-rank) sequential
// serving runs, at the member's own namespace overfetch factor. The
// contract is bit-identity: because each query applies exactly the
// sequential per-row arithmetic and consumes rows only from shards its
// own budget selected, out[i] is BIT-IDENTICAL to serving queries[i]
// alone — for exact fan-out, probe-limited, quantized, and mid-rebalance
// serving alike (pinned by goldens and the probe-equivalence fuzz
// oracle). The tuner's shadow sampling observes the served batched
// results, so its recall SLO measures the batched path end-to-end.
//
// Batcher is the serving-side micro-batcher that feeds TopKBatch: a
// time/size-bounded collector that flushes when maxBatch queries have
// accumulated or the oldest has waited maxWait, whichever comes first. A
// query that arrives while the collector is empty and no other query
// follows immediately is served on the single-query fast path — directly
// through TopK/TopKDiverse, no timer wait — so idle-traffic p50 latency
// is unchanged and batching engages exactly when concurrency makes it
// profitable.
//
// BenchmarkTopKProbes records the recall-vs-speedup trade-off against the
// flat oracle (see BENCH_retrieval.json), and a pinned recall floor
// (recall@5 >= 0.9 at probes=2 on the seeded clustered corpus) guards the
// approximate mode in CI; BenchmarkTopKProbesTimeSpread does the same for
// time-aware ranking and the auto-tuner on a corpus whose timestamps span
// the decay horizon.
//
// # Durability (OpenDurable)
//
// Both stores are in-memory; Save/Load is an explicit whole-store
// snapshot. OpenDurable wraps any Index in a write-ahead log
// (internal/wal): adds, IVF retrains, serving-state changes, and the
// feedback loop's retry-schedule transitions are journaled as
// group-committed records, recovery replays last-snapshot + log suffix
// into a staging store (truncating at the first torn frame) before
// swapping it in, and periodic compaction checkpoints into the standard
// snapshot format — trailer included — and rotates the log atomically.
// See Durable for the full crash-safety contract; the crash-injection
// matrix (TestDurableCrashMatrix) pins it against the flat oracle at
// every frame boundary.
package vectordb

import (
	"container/heap"
	"fmt"
	"math"
	"time"

	"repro/internal/incident"
)

// Entry is one stored historical incident.
type Entry struct {
	ID       string
	Vector   []float64
	Category incident.Category
	Time     time.Time
	// Namespace is the tenant tag (the owning team in the serving layer).
	// Empty is the default namespace — the pre-namespace semantics. Set by
	// adding through a namespace view; see the package comment's namespace
	// contract. Gob-additive: snapshots written before this field existed
	// load with every entry in the default namespace.
	Namespace string
	// Summary is the summarized diagnostic text shown as the demonstration
	// body in the Figure 9 prompt.
	Summary string
}

// scope is the per-query namespace restriction threaded through every scan
// path. The zero value is unscoped (the root store's view: every entry
// matches), so pre-namespace call sites compile into the exact code they
// ran before — the filter branch is never taken.
type scope struct {
	on bool
	ns string
}

// match reports whether an entry with the given namespace tag is visible
// under the scope.
func (sc scope) match(ns string) bool { return !sc.on || sc.ns == ns }

// Scored is a retrieval result.
type Scored struct {
	Entry      Entry
	Distance   float64
	Similarity float64
}

// Index is the retrieval interface the prediction stage works against.
// Implementations are safe for concurrent use and share the exact
// retrieval contract: results ordered by temporal-decay similarity
// descending, ties broken by ascending entry ID.
type Index interface {
	// Dim returns the vector dimensionality.
	Dim() int
	// Len returns the number of stored entries.
	Len() int
	// Add stores an entry, rejecting dimension mismatches, duplicate IDs
	// and non-finite vector components.
	Add(e Entry) error
	// Get returns the entry with the given ID.
	Get(id string) (Entry, bool)
	// Categories returns the sorted set of distinct categories stored.
	Categories() []incident.Category
	// TopK returns the k most similar entries (every entry when k
	// exceeds Len).
	TopK(query []float64, qt time.Time, k int, alpha float64) ([]Scored, error)
	// TopKDiverse returns the k most similar entries with each category
	// appearing at most once (§4.2.2).
	TopKDiverse(query []float64, qt time.Time, k int, alpha float64) ([]Scored, error)
	// TopKBatch executes a batch of queries — each with its own k, anchor
	// time, decay, and diversity flag — in one pass over the store, with
	// out[i] bit-identical to serving queries[i] alone through
	// TopK/TopKDiverse (see the package comment's batched execution
	// contract).
	TopKBatch(queries []BatchQuery) ([][]Scored, error)
	// Namespace returns a logical view of the store scoped to one tenant
	// namespace: Add tags entries, queries filter to the namespace, and
	// everything physical (shards, backings, worker budget) is shared with
	// the root store. Namespace("") is the default-namespace view; see the
	// package comment's namespace contract.
	Namespace(ns string) Index
}

// Options selects and parameterizes an Index implementation.
type Options struct {
	// Shards partitions the store into this many category-hash shards
	// with parallel query fan-out (IVF routing arrives later through
	// Sharded.TrainIVF or Rebalance); 0 or 1 selects the flat exact store.
	Shards int
	// RecallTarget enables the recall-SLO auto-tuner on the sharded store:
	// shadow queries (AutoConfig's default rate) measure observed recall@k
	// and the effective probe budget is grown/shrunk to hold this target
	// (see Sharded.EnableAdaptive). 0 disables; ignored by the flat store.
	RecallTarget float64
	// RetrainSkew enables skew-triggered IVF retraining when >= 1: once
	// max/mean of the per-shard entry counts — or the centroid-drift ratio
	// of fresh inserts — reaches this value, TrainIVF is kicked
	// automatically, rate-limited. 0 disables; ignored by the flat store.
	RetrainSkew float64
	// Quantized opts the sharded store into the two-stage int8 probe scan
	// (see the package comment) at the DefaultOverfetch candidate factor:
	// probe-limited queries collect candidates from a per-shard
	// scalar-quantized sidecar and re-rank them at full precision.
	// Dormant until probe mode engages; exact fan-out is unaffected.
	// Ignored by the flat store.
	Quantized bool
}

// NewIndex builds the Index implementation the options select: a Sharded
// store when Shards > 1, otherwise a flat DB.
func NewIndex(dim int, opts Options) Index {
	if opts.Shards > 1 {
		s := NewSharded(dim, opts.Shards, nil)
		if opts.RecallTarget > 0 || opts.RetrainSkew > 0 {
			// Cannot fail: the only invalid shapes (out-of-range fractions,
			// a sub-1 skew ratio) are documented as caller-validated, and
			// core.Config rejects them before Options is built.
			_, _ = s.EnableAdaptive(AutoConfig{
				RecallTarget: opts.RecallTarget,
				RetrainSkew:  opts.RetrainSkew,
			})
		}
		if opts.Quantized {
			_ = s.EnableQuantized(0) // cannot fail: 0 selects the default
		}
		return s
	}
	return New(dim)
}

// DB is the flat exact-search store: one unpartitioned shard — the same
// columnar row store and scan kernels every partition of Sharded runs —
// plus a per-namespace entry tally.
type DB struct {
	sh shard
	// nsCount tallies entries per namespace tag (key "" is the default
	// namespace) so namespace views answer Len without a scan; guarded by
	// sh.mu.
	nsCount map[string]int
}

var _ snapshotter = (*DB)(nil)

// New returns an empty store for vectors of the given dimensionality.
func New(dim int) *DB {
	return &DB{sh: shard{dim: dim, byID: make(map[string]int)}, nsCount: make(map[string]int)}
}

// Dim returns the vector dimensionality.
func (db *DB) Dim() int { return db.sh.dim }

// Len returns the number of stored entries.
func (db *DB) Len() int { return db.sh.length() }

// validateEntry checks an entry against the store dimensionality and
// rejects non-finite components; shared by every Index implementation so
// they reject identically.
func validateEntry(dim int, e Entry) error {
	if len(e.Vector) != dim {
		return fmt.Errorf("vectordb: entry %s has dim %d, store has %d", e.ID, len(e.Vector), dim)
	}
	if e.ID == "" {
		return fmt.Errorf("vectordb: entry has empty ID")
	}
	if i := nonFinite(e.Vector); i >= 0 {
		return fmt.Errorf("vectordb: entry %s has non-finite component %d (%v)", e.ID, i, e.Vector[i])
	}
	return nil
}

// nonFinite returns the index of v's first NaN or ±Inf component, or -1.
func nonFinite(v []float64) int {
	for i, x := range v {
		if x-x != 0 {
			return i
		}
	}
	return -1
}

// Add stores an entry, rejecting dimension mismatches, duplicate IDs and
// non-finite vector components. The duplicate check, the append and the
// namespace tally happen under one hold of the shard lock.
func (db *DB) Add(e Entry) error {
	if err := validateEntry(db.sh.dim, e); err != nil {
		return err
	}
	db.sh.mu.Lock()
	defer db.sh.mu.Unlock()
	if _, dup := db.sh.byID[e.ID]; dup {
		return fmt.Errorf("vectordb: duplicate entry ID %s", e.ID)
	}
	db.sh.addLocked(e)
	db.nsCount[e.Namespace]++
	return nil
}

// Get returns the entry with the given ID.
func (db *DB) Get(id string) (Entry, bool) {
	db.sh.mu.RLock()
	defer db.sh.mu.RUnlock()
	i, ok := db.sh.byID[id]
	if !ok {
		return Entry{}, false
	}
	return db.sh.materialize(i), true
}

// Categories returns the set of distinct categories stored.
func (db *DB) Categories() []incident.Category { return categoriesIn(db, scope{}) }

// tally implements root: the scope's entry count from the per-namespace
// tallies, or one locked pass when cats asks for categories too.
func (db *DB) tally(sc scope, cats map[incident.Category]int) int {
	if cats != nil {
		return db.sh.tally(sc, cats, nil)
	}
	db.sh.mu.RLock()
	defer db.sh.mu.RUnlock()
	if !sc.on {
		return len(db.sh.entries)
	}
	return db.nsCount[sc.ns]
}

// Distance is the Euclidean distance of the paper's similarity formula.
func Distance(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Similarity evaluates the paper's formula for a query (vector, time)
// against an entry, with temporal-decay coefficient alpha per day.
func Similarity(query []float64, qt time.Time, e Entry, alpha float64) (dist, sim float64) {
	return similarityAt(query, qt, e.Vector, e.Time, alpha)
}

// similarityAt is Similarity over a raw (vector, time) pair, so the
// sharded store's columnar scan can score rows without assembling an
// Entry.
func similarityAt(query []float64, qt time.Time, vec []float64, et time.Time, alpha float64) (dist, sim float64) {
	dist = Distance(query, vec)
	days := math.Abs(qt.Sub(et).Hours()) / 24
	sim = 1 / (1 + dist) * math.Exp(-alpha*days)
	return dist, sim
}

// decayGate prunes the rows of one exact scan by their timestamp alone.
// similarityAt returns sim = fl(fl(1/fl(1+d))·decay), and for d ≥ 0 the
// factor fl(1/fl(1+d)) is at most 1 (rounding is monotone), so sim ≤ decay;
// a NaN d gives a NaN sim, which never displaces a full accumulator. Once
// the scan's accumulator holds k candidates whose worst scores τ, a row
// whose decay is below τ cannot enter it, and the gate skips every row
// farther than cut from the query time before computing its distance or
// its Exp. Surviving rows run the unchanged similarityAt, so a gated scan
// returns bit-identical results.
//
// With L = −Log(τ), cut is (L+1e-12)·(1+1e-9)/α days, rounded up to a
// nanosecond. For |qt−et| > cut the exact exponent α·|Δt|/day is at least
// (L+1e-12)·(1+1e-9). Each rounding between it and the exponent
// similarityAt computes (Duration.Hours, /24, α·days, and the gate's own
// Log, /α and ·day) is a relative error below 1e-14, which the 1e-9
// factor absorbs, so the computed exponent still exceeds the true −ln τ by
// 1e-12, and Exp, within one ulp, returns at most
// τ·e^(−1e-12)·(1+2^−52) < τ.
//
// The gate holds the window as Unix seconds [lo, hi], lo the second of
// qt−cut and hi that of qt+cut, and skips a row whose Unix second lies
// outside it: one integer compare per side. A row before second lo is
// stamped before qt−cut and a row after second hi after qt+cut, so
// |qt.Sub(et)| > cut (Sub saturates only when the true difference exceeds
// every Duration, past any cut too). Rows within the boundary seconds are
// scored, which is always safe. Unix seconds read the wall clock, and so
// does Sub unless both times carry a monotonic clock reading, so a query
// time that carries one (an unstripped time.Now()) leaves the gate off.
// Unix seconds wrap only ~292 billion years before 1970: a window whose
// low end wraps has lo > hi and stays off, and a wrapped row lands above
// every other window, far enough that Sub saturates.
//
// The gate is off (skips nothing) until a positive, normal τ arrives
// (math.Log is not accurate on subnormal inputs: on amd64 it returns
// ≈ −709 for every one of them), for α ≤ 0 or NaN (the bound needs
// decay ≤ 1), and while the cut would not fit in a Duration. Off is an
// explicit flag, not a maximal window, because saturating Sub can place a
// row beyond any cut.
type decayGate struct {
	qt     time.Time
	alpha  float64
	tau    float64 // the floor the window was derived from; only grows
	lo, hi int64   // Unix seconds: a row stamped outside [lo, hi] has decay < tau
	on     bool    // the window is valid
}

func newDecayGate(qt time.Time, alpha float64) decayGate {
	if qt != qt.Round(0) { // a monotonic reading (Round(0) strips it)
		alpha = 0
	}
	return decayGate{qt: qt, alpha: alpha}
}

// raise lifts the gate's floor to tau, recomputing the window only when
// tau grows (the check the per-row call inlines); a NaN, non-positive or
// subnormal tau leaves the gate as it is.
func (g *decayGate) raise(tau float64) {
	if tau > g.tau {
		g.lift(tau)
	}
}

func (g *decayGate) lift(tau float64) {
	if !(g.alpha > 0) || tau < 0x1p-1022 {
		return
	}
	g.tau = tau
	ns := (-math.Log(tau) + 1e-12) * (1 + 1e-9) / g.alpha * float64(24*time.Hour)
	if ns < math.MaxInt64 { // false for +Inf and NaN too
		cut := time.Duration(math.Ceil(ns))
		g.lo, g.hi = g.qt.Add(-cut).Unix(), g.qt.Add(cut).Unix()
		g.on = g.lo <= g.hi
	}
}

// skip reports whether a row stamped at Unix second sec cannot reach the
// floor.
func (g *decayGate) skip(sec int64) bool {
	return g.on && (sec < g.lo || sec > g.hi)
}

// ranksAfter reports whether a ranks strictly after (worse than) b in
// retrieval order: similarity descending, ties broken by older-first ID for
// determinism.
func ranksAfter(a, b Scored) bool {
	return rankAfter(a.Similarity, a.Entry.ID, b.Similarity, b.Entry.ID)
}

// rankAfter is ranksAfter over bare (similarity, ID) keys.
func rankAfter(aSim float64, aID string, bSim float64, bID string) bool {
	if aSim != bSim {
		return aSim < bSim
	}
	return aID > bID
}

// catBest is the per-call state of a diverse scan: each category's
// best-ranked row so far, held by reference in a slot — (source, row, ID,
// distance, similarity) — so the scan copies no Entry per row and only
// the k winners are ever materialized. src names the scanned row set a
// row belongs to (a shard index when one scan spans several shards).
type catBest struct {
	slot  map[incident.Category]int
	slots []catSlot
	// rows counts floor calls since the last refresh, low is the floor
	// that refresh computed, and dirty records a slot rising above low
	// since.
	rows  int
	low   float64
	dirty bool
}

type catSlot struct {
	src, row  int
	id        string
	dist, sim float64
}

func newCatBest() catBest {
	return catBest{slot: make(map[incident.Category]int, 64), slots: make([]catSlot, 0, 64)}
}

// offer folds one scored row into its category's slot, keeping the
// better-ranked of the two — the comparison the Entry-copying scans made.
func (b *catBest) offer(cat incident.Category, id string, src, row int, dist, sim float64) {
	j, ok := b.slot[cat]
	if !ok {
		b.slot[cat] = len(b.slots)
		b.slots = append(b.slots, catSlot{src: src, row: row, id: id, dist: dist, sim: sim})
		b.dirty = b.dirty || sim > b.low
		return
	}
	if cur := &b.slots[j]; rankAfter(cur.sim, cur.id, sim, id) {
		*cur = catSlot{src: src, row: row, id: id, dist: dist, sim: sim}
		b.dirty = b.dirty || sim > b.low
	}
}

// Floor refresh cadence and the largest k it serves: the k best
// similarities are selected into a stack array, so the floor costs no
// allocation, and a larger k leaves the gate off.
const (
	catFloorEvery = 32
	catFloorMaxK  = 32
)

// floor returns a lower bound on the k-th best slot's similarity, for the
// decay gate; call it once per scored row. It refreshes at most every
// catFloorEvery calls, and only after a slot rose above it; slots only
// improve, so a stale floor is lower than the true one. It stays 0 until
// k slots exist. NaN slots do not reach a gate: stored and query vectors
// are finite (validateEntry, checkQuery), so a similarity is NaN only for
// α = NaN, or α = ±Inf at Δt = 0 where every other decay is 0 or +Inf;
// then τ is 0 or α ≤ 0, the gate stays off, and no decay falls below a
// floor.
func (b *catBest) floor(k int) float64 {
	if b.rows++; b.rows >= catFloorEvery && b.dirty {
		b.refresh(k)
	}
	return b.low
}

func (b *catBest) refresh(k int) {
	b.rows, b.dirty = 0, false
	if k > catFloorMaxK || len(b.slots) < k {
		return
	}
	var best [catFloorMaxK]float64 // the k best so far, descending
	m := 0
	for i := range b.slots {
		s := b.slots[i].sim
		if m == k {
			if s <= best[k-1] {
				continue
			}
			m--
		}
		j := m
		for ; j > 0 && best[j-1] < s; j-- {
			best[j] = best[j-1]
		}
		best[j] = s
		m++
	}
	b.low = best[k-1]
}

// top reorders the slots in place and returns the k best-ranked, best
// first: an insertion pass that keeps the best k seen so far at the front
// of the slice, so it only ever writes below index k.
func (b *catBest) top(k int) []catSlot {
	s := b.slots
	m := 0
	for i := range s {
		c := s[i]
		if m == k {
			if !rankAfter(s[m-1].sim, s[m-1].id, c.sim, c.id) {
				continue
			}
			m--
		}
		j := m
		for ; j > 0 && rankAfter(s[j-1].sim, s[j-1].id, c.sim, c.id); j-- {
			s[j] = s[j-1]
		}
		s[j] = c
		m++
	}
	return s[:m]
}

// scored materializes slot c as a result over its entry and vector row.
func (c *catSlot) scored(e Entry, vec []float64) Scored {
	e.Vector = append([]float64(nil), vec...)
	return Scored{Entry: e, Distance: c.dist, Similarity: c.sim}
}

// mergeDiverse merges diverse results from several row sets (shards, or
// the two generations of a rebalance) into the global k best, each
// category represented by its best-ranked entry across them. Every input
// may hold just its own k best categories: for a category C in the global
// top k, the row set holding C's global best ranks fewer than k
// categories above C (each such category's local best outranks C's best,
// so the category outranks C globally too), so C arrives with its true
// best; a category cut short elsewhere arrives at worst with a worse
// representative, which cannot displace a true top-k member. Keep-best is
// commutative, associative and idempotent, so an entry seen twice (a
// migrating row mid-rebalance) merges with itself. Categories reach the
// final heap in first-seen order, so even NaN similarities, which the
// total order does not cover, merge deterministically.
func mergeDiverse(parts [][]Scored, k int) []Scored {
	slot := make(map[incident.Category]int)
	var best []Scored
	for _, scs := range parts {
		for _, sc := range scs {
			if j, ok := slot[sc.Entry.Category]; !ok {
				slot[sc.Entry.Category] = len(best)
				best = append(best, sc)
			} else if ranksAfter(best[j], sc) {
				best[j] = sc
			}
		}
	}
	h := newWorstFirst(k, len(best))
	for _, sc := range best {
		h.offer(sc, k)
	}
	return h.drain()
}

// worstFirst is a bounded min-heap over retrieval rank: the root is the
// worst-ranked entry kept so far, so streaming selection evicts it in O(log
// k) when a better candidate arrives.
type worstFirst []Scored

// newWorstFirst returns an empty heap for the k best of at most rows
// candidates. Its capacity is min(k, rows): k is caller input and may be
// far larger than any scan can fill.
func newWorstFirst(k, rows int) worstFirst { return make(worstFirst, 0, min(k, rows)) }

func (h worstFirst) Len() int           { return len(h) }
func (h worstFirst) Less(i, j int) bool { return ranksAfter(h[i], h[j]) }
func (h worstFirst) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *worstFirst) Push(x any)        { *h = append(*h, x.(Scored)) }
func (h *worstFirst) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// offer streams one candidate into the bounded heap of capacity k.
func (h *worstFirst) offer(sc Scored, k int) {
	if len(*h) < k {
		heap.Push(h, sc)
	} else if ranksAfter((*h)[0], sc) {
		(*h)[0] = sc
		heap.Fix(h, 0)
	}
}

// floor is the decay gate's bound for a heap of capacity k: the root's
// similarity once the heap is full (a row below it fails the pre-check
// every scan makes), 0 before.
func (h worstFirst) floor(k int) float64 {
	if len(h) < k {
		return 0
	}
	return h[0].Similarity
}

// drain empties the heap into a best-first ordered slice.
func (h *worstFirst) drain() []Scored {
	out := make([]Scored, len(*h))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(Scored)
	}
	return out
}

// checkQuery validates query shape for any Index implementation.
func checkQuery(dim int, query []float64, k int) error {
	if len(query) != dim {
		return fmt.Errorf("vectordb: query dim %d, store dim %d", len(query), dim)
	}
	if k <= 0 {
		return fmt.Errorf("vectordb: k must be positive, got %d", k)
	}
	if i := nonFinite(query); i >= 0 {
		return fmt.Errorf("vectordb: query has non-finite component %d (%v)", i, query[i])
	}
	return nil
}

// TopKDiverse returns the k most similar entries under the constraint that
// each root-cause category appears at most once — the paper "select[s] the
// top K incidents from different categories as demonstrations ... a diverse
// and representative set" (§4.2.2). Results are ordered by similarity
// descending; ties break by older-first ID for determinism. Only each
// category's best-ranked entry can ever be selected, so one streaming pass
// keeps a slot per category and only the k winners are copied out.
func (db *DB) TopKDiverse(query []float64, qt time.Time, k int, alpha float64) ([]Scored, error) {
	return db.search(BatchQuery{Vector: query, Time: qt, K: k, Alpha: alpha, Diverse: true})
}

// TopK returns the k most similar entries without the category-diversity
// constraint (used by ablations), via a single streaming pass with a
// size-k bounded heap.
func (db *DB) TopK(query []float64, qt time.Time, k int, alpha float64) ([]Scored, error) {
	return db.search(BatchQuery{Vector: query, Time: qt, K: k, Alpha: alpha})
}

// search implements root: one query under its own namespace scope.
func (db *DB) search(q BatchQuery) ([]Scored, error) {
	if err := checkQuery(db.sh.dim, q.Vector, q.K); err != nil {
		return nil, err
	}
	if q.Diverse {
		return db.sh.categoryBest(q.Vector, q.Time, q.K, q.Alpha, bqScope(&q)), nil
	}
	return db.sh.topK(q.Vector, q.Time, q.K, q.Alpha, bqScope(&q)), nil
}

// Namespace returns a view of the flat store scoped to ns; see the package
// comment's namespace contract.
func (db *DB) Namespace(ns string) Index { return view{db, ns} }
