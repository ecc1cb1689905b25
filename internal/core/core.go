// Package core wires RCACopilot's two stages together (Figure 4): the
// diagnostic-information collection stage (incident parsing, handler
// matching, multi-source collection) and the root-cause prediction stage
// (LLM summarization, embedding, temporal nearest-neighbour retrieval,
// chain-of-thought category prediction with explanation).
//
// # Concurrency
//
// A Copilot is safe for concurrent use: HandleIncident, Collect, Predict,
// Summarize, Learn and LearnBatch may be called from many goroutines at
// once, each on its own incident. Both pipeline stages run unserialized.
// The prediction stage is embarrassingly parallel — the chat client,
// embedder and vector store are either stateless or internally locked — and
// the collection stage executes each handler run on its own execution
// context (transport.Exec): telemetry cost accumulates in a per-run
// accumulator and virtual time advances on a per-run clock view based at
// the incident's creation time, so nothing interleaves across runs. When a
// run finishes, its accumulator merges into the fleet meter and the shared
// virtual clock advances past the run's total cost; both operations
// commute, so fleet-level accounting is deterministic regardless of how
// concurrent collections interleave. SetEmbedder may race with in-flight
// calls only in the trivial sense that each call atomically sees either the
// old or the new retriever; callers are expected to attach the embedder
// before serving traffic.
package core

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/embed/fasttext"
	"repro/internal/handler"
	"repro/internal/incident"
	"repro/internal/llm"
	"repro/internal/llm/simgpt"
	"repro/internal/parallel"
	"repro/internal/prompt"
	"repro/internal/timeutil"
	"repro/internal/transport"
	"repro/internal/vectordb"
)

// Embedder maps incident text into the retrieval vector space. The default
// is a FastText model trained on historical incidents (§4.2.1); the GPT-4
// Embed. baseline swaps in the LLM's embedding endpoint. Users may plug in
// their own ("we provide users with the flexibility to customize their
// embedding model").
type Embedder interface {
	Embed(text string) ([]float64, error)
	Dim() int
}

// FastTextEmbedder adapts a trained FastText model. Document vectors are
// unit-normalized and multiplied by Scale: the temporal-decay similarity
// 1/(1+d)·e^(−α·Δt) trades embedding distance against days, so the
// embedding's distance scale decides how many days of recency a semantic
// match is worth. Scale is calibrated so the paper's α = 0.3 sits at the
// retrieval sweet spot (Figure 12).
type FastTextEmbedder struct {
	Model *fasttext.Model
	// Scale defaults to 24 (≈ one unit of cosine distance is worth ~12
	// days of recency at α = 0.3).
	Scale float64
}

// Embed implements Embedder.
func (f FastTextEmbedder) Embed(text string) ([]float64, error) {
	v := f.Model.DocVector(text)
	scale := f.Scale
	if scale == 0 {
		scale = 24
	}
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	if norm > 0 {
		k := scale / math.Sqrt(norm)
		for i := range v {
			v[i] *= k
		}
	}
	return v, nil
}

// Dim implements Embedder.
func (f FastTextEmbedder) Dim() int { return f.Model.Dim() }

// LLMEmbedder adapts an llm.Client's embedding endpoint (GPT-4 Embed.).
type LLMEmbedder struct {
	Client llm.Client
	// EmbedDim must match the client's embedding output width.
	EmbedDim int
}

// Embed implements Embedder.
func (l LLMEmbedder) Embed(text string) ([]float64, error) { return l.Client.Embed(text) }

// Dim implements Embedder.
func (l LLMEmbedder) Dim() int { return l.EmbedDim }

// ContextSources selects which incident information feeds the prediction
// prompt — the paper's Table 3 ablation axes.
type ContextSources struct {
	// AlertInfo includes the alert type and scope block.
	AlertInfo bool
	// DiagnosticInfo includes the collected multi-source diagnostic text.
	DiagnosticInfo bool
	// Summarized replaces raw diagnostic text with its LLM summary
	// (the ✓sum. row of Table 3, RCACopilot's default).
	Summarized bool
	// ActionOutput includes the handler actions' key-value outputs.
	ActionOutput bool
}

// DefaultContext is RCACopilot's shipped configuration: summarized
// diagnostic information only, the best row of Table 3.
func DefaultContext() ContextSources {
	return ContextSources{DiagnosticInfo: true, Summarized: true}
}

// Shard-routing strategies for Config.Partitioner.
const (
	// PartitionCategory routes entries to shards by a hash of their
	// root-cause category (the default).
	PartitionCategory = "category"
	// PartitionIVF routes entries to shards through an IVF-style coarse
	// quantizer trained from the stored vectors after each batch ingest.
	PartitionIVF = "ivf"
)

// Config parameterizes a Copilot, and through the root package's
// NewSystem a whole deployment: the chat model, the retrieval embedding,
// K and α (§4.2), and the serving store.
type Config struct {
	// Model selects the simulated chat model New builds when Chat is nil:
	// simgpt.GPT4 (the default) or simgpt.GPT35.
	Model string
	// Seed drives all stochastic behaviour: the simulated chat model and
	// the FastText training seed (see Embedding).
	Seed int64
	// Embedding overrides FastText training parameters for the root
	// package's TrainEmbedding. Embedding.Seed defaults to Seed.
	Embedding fasttext.Config
	// Chat overrides the chat model entirely (New then ignores Model and
	// Seed for it); use it to plug a real LLM endpoint into the pipeline.
	// Copilot.Config reports the client in use.
	Chat llm.Client
	// Team owns the handlers (default "Transport").
	Team string
	// MultiTenant serves each incident's owning team as a tenant over the
	// shared vector store: learned entries are tagged with the incident's
	// OwningTeam as their namespace, Predict retrieves through that team's
	// namespace view (so a team's demonstrations never come from a
	// co-tenant's history), handler matching tries the owning team's
	// handlers before falling back to Team's, and each collection run's
	// telemetry cost is attributed per tenant ("team/site" meter keys).
	// Off (the default), every entry lands in the default namespace and
	// behavior is bit-identical to the single-tenant system.
	MultiTenant bool
	// K is the number of demonstrations retrieved (default 5, §4.2.2).
	K int
	// Alpha is the temporal-decay coefficient per day (default 0.3). New
	// rejects a negative, NaN or infinite value: a negative decay would
	// rank older incidents higher.
	Alpha float64
	// Context selects the prompt context sources (default: summarized
	// diagnostic info).
	Context ContextSources
	// PromptReserve keeps headroom for instructions and the completion
	// within the model context window (default 768 tokens).
	PromptReserve int
	// Shards partitions the vector store into this many shards with
	// parallel query fan-out. 0 (unset) defaults to runtime.NumCPU(), so a
	// stock deployment scales with the machine; an explicit 1 keeps the
	// flat exact store. Results are bit-identical either way — sharding
	// changes scaling, not retrieval semantics.
	Shards int
	// Partitioner selects shard routing when Shards > 1:
	// PartitionCategory or PartitionIVF. Unset, it is derived: PartitionIVF
	// when adaptive serving (RecallTarget or RetrainSkew) is on, since probe
	// selection and retraining need the IVF quantizer, PartitionCategory
	// otherwise.
	Partitioner string
	// RecallTarget opts retrieval into probe-limited approximate serving
	// owned by the recall-SLO auto-tuner: queries search only the IVF
	// partitions nearest the query, one live retrieval in twenty (the
	// vectordb.AutoConfig default shadow rate) is shadowed with an exact
	// fan-out off the hot path, and the probe budget grows/shrinks to hold
	// this observed recall@k target (e.g. 0.95). Requires Shards > 1 and
	// the IVF partitioner; must be in (0, 1]. 0 disables, keeping exact
	// fan-out bit-identical to the flat store. vectordb.Sharded.SetProbes
	// is the runtime manual override. See vectordb.Sharded.EnableAdaptive.
	RecallTarget float64
	// RetrainSkew enables skew-triggered IVF retraining when >= 1: once
	// per-shard imbalance (max/mean of the shard entry counts) or the
	// centroid drift of fresh inserts reaches this ratio, the quantizer
	// retrains automatically (rate-limited, online — ingest and queries
	// keep flowing). Requires Shards > 1 and the IVF partitioner. 0
	// disables.
	RetrainSkew float64
	// Quantized enables the two-stage quantized probe scan: probe-limited
	// queries walk a per-shard int8 sidecar to collect K×overfetch
	// candidates (vectordb.DefaultOverfetch, escalated by the tuner when
	// recall needs a wider pool), then re-rank exactly against the
	// full-precision vectors. Requires RecallTarget > 0 — exact fan-out
	// never touches the sidecar, so quantization without a probe budget
	// would silently never engage. See vectordb.Sharded.EnableQuantized.
	Quantized bool
	// AsyncLearnQueue, when positive, moves feedback-loop learning off the
	// hot path: the root package's Feedback() verdicts enqueue onto a
	// background ingest worker with this queue capacity instead of
	// re-summarizing inline. Call Feedback().Flush() for read-your-writes
	// before querying. 0 keeps the synchronous default; negative values
	// are rejected.
	AsyncLearnQueue int
	// BatchMax enables micro-batched retrieval: concurrent retrieval
	// queries (Retrieve, Predict's neighbour lookup) coalesce through a
	// vectordb.Batcher into TopKBatch executions of at most this size,
	// amortizing the shard scan across the batch. An under-filled batch
	// waits at most 500µs for companions. 0 or 1 disables batching;
	// negative values are rejected. Idle traffic keeps the single-query
	// fast path, so enabling batching does not add latency when there is
	// no concurrency to harvest.
	BatchMax int
	// WALDir enables the durable vector store: SetEmbedder opens a
	// write-ahead-logged store rooted at this directory instead of a fresh
	// in-memory one, replaying any previous snapshot + log so a crashed
	// process resumes with its learned history and converged serving
	// state. The embedder attached must reproduce the vector space the
	// logged entries were embedded in (the daemon trains its FastText
	// model deterministically from the corpus, so a reboot gets the same
	// space); a dimension mismatch fails SetEmbedder rather than serving
	// mixed-space vectors. Train the embedding from the same corpus with
	// the same Seed on every boot — the logged vectors belong to that
	// embedding space. Empty (the default) keeps the in-memory store.
	WALDir string
	// WALSyncEvery is the WAL group-commit size boundary: the append that
	// fills the batch to this many records fsyncs it. 0 defaults to 64;
	// 1 makes every learned entry durable before Learn returns. Requires
	// WALDir.
	WALSyncEvery int
	// WALSyncInterval is the WAL group-commit flush cadence for
	// under-filled batches. 0 defaults to 50ms. Requires WALDir.
	WALSyncInterval time.Duration
	// WALCompactBytes is the log size that triggers snapshot compaction
	// and log rotation. 0 defaults to 4 MiB; negative disables automatic
	// compaction. Requires WALDir.
	WALCompactBytes int64
}

// WithDefaults returns the config with every unset field at the default
// New applies (the effective configuration Copilot.Config reports).
func (c Config) WithDefaults() Config {
	if c.Model == "" && c.Chat == nil {
		c.Model = simgpt.GPT4
	}
	if c.Embedding.Seed == 0 {
		c.Embedding.Seed = c.Seed
	}
	if c.Team == "" {
		c.Team = "Transport"
	}
	if c.K <= 0 {
		c.K = 5
	}
	if c.Alpha == 0 {
		c.Alpha = 0.3
	}
	if c.Context == (ContextSources{}) {
		c.Context = DefaultContext()
	}
	if c.PromptReserve <= 0 {
		c.PromptReserve = 768
	}
	if c.Partitioner == "" {
		c.Partitioner = PartitionCategory
		if c.adaptive() {
			c.Partitioner = PartitionIVF
		}
	}
	if c.Shards <= 0 {
		c.Shards = runtime.NumCPU()
	}
	return c
}

// adaptive reports whether the config turns on the recall tuner or
// skew-triggered retraining.
func (c Config) adaptive() bool { return c.RecallTarget > 0 || c.RetrainSkew > 0 }

// batchWait bounds how long the micro-batching collector holds an
// under-filled batch open for companion queries before flushing it.
const batchWait = 500 * time.Microsecond

// Validate reports whether the config, with defaults applied, describes a
// servable Copilot. New calls it; front ends call it up front to fail
// before building anything.
func (c Config) Validate() error {
	c = c.WithDefaults()
	if c.Alpha < 0 || math.IsNaN(c.Alpha) || math.IsInf(c.Alpha, 0) {
		return fmt.Errorf("core: Alpha %v must be a finite, non-negative decay per day (0 selects the default 0.3)", c.Alpha)
	}
	if c.Partitioner != PartitionCategory && c.Partitioner != PartitionIVF {
		return fmt.Errorf("core: unknown partitioner %q (want %q or %q)",
			c.Partitioner, PartitionCategory, PartitionIVF)
	}
	if c.RecallTarget < 0 || c.RecallTarget > 1 {
		return fmt.Errorf("core: RecallTarget %v outside (0, 1]", c.RecallTarget)
	}
	if c.RetrainSkew != 0 && c.RetrainSkew < 1 {
		return fmt.Errorf("core: RetrainSkew %v must be 0 (off) or >= 1 (a max/mean ratio)", c.RetrainSkew)
	}
	if c.adaptive() {
		if c.Shards <= 1 {
			return fmt.Errorf("core: adaptive serving (RecallTarget/RetrainSkew) requires a sharded vector store (Shards > 1)")
		}
		if c.Partitioner != PartitionIVF {
			return fmt.Errorf("core: adaptive serving (RecallTarget/RetrainSkew) requires Partitioner=%q (got %q)",
				PartitionIVF, c.Partitioner)
		}
	}
	if c.Quantized && c.RecallTarget == 0 {
		// The int8 sidecar only serves probe-limited queries: without the
		// SLO-owned probe budget the flag would silently never engage,
		// masking a misconfiguration.
		return fmt.Errorf("core: Quantized requires RecallTarget > 0 (probe-limited serving); exact fan-out never uses the sidecar")
	}
	if c.AsyncLearnQueue < 0 {
		return fmt.Errorf("core: negative AsyncLearnQueue %d (use 0 to learn inline)", c.AsyncLearnQueue)
	}
	if c.BatchMax < 0 {
		return fmt.Errorf("core: negative BatchMax %d (use 0 to disable batching)", c.BatchMax)
	}
	if c.WALSyncEvery < 0 {
		return fmt.Errorf("core: negative WALSyncEvery %d", c.WALSyncEvery)
	}
	if c.WALSyncInterval < 0 {
		return fmt.Errorf("core: negative WALSyncInterval %v", c.WALSyncInterval)
	}
	if c.WALDir == "" && (c.WALSyncEvery != 0 || c.WALSyncInterval != 0 || c.WALCompactBytes != 0) {
		// A durability knob without a WAL directory would silently never
		// engage, masking a misconfiguration.
		return fmt.Errorf("core: WAL tuning (WALSyncEvery/WALSyncInterval/WALCompactBytes) requires WALDir")
	}
	return nil
}

// Copilot is the assembled RCACopilot system.
type Copilot struct {
	cfg      Config
	fleet    *transport.Fleet
	registry *handler.Registry
	runner   *handler.Runner
	meter    *timeutil.CostMeter

	// mu guards the retriever state (embedder, db, batcher), which
	// SetEmbedder swaps together; everything else is immutable after New
	// or internally locked.
	mu       sync.RWMutex
	embedder Embedder
	db       vectordb.Index
	// batcher is the micro-batching collector wrapped around db when
	// Config.BatchMax > 1 (then db IS the batcher); nil otherwise.
	batcher *vectordb.Batcher
	// durable is the write-ahead-logged store wrapped by db when
	// Config.WALDir is set (the batcher, if any, wraps the durable store,
	// which wraps the sharded one); nil otherwise.
	durable *vectordb.Durable
	// embedCache memoizes Retrieve's query embeddings (bounded LRU keyed
	// by text); invalidated wholesale on SetEmbedder.
	embedCache *embedCache
}

// New assembles a Copilot over a fleet, chatting through cfg.Chat or, when
// that is nil, a simulated cfg.Model endpoint seeded with cfg.Seed. The
// embedder (and with it the vector store) is attached later via
// SetEmbedder, once it has been trained on historical incidents.
func New(fleet *transport.Fleet, cfg Config) (*Copilot, error) {
	if fleet == nil {
		return nil, fmt.Errorf("core: fleet is required")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	if cfg.Chat == nil {
		chat, err := simgpt.New(cfg.Model, simgpt.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		cfg.Chat = chat
	}
	c := &Copilot{
		cfg:        cfg,
		fleet:      fleet,
		registry:   handler.NewRegistry(nil),
		runner:     handler.NewRunner(fleet),
		meter:      timeutil.NewCostMeter(),
		embedCache: newEmbedCache(embedCacheSize),
	}
	if _, err := c.registry.InstallBuiltins(cfg.Team); err != nil {
		return nil, err
	}
	return c, nil
}

// Registry exposes the handler registry (for handler authoring tools).
func (c *Copilot) Registry() *handler.Registry { return c.registry }

// Runner exposes the handler runner (for known-issue administration).
func (c *Copilot) Runner() *handler.Runner { return c.runner }

// Meter returns the accumulated modelled LLM latency (summarization and
// prediction calls). Collection-stage telemetry cost accumulates per run and
// merges into the fleet's meter — see Fleet.Meter.
func (c *Copilot) Meter() *timeutil.CostMeter { return c.meter }

// Chat returns the underlying chat model.
func (c *Copilot) Chat() llm.Client { return c.cfg.Chat }

// Config returns the effective configuration.
func (c *Copilot) Config() Config { return c.cfg }

// SetEmbedder attaches the retrieval embedder and resets the vector store
// to its dimensionality (flat or sharded per Config.Shards). Resetting is
// deliberate: vectors produced by different embedders are not comparable,
// so every previously learned in-memory entry is DISCARDED and the history
// must be re-learned against the new embedding space. The number of
// dropped entries is returned so callers can detect an accidental
// mid-flight swap (0 on first attachment).
//
// With Config.WALDir set, the fresh store is write-ahead logged: the
// directory's snapshot + log replay into it before it starts serving, so
// a reboot resumes with the learned history and converged serving state —
// the embedder must therefore reproduce the logged vector space (see
// Config.WALDir). A recovery failure is returned and the previous
// retriever stays attached; the previous durable store, if any, is closed
// first either way (two writers on one log would corrupt it).
func (c *Copilot) SetEmbedder(e Embedder) (dropped int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.durable != nil {
		c.durable.Close()
		c.durable = nil
	}
	// PartitionIVF also starts on category-hash routing: the quantizer can
	// only be trained once vectors exist (see trainPartitioner); the
	// auto-tuned probe budget is likewise dormant until the IVF quantizer
	// routes.
	opts := vectordb.Options{
		Shards:       c.cfg.Shards,
		RecallTarget: c.cfg.RecallTarget,
		RetrainSkew:  c.cfg.RetrainSkew,
		Quantized:    c.cfg.Quantized,
	}
	dim := e.Dim()
	var db vectordb.Index
	var durable *vectordb.Durable
	if c.cfg.WALDir != "" {
		durable, err = vectordb.OpenDurable(c.cfg.WALDir,
			func() vectordb.Index { return vectordb.NewIndex(dim, opts) },
			vectordb.DurableOptions{
				SyncEvery:    c.cfg.WALSyncEvery,
				SyncInterval: c.cfg.WALSyncInterval,
				CompactBytes: c.cfg.WALCompactBytes,
			})
		if err != nil {
			return 0, err
		}
		db = durable
	} else {
		db = vectordb.NewIndex(dim, opts)
	}
	if c.db != nil {
		dropped = c.db.Len()
	}
	if c.batcher != nil {
		c.batcher.Close()
		c.batcher = nil
	}
	c.embedder = e
	// Cached query embeddings belong to the outgoing embedder's vector
	// space; drop them with the store.
	c.embedCache.clear()
	c.db, c.durable = db, durable
	if c.cfg.BatchMax > 1 {
		// Cannot fail: BatchMax >= 2 and batchWait is positive.
		b, _ := vectordb.NewBatcher(c.db, c.cfg.BatchMax, batchWait)
		c.batcher, c.db = b, b
	}
	return dropped, nil
}

// Durable returns the write-ahead-logged store behind the retriever, nil
// when Config.WALDir is unset or no embedder is attached yet. The
// daemon's /metrics durability gauges read its Stats, and the feedback
// wiring rides its retry-schedule sidecar records.
func (c *Copilot) Durable() *vectordb.Durable {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.durable
}

// Batcher returns the micro-batching collector wrapped around the vector
// store, nil when batching is disabled (Config.BatchMax <= 1) or no
// embedder is attached yet. The daemon's /metrics surface reads its
// batch-formation stats.
func (c *Copilot) Batcher() *vectordb.Batcher {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.batcher
}

// Close releases background serving resources: the micro-batching
// collector's dispatcher and the durable store's group-commit and
// compaction loops (flushing the log, so everything learned is on disk).
// The Copilot keeps serving after Close — queries just bypass the
// collector and lose durability — so it is safe to call on shutdown while
// drains finish.
func (c *Copilot) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.batcher != nil {
		c.batcher.Close()
	}
	if c.durable != nil {
		c.durable.Close()
	}
}

// retriever snapshots the (embedder, db) pair so one call works against a
// consistent retriever even if SetEmbedder swaps it mid-flight.
func (c *Copilot) retriever() (Embedder, vectordb.Index) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.embedder, c.db
}

// retrieverCached is retriever plus the embed-cache generation captured
// under the same lock, so a cache fill can be discarded if SetEmbedder
// swapped the embedder (and bumped the generation) after the snapshot.
func (c *Copilot) retrieverCached() (Embedder, vectordb.Index, uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.embedder, c.db, c.embedCache.generation()
}

// Index returns the vector store (nil until SetEmbedder).
func (c *Copilot) Index() vectordb.Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.db
}

// trainPartitioner retrains an IVF-partitioned sharded index from its
// stored vectors. It is a no-op for the flat store and category routing;
// called after batch ingest so the quantizer reflects the loaded history.
// The handoff onto the trained quantizer is incremental — ingest and
// queries keep flowing — and under exact serving (no probe budget)
// placement never changes retrieval results, so retraining is invisible
// to Predict. With RecallTarget > 0 this training is also the moment
// probe-limited serving engages: the freshly trained centroids are what
// probe selection ranks.
func (c *Copilot) trainPartitioner(db vectordb.Index) error {
	if c.cfg.Partitioner != PartitionIVF {
		return nil
	}
	s, ok := vectordb.AsSharded(db)
	if !ok || s.Len() == 0 {
		return nil
	}
	return s.TrainIVF(0)
}

// Collect runs the collection stage: match the incident's alert type to the
// team's handler and execute it, enriching the incident with multi-source
// evidence and action outputs. Each call executes on its own per-run
// execution context based at the incident's creation time, so concurrent
// collections never interleave their cost attribution or clock views (see
// the package comment); the finished run's cost merges back into the fleet
// meter and advances the shared virtual clock.
func (c *Copilot) Collect(inc *incident.Incident) (*handler.RunReport, error) {
	if err := inc.Validate(); err != nil {
		return nil, err
	}
	h, err := c.matchHandler(inc)
	if err != nil {
		return nil, err
	}
	ec := c.fleet.NewExec(inc.CreatedAt)
	if c.cfg.MultiTenant {
		ec = c.fleet.NewExecTenant(inc.CreatedAt, inc.OwningTeam)
	}
	// Merge on every exit: a failed run's already-charged queries must still
	// reach the fleet meter, as they did on the pre-context ambient path.
	defer ec.Finish()
	return c.runner.RunWith(ec, h, inc)
}

// matchHandler resolves the incident's collection handler. Multi-tenant
// serving tries the owning team's handler set first and falls back to the
// configured Team's (where InstallBuiltins registered the stock
// handlers), so a tenant without bespoke handlers still collects.
func (c *Copilot) matchHandler(inc *incident.Incident) (*handler.Handler, error) {
	if c.cfg.MultiTenant && inc.OwningTeam != "" && inc.OwningTeam != c.cfg.Team {
		if h, err := c.registry.Match(inc.OwningTeam, inc); err == nil {
			return h, nil
		}
	}
	return c.registry.Match(c.cfg.Team, inc)
}

// Summarize compresses the incident's collected diagnostic text through the
// LLM (Figure 7) and stores the result on the incident.
func (c *Copilot) Summarize(inc *incident.Incident) error {
	diag := inc.DiagnosticText()
	if diag == "" {
		return fmt.Errorf("core: incident %s has no diagnostic information to summarize (run Collect first)", inc.ID)
	}
	budget := c.cfg.Chat.ContextWindow() - c.cfg.PromptReserve
	diag = prompt.TrimToTokens(diag, budget, c.cfg.Chat.CountTokens)
	resp, err := c.cfg.Chat.Complete(prompt.Summary(diag))
	if err != nil {
		return fmt.Errorf("core: summarize %s: %w", inc.ID, err)
	}
	c.meter.Charge("llm-summarize", resp.ModelLatency)
	inc.Summary = resp.Content
	return nil
}

// ContextText assembles the prompt context for an incident per the
// configured sources (Table 3 rows).
func (c *Copilot) ContextText(inc *incident.Incident) string {
	var parts []string
	if c.cfg.Context.AlertInfo {
		parts = append(parts, inc.Alert.Info())
	}
	if c.cfg.Context.DiagnosticInfo {
		if c.cfg.Context.Summarized && inc.Summary != "" {
			parts = append(parts, inc.Summary)
		} else {
			parts = append(parts, inc.DiagnosticText())
		}
	}
	if c.cfg.Context.ActionOutput {
		parts = append(parts, inc.ActionOutputText())
	}
	var out string
	for i, p := range parts {
		if i > 0 {
			out += "\n"
		}
		out += p
	}
	return out
}

// embedText is what the retriever embeds: the original (unsummarized)
// incident information — "we use the original incident information to do
// the embedding and nearest neighbor search, and use the corresponding
// summarized information as part of demonstrations" (§4.2.4).
func (c *Copilot) embedText(inc *incident.Incident) string {
	if t := inc.DiagnosticText(); t != "" {
		return t
	}
	return inc.Alert.Info()
}

// Learn inserts a labelled historical incident into the vector store. The
// incident must carry its ground-truth category; a missing summary is
// generated on the fly.
func (c *Copilot) Learn(inc *incident.Incident) error {
	embedder, db := c.retriever()
	if embedder == nil {
		return fmt.Errorf("core: no embedder attached (call SetEmbedder)")
	}
	entry, err := c.prepareEntry(embedder, inc)
	if err != nil {
		return err
	}
	return db.Add(entry)
}

// prepareEntry does the expensive half of Learn — summarization and
// embedding — without touching the store, so a batch ingest can run it on
// many incidents concurrently and commit the entries in order afterwards.
func (c *Copilot) prepareEntry(embedder Embedder, inc *incident.Incident) (vectordb.Entry, error) {
	if inc.Category == "" {
		return vectordb.Entry{}, fmt.Errorf("core: incident %s has no root-cause label", inc.ID)
	}
	if inc.Summary == "" && c.cfg.Context.Summarized {
		if err := c.Summarize(inc); err != nil {
			return vectordb.Entry{}, err
		}
	}
	vec, err := embedder.Embed(c.embedText(inc))
	if err != nil {
		return vectordb.Entry{}, fmt.Errorf("core: embed %s: %w", inc.ID, err)
	}
	demo := inc.Summary
	if demo == "" {
		demo = prompt.TrimToTokens(c.embedText(inc), 200, c.cfg.Chat.CountTokens)
	}
	entry := vectordb.Entry{
		ID:       inc.ID,
		Vector:   vec,
		Category: inc.Category,
		Time:     inc.CreatedAt,
		Summary:  demo,
	}
	if c.cfg.MultiTenant {
		// The owning team is the tenant: the entry lands in the team's
		// namespace over the shared shard pool, and only that team's
		// retrievals (and unscoped operator queries) will see it.
		entry.Namespace = inc.OwningTeam
	}
	return entry, nil
}

// LearnBatch ingests many labelled incidents at once: summaries and
// embeddings are computed on the shared worker pool (workers <= 0 means
// GOMAXPROCS, 1 is sequential), then the entries are committed to the
// vector store in input order, so the resulting store is identical to a
// sequential Learn loop. Incidents are mutated like Learn mutates them
// (a missing Summary is filled in).
func (c *Copilot) LearnBatch(incs []*incident.Incident, workers int) error {
	embedder, db := c.retriever()
	if embedder == nil {
		return fmt.Errorf("core: no embedder attached (call SetEmbedder)")
	}
	entries, err := parallel.Map(len(incs), workers, func(i int) (vectordb.Entry, error) {
		return c.prepareEntry(embedder, incs[i])
	})
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := db.Add(e); err != nil {
			return err
		}
	}
	// With IVF routing the quantizer trains from whatever is stored after
	// the batch lands, so bulk history loads end with balanced shards.
	return c.trainPartitioner(db)
}

// Retrieve embeds free text and returns the k nearest historical
// incidents under the temporal-decay similarity anchored at the given
// time — the raw vector-DB read an OCE dashboard or the serving daemon's
// /api/retrieve endpoint issues, without running the prediction stage.
// diverse applies the §4.2.2 category-diversity constraint (each category
// at most once). k <= 0 uses the configured K; a zero at uses the current
// wall clock.
func (c *Copilot) Retrieve(text string, at time.Time, k int, diverse bool) ([]vectordb.Scored, error) {
	return c.retrieve(text, at, k, diverse, false, "")
}

// RetrieveIn is Retrieve through one team's namespace view: only entries
// learned under that tenant are searched. An unknown team returns zero
// hits without error (an empty view, not a failure); team = "" addresses
// the default namespace. It is the read behind the daemon's
// /api/retrieve?team= parameter.
func (c *Copilot) RetrieveIn(team, text string, at time.Time, k int, diverse bool) ([]vectordb.Scored, error) {
	return c.retrieve(text, at, k, diverse, true, team)
}

func (c *Copilot) retrieve(text string, at time.Time, k int, diverse, scoped bool, team string) ([]vectordb.Scored, error) {
	embedder, db, gen := c.retrieverCached()
	if embedder == nil {
		return nil, fmt.Errorf("core: no embedder attached (call SetEmbedder)")
	}
	if strings.TrimSpace(text) == "" {
		return nil, fmt.Errorf("core: empty retrieval query")
	}
	if k <= 0 {
		k = c.cfg.K
	}
	if at.IsZero() {
		at = time.Now()
	}
	// Free-text daemon queries repeat (dashboards refresh, OCEs retry the
	// same phrasing), and embedding dominates the cost of a cached-size
	// store lookup — memoize by exact text. The generation tag keeps a
	// concurrent SetEmbedder from poisoning the new cache with an
	// old-space vector.
	query, ok := c.embedCache.get(text)
	if !ok {
		var err error
		query, err = embedder.Embed(text)
		if err != nil {
			return nil, fmt.Errorf("core: embed retrieval query: %w", err)
		}
		c.embedCache.put(text, query, gen)
	}
	if scoped {
		db = db.Namespace(team)
	}
	if db.Len() == 0 {
		return nil, nil
	}
	if diverse {
		return db.TopKDiverse(query, at, k, c.cfg.Alpha)
	}
	return db.TopK(query, at, k, c.cfg.Alpha)
}

// Predict runs the prediction stage for a collected incident: embed the
// original diagnostics, retrieve the top-K category-diverse neighbours
// under temporal-decay similarity, build the Figure 9 chain-of-thought
// prompt, and parse the model's category + explanation onto the incident.
func (c *Copilot) Predict(inc *incident.Incident) (prompt.Result, error) {
	embedder, db := c.retriever()
	if embedder == nil {
		return prompt.Result{}, fmt.Errorf("core: no embedder attached (call SetEmbedder)")
	}
	if c.cfg.Context.Summarized && c.cfg.Context.DiagnosticInfo && inc.Summary == "" {
		if err := c.Summarize(inc); err != nil {
			return prompt.Result{}, err
		}
	}
	query, err := embedder.Embed(c.embedText(inc))
	if err != nil {
		return prompt.Result{}, fmt.Errorf("core: embed query %s: %w", inc.ID, err)
	}
	if c.cfg.MultiTenant {
		// Demonstrations come from the owning team's own history: the
		// namespace view confines the neighbour search (and the Len gate)
		// to entries the team learned.
		db = db.Namespace(inc.OwningTeam)
	}
	var demos []prompt.Demo
	if db.Len() > 0 {
		hits, err := db.TopKDiverse(query, inc.CreatedAt, c.cfg.K, c.cfg.Alpha)
		if err != nil {
			return prompt.Result{}, err
		}
		budget := (c.cfg.Chat.ContextWindow() - c.cfg.PromptReserve) / max(1, len(hits))
		for _, h := range hits {
			demos = append(demos, prompt.Demo{
				Summary:  prompt.TrimToTokens(h.Entry.Summary, budget, c.cfg.Chat.CountTokens),
				Category: h.Entry.Category,
			})
		}
	}
	input := c.ContextText(inc)
	inputBudget := (c.cfg.Chat.ContextWindow() - c.cfg.PromptReserve) / 3
	input = prompt.TrimToTokens(input, inputBudget, c.cfg.Chat.CountTokens)

	resp, err := c.cfg.Chat.Complete(prompt.Prediction(input, demos))
	if err != nil {
		return prompt.Result{}, fmt.Errorf("core: predict %s: %w", inc.ID, err)
	}
	c.meter.Charge("llm-predict", resp.ModelLatency)
	res, err := prompt.ParsePrediction(resp.Content)
	if err != nil {
		return prompt.Result{}, fmt.Errorf("core: predict %s: %w", inc.ID, err)
	}
	inc.Predicted = res.Category
	inc.Explanation = res.Explanation
	return res, nil
}

// HandleIncident runs the full pipeline on a fresh incident: collection,
// summarization, prediction. It returns the collection report and the
// parsed prediction. It is safe to call from many goroutines, each on its
// own incident; every stage, collection included, runs concurrently (each
// collection on its own per-run execution context).
func (c *Copilot) HandleIncident(inc *incident.Incident) (*handler.RunReport, prompt.Result, error) {
	report, err := c.Collect(inc)
	if err != nil {
		return nil, prompt.Result{}, err
	}
	if err := c.Summarize(inc); err != nil {
		return report, prompt.Result{}, err
	}
	res, err := c.Predict(inc)
	if err != nil {
		return report, prompt.Result{}, err
	}
	return report, res, nil
}

// IncidentAt stamps an incident from an alert at the given time with a
// deterministic ID suffix (the "Incident Parsing" box of Figure 4).
func IncidentAt(alert incident.Alert, severity incident.Severity, team string, seq int, at time.Time) *incident.Incident {
	return &incident.Incident{
		ID:         fmt.Sprintf("INC-%s-%06d", at.Format("20060102"), seq),
		Title:      alert.Message,
		OwningTeam: team,
		Severity:   severity,
		Alert:      alert,
		CreatedAt:  at,
	}
}
