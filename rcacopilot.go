// Package rcacopilot is a from-scratch Go reproduction of RCACopilot —
// "Automatic Root Cause Analysis via Large Language Models for Cloud
// Incidents" (Chen et al., EuroSys 2024) — an on-call system that automates
// cloud-incident root cause analysis in two stages:
//
//  1. Diagnostic information collection: the incoming incident is matched
//     by alert type to an OCE-authored incident handler — a decision tree
//     of reusable scope-switching / query / mitigation actions — which
//     gathers multi-source diagnostics (logs, metrics, traces, stacks).
//  2. Root cause prediction: the diagnostics are summarized by an LLM,
//     embedded with a FastText model trained on historical incidents,
//     matched against the incident history under a temporal-decay
//     nearest-neighbour similarity, and a chain-of-thought prompt asks the
//     LLM to pick the historical incident sharing the root cause — or to
//     declare the incident unseen and coin a new category — together with
//     an explanatory narrative.
//
// The paper's closed substrates (Microsoft's Transport service, its
// incident corpus, and the OpenAI API) are replaced by faithful simulations
// (see DESIGN.md); the public API below is what a production deployment
// would target, with the simulated fleet standing in for real telemetry
// backends.
//
// Quick start:
//
//	fleet := rcacopilot.NewFleet(1)
//	sys, _ := rcacopilot.NewSystem(fleet, rcacopilot.Config{Model: "gpt-4", Seed: 1})
//	corpus, _ := rcacopilot.GenerateCorpus(1)         // or load your own history
//	sys.TrainEmbedding(corpus.Incidents)              // FastText over history
//	sys.AddHistory(corpus.Incidents)                  // fill the vector DB
//	outcome, _ := sys.HandleIncident(inc)             // collect → summarize → predict
//	fmt.Println(inc.Predicted, inc.Explanation)
//
// # Concurrency and determinism
//
// A System is safe for concurrent use. HandleIncidents processes a batch of
// incidents on a bounded worker pool, and HandleStream consumes a live
// channel of incidents — the alert-bus shape — emitting results as they
// complete, with backpressure against the same process-wide worker budget.
// Every pipeline stage runs unserialized: summarization and prediction are
// stateless per incident, and each collection run executes on its own
// execution context (a per-run cost accumulator plus a per-run virtual
// clock view based at the incident's creation time), merging back into
// fleet-level accounting only through commutative additions.
//
// Concurrency does not cost reproducibility: the simulated GPT endpoint
// derives its random state per request, seeding an RNG with
// seed ^ hash(prompt), so a completion depends only on the client seed and
// the prompt text — never on call order or interleaving — and per-run
// execution contexts make collection outputs a function of the incident
// alone. Identical incidents therefore produce identical predictions
// whether handled one at a time, in a concurrent batch, or over a stream,
// and the evaluation harness exploits the same contract to parallelize the
// paper's experiments while reproducing the sequential results bit for bit.
package rcacopilot

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed/fasttext"
	"repro/internal/feedback"
	"repro/internal/handler"
	"repro/internal/incident"
	"repro/internal/llm/simgpt"
	"repro/internal/parallel"
	"repro/internal/prompt"
	"repro/internal/report"
	"repro/internal/transport"
	"repro/internal/vectordb"
)

// Re-exported core types, so library users work entirely through this
// package.
type (
	// Incident is a cloud incident moving through the pipeline.
	Incident = incident.Incident
	// Alert is the monitor signal that opens an incident.
	Alert = incident.Alert
	// Category is a root-cause category label.
	Category = incident.Category
	// Evidence is one piece of collected diagnostic information.
	Evidence = incident.Evidence
	// Severity is the incident severity level (Sev1 most severe).
	Severity = incident.Severity
	// Fleet is the simulated Transport email service under diagnosis.
	Fleet = transport.Fleet
	// FleetConfig parameterizes fleet construction.
	FleetConfig = transport.Config
	// Handler is an OCE-authored incident handler (decision tree).
	Handler = handler.Handler
	// RunReport summarizes one handler execution.
	RunReport = handler.RunReport
	// Prediction is a parsed root-cause prediction.
	Prediction = prompt.Result
	// ContextSources selects the prompt context (Table 3 ablation axes).
	ContextSources = core.ContextSources
	// Corpus is a generated historical incident dataset.
	Corpus = dataset.Corpus
	// CorpusSpec parameterizes corpus generation.
	CorpusSpec = dataset.Spec
	// EmbeddingConfig parameterizes FastText training.
	EmbeddingConfig = fasttext.Config
	// FeedbackLoop records OCE verdicts and feeds confirmed labels back
	// into the incident history (§5.5).
	FeedbackLoop = feedback.Loop
	// FeedbackEntry is one recorded OCE verdict.
	FeedbackEntry = feedback.Entry
	// LearnFailure is one failed background learn, attributed to the OCE
	// who submitted the verdict (see FeedbackLoop.Failures/SetNotifier).
	LearnFailure = feedback.Failure
	// Verdict is an OCE judgement on a prediction.
	Verdict = feedback.Verdict
	// ReportOptions tune incident-notification rendering.
	ReportOptions = report.Options
	// Retrieved is one vector-DB retrieval hit: the stored historical
	// incident with its distance and temporal-decay similarity.
	Retrieved = vectordb.Scored
	// RetryItem is one unresolved learn failure's self-heal schedule entry
	// (see FeedbackLoop.RetrySchedule).
	RetryItem = feedback.RetryItem
	// Config parameterizes a System: chat model, embedding, retrieval and
	// serving store (see core.Config for every field).
	Config = core.Config
)

// Feedback verdicts.
const (
	VerdictConfirm = feedback.VerdictConfirm
	VerdictCorrect = feedback.VerdictCorrect
	VerdictReject  = feedback.VerdictReject
)

// Severity levels.
const (
	Sev1 = incident.Sev1
	Sev2 = incident.Sev2
	Sev3 = incident.Sev3
	Sev4 = incident.Sev4
)

// Supported chat models (simulated GPT endpoints).
const (
	ModelGPT4  = simgpt.GPT4
	ModelGPT35 = simgpt.GPT35
)

// Shard-routing strategies for Config.Partitioner.
const (
	PartitionCategory = core.PartitionCategory
	PartitionIVF      = core.PartitionIVF
)

// System is an assembled RCACopilot deployment over a fleet.
type System struct {
	fleet    *Fleet
	copilot  *core.Copilot
	loopOnce sync.Once
	loop     *feedback.Loop
}

// NewFleet builds a default simulated Transport fleet.
func NewFleet(seed int64) *Fleet {
	return transport.NewFleet(transport.DefaultConfig(seed))
}

// NewSystem assembles RCACopilot over the fleet.
func NewSystem(fleet *Fleet, cfg Config) (*System, error) {
	cop, err := core.New(fleet, cfg)
	if err != nil {
		return nil, err
	}
	return &System{fleet: fleet, copilot: cop}, nil
}

// Fleet returns the fleet under diagnosis.
func (s *System) Fleet() *Fleet { return s.fleet }

// Copilot exposes the underlying pipeline for advanced use (ablations,
// custom embedders, handler administration).
func (s *System) Copilot() *core.Copilot { return s.copilot }

// TrainEmbedding trains the FastText retrieval embedding on the diagnostic
// text of historical incidents (§4.2.1: "we opt to train a FastText model
// on our historical incidents") and attaches it, resetting the vector DB:
// any previously learned history is discarded (vectors from different
// embedders are not comparable) and must be re-added with AddHistory.
// Callers needing the dropped-entry count use Copilot().SetEmbedder
// directly.
func (s *System) TrainEmbedding(history []*Incident) error {
	if len(history) == 0 {
		return fmt.Errorf("rcacopilot: no history to train the embedding on")
	}
	texts := make([]string, 0, len(history))
	for _, in := range history {
		texts = append(texts, in.DiagnosticText())
	}
	model, err := fasttext.TrainSkipgram(texts, s.copilot.Config().Embedding)
	if err != nil {
		return err
	}
	_, err = s.copilot.SetEmbedder(core.FastTextEmbedder{Model: model})
	return err
}

// UseGPTEmbedding swaps the retriever to the chat model's embedding
// endpoint — the paper's "GPT-4 Embed." baseline variant. Like
// TrainEmbedding, swapping resets the vector DB; re-add the history
// afterwards. The returned error is non-nil only with Config.WALDir set,
// when reopening the durable store fails.
func (s *System) UseGPTEmbedding(dim int) error {
	if dim <= 0 {
		dim = 64
	}
	_, err := s.copilot.SetEmbedder(core.LLMEmbedder{Client: s.copilot.Chat(), EmbedDim: dim})
	return err
}

// AddHistory inserts labelled historical incidents into the vector DB,
// summarizing any that lack summaries on the shared worker pool. Incidents
// are cloned; callers' copies are not mutated. The resulting store is
// identical to learning the incidents one at a time in order. Under
// Config{Partitioner: PartitionIVF} the coarse quantizer retrains from the
// stored vectors after the batch lands, rebalancing the shards.
func (s *System) AddHistory(history []*Incident) error {
	clones := make([]*Incident, len(history))
	for i, in := range history {
		clones[i] = in.Clone()
	}
	return s.copilot.LearnBatch(clones, 0)
}

// Outcome is the result of handling one incident end to end.
type Outcome struct {
	// Report describes the collection-stage handler execution.
	Report *RunReport
	// Prediction is the parsed root-cause prediction.
	Prediction Prediction
	// Summary is the LLM-generated diagnostic summary.
	Summary string
}

// HandleIncident runs the full pipeline: collect, summarize, predict. The
// incident is enriched in place (Evidence, ActionOutput, Summary,
// Predicted, Explanation). Safe to call concurrently, each call on its own
// incident.
func (s *System) HandleIncident(inc *Incident) (*Outcome, error) {
	report, res, err := s.copilot.HandleIncident(inc)
	if err != nil {
		return nil, err
	}
	return &Outcome{Report: report, Prediction: res, Summary: inc.Summary}, nil
}

// HandleIncidents runs the full pipeline over a batch of incidents on a
// bounded worker pool: workers <= 0 uses one worker per CPU, workers == 1
// degrades to a sequential loop. Outcomes are index-aligned with incs, and
// each incident's outcome is identical to what HandleIncident would have
// produced for it sequentially (see the package comment's determinism
// contract). On error the lowest-index error is returned and remaining
// incidents are skipped best-effort; incidents already processed keep their
// in-place enrichment.
func (s *System) HandleIncidents(incs []*Incident, workers int) ([]*Outcome, error) {
	return parallel.Map(len(incs), workers, func(i int) (*Outcome, error) {
		return s.HandleIncident(incs[i])
	})
}

// Collect runs only the collection stage.
func (s *System) Collect(inc *Incident) (*RunReport, error) { return s.copilot.Collect(inc) }

// Summarize runs only the summarization step.
func (s *System) Summarize(inc *Incident) error { return s.copilot.Summarize(inc) }

// Predict runs only the prediction stage (the incident must already carry
// diagnostics).
func (s *System) Predict(inc *Incident) (Prediction, error) { return s.copilot.Predict(inc) }

// Learn adds one labelled incident to the history.
func (s *System) Learn(inc *Incident) error { return s.copilot.Learn(inc.Clone()) }

// Feedback returns the system's OCE feedback loop: confirmed and corrected
// predictions are learned back into the incident history, so the system
// improves from review (§5.5's notification-email feedback mechanism).
// Safe to call concurrently; every caller sees the same loop. With
// Config.AsyncLearnQueue > 0 the loop's learning runs on a background
// ingest worker — see FeedbackLoop.Flush for the read-your-writes barrier.
func (s *System) Feedback() *FeedbackLoop {
	s.loopOnce.Do(func() {
		s.loop = feedback.New(nil, s.copilot)
		if d := s.copilot.Durable(); d != nil {
			// Durable deployment (Config.WALDir): the retry schedule rides
			// the vector store's WAL as opaque sidecar records. Restore the
			// schedule the crashed process owed first, then journal every
			// transition from here on, and let compaction re-log the live
			// schedule into each freshly rotated log. Note the loop is built
			// lazily — with WALDir set, call Feedback() after TrainEmbedding
			// so the durable store (and its replayed records) exists.
			var ts []feedback.RetryTransition
			for _, p := range d.RetryRecords() {
				t, err := feedback.DecodeRetryTransition(p)
				if err != nil {
					// The frame checksum verified, so this is a schema drift
					// across versions, not crash damage; dropping one
					// schedule entry only costs a redrive until resubmit.
					continue
				}
				ts = append(ts, t)
			}
			s.loop.RestoreRetrySchedule(ts)
			s.loop.SetRetryJournal(func(t feedback.RetryTransition) {
				if p, err := t.Encode(); err == nil {
					// A sticky log error surfaces through the durable
					// store's Stats; the in-memory schedule keeps working.
					_ = d.AppendRetry(p)
				}
			})
			d.SetRetrySnapshot(func() [][]byte {
				var out [][]byte
				for _, t := range s.loop.RetryTransitions() {
					if p, err := t.Encode(); err == nil {
						out = append(out, p)
					}
				}
				return out
			})
		}
		if n := s.copilot.Config().AsyncLearnQueue; n > 0 {
			// Start cannot fail here: the learner is non-nil and the loop
			// is freshly built.
			_ = s.loop.StartIngest(n)
		}
	})
	return s.loop
}

// Retrieve embeds free text and returns the k nearest historical
// incidents under temporal-decay similarity anchored at the fleet's
// current virtual time — the read API behind the serving daemon's
// /api/retrieve endpoint. diverse applies the category-diversity
// constraint Predict uses for its demonstrations; k <= 0 uses the
// configured K.
func (s *System) Retrieve(text string, k int, diverse bool) ([]Retrieved, error) {
	return s.copilot.Retrieve(text, s.fleet.Clock().Now(), k, diverse)
}

// RetrieveTeam is Retrieve through one team's namespace view: only that
// tenant's learned history is searched (the read behind the daemon's
// /api/retrieve?team= parameter). An unknown team returns zero hits
// without error.
func (s *System) RetrieveTeam(team, text string, k int, diverse bool) ([]Retrieved, error) {
	return s.copilot.RetrieveIn(team, text, s.fleet.Clock().Now(), k, diverse)
}

// Close releases background serving resources — today the micro-batching
// collector's dispatcher (Config.BatchMax). The system keeps serving
// after Close (retrievals just bypass the collector), so it is safe to
// call during shutdown while drains finish. The feedback loop has its own
// lifecycle — see FeedbackLoop.Close.
func (s *System) Close() { s.copilot.Close() }

// RenderRetryQueue renders the feedback loop's learn-failure self-heal
// schedule — per-incident attempt counts and next redrive times — next to
// which a dashboard shows the Failures list. The rendering is anchored at
// the wall clock the retry queue itself runs on.
func (s *System) RenderRetryQueue(opts ReportOptions) string {
	return report.RenderRetryQueue(time.Now(), s.Feedback().RetrySchedule(), opts)
}

// RenderReport produces the plain-text incident notification for a handled
// incident: alert, collection trail, summary, prediction, mitigations and
// feedback instructions.
func (s *System) RenderReport(inc *Incident, rep *RunReport, opts ReportOptions) string {
	return report.Render(inc, rep, opts)
}

// RenderLearnFailure produces the plain-text notification for a failed
// background learn, addressed to the OCE whose verdict could not be fed
// back into the incident history. Wire it to the feedback loop's
// notification hook to close the async error path:
//
//	sys.Feedback().SetNotifier(func(f rcacopilot.LearnFailure) {
//		deliver(f.Reviewer, sys.RenderLearnFailure(f, rcacopilot.ReportOptions{}))
//	})
//
// Failures also stay queryable on the loop (Failures/FailureFor) until
// the incident learns successfully, so a dashboard can show unresolved
// learn debt without any Flush.
func (s *System) RenderLearnFailure(f LearnFailure, opts ReportOptions) string {
	return report.RenderLearnFailure(f.IncidentID, f.Reviewer, f.Err, f.At, opts)
}

// GenerateCorpus builds the paper-faithful 653-incident synthetic year
// (Table 1 categories at their published occurrence counts, 163 categories,
// 93.8% of recurrences within 20 days).
func GenerateCorpus(seed int64) (*Corpus, error) {
	return dataset.Generate(dataset.DefaultSpec(seed))
}

// GenerateCorpusSpec builds a corpus from a custom specification.
func GenerateCorpusSpec(spec CorpusSpec) (*Corpus, error) { return dataset.Generate(spec) }
