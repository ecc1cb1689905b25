package rcacopilot

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/llm/simgpt"
)

var (
	corpusOnce sync.Once
	testCorpus *Corpus
	corpusErr  error
)

func sharedCorpus(t *testing.T) *Corpus {
	t.Helper()
	corpusOnce.Do(func() { testCorpus, corpusErr = GenerateCorpus(2) })
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return testCorpus
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(nil, Config{}); err == nil {
		t.Fatal("nil fleet should fail")
	}
	if _, err := NewSystem(NewFleet(1), Config{Model: "gpt-9"}); err == nil {
		t.Fatal("unknown model should fail")
	}
}

// countingChat is a chat client that counts the completions it serves.
type countingChat struct {
	llm.Client
	calls atomic.Int64
}

func (c *countingChat) Complete(req llm.Request) (llm.Response, error) {
	c.calls.Add(1)
	return c.Client.Complete(req)
}

// TestNewSystemConfig: the Config a System is built from reaches the
// pipeline whole. A Chat client serves the completions in place of the
// simulated Model, and Copilot().Config() reports the Model, Seed and
// AsyncLearnQueue it was given.
func TestNewSystemConfig(t *testing.T) {
	c := sharedCorpus(t)
	chat := &countingChat{Client: simgpt.MustNew(ModelGPT35, simgpt.Options{Seed: 4})}
	sys, err := NewSystem(c.Fleet, Config{Chat: chat})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.Copilot().Chat() != chat {
		t.Fatalf("Copilot chats through %v, want the configured client", sys.Copilot().Chat())
	}
	if err := sys.Summarize(c.Incidents[0].Clone()); err != nil {
		t.Fatal(err)
	}
	if n := chat.calls.Load(); n != 1 {
		t.Fatalf("configured client served %d completions for one summary, want 1", n)
	}

	sys, err = NewSystem(NewFleet(1), Config{Model: ModelGPT35, Seed: 7, AsyncLearnQueue: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	got := sys.Copilot().Config()
	if got.Model != ModelGPT35 || got.Seed != 7 || got.AsyncLearnQueue != 3 {
		t.Fatalf("Config() = {Model: %q, Seed: %d, AsyncLearnQueue: %d}, want {%q, 7, 3}",
			got.Model, got.Seed, got.AsyncLearnQueue, ModelGPT35)
	}
	if name := got.Chat.Name(); name != ModelGPT35 {
		t.Fatalf("built chat model %q, want %q", name, ModelGPT35)
	}
	if got.Embedding.Seed != 7 {
		t.Fatalf("Embedding.Seed = %d, want the Seed default 7", got.Embedding.Seed)
	}
}

func TestTrainEmbeddingRequiresHistory(t *testing.T) {
	sys, err := NewSystem(NewFleet(1), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainEmbedding(nil); err == nil {
		t.Fatal("empty history should fail")
	}
}

func TestGenerateCorpusShape(t *testing.T) {
	c := sharedCorpus(t)
	stats := c.ComputeStats()
	if stats.NumIncidents != 653 || stats.NumCategories != 163 {
		t.Fatalf("corpus stats = %+v", stats)
	}
}

func TestSystemEndToEnd(t *testing.T) {
	c := sharedCorpus(t)
	sys, err := NewSystem(c.Fleet, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	history := c.Incidents[:250]
	if err := sys.TrainEmbedding(history); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddHistory(history); err != nil {
		t.Fatal(err)
	}
	if sys.Copilot().Index().Len() != 250 {
		t.Fatalf("db len = %d", sys.Copilot().Index().Len())
	}

	fleet := sys.Fleet()
	fault, err := fleet.Inject("HubPortExhaustion", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fault.Repair()
	alert, ok := fleet.FirstAlert()
	if !ok {
		t.Fatal("no alert")
	}
	inc := &Incident{
		ID: "INC-E2E", Title: alert.Message, OwningTeam: "Transport",
		Severity: Sev2, Alert: alert, CreatedAt: fleet.Clock().Now(),
	}
	outcome, err := sys.HandleIncident(inc)
	if err != nil {
		t.Fatal(err)
	}
	if len(inc.Evidence) == 0 || outcome.Summary == "" || inc.Predicted == "" {
		t.Fatalf("pipeline incomplete: evidence=%d summary=%q predicted=%q",
			len(inc.Evidence), outcome.Summary, inc.Predicted)
	}
	if inc.Explanation == "" {
		t.Fatal("missing explanation")
	}
}

func TestAddHistoryDoesNotMutateCaller(t *testing.T) {
	c := sharedCorpus(t)
	sys, err := NewSystem(c.Fleet, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainEmbedding(c.Incidents[:50]); err != nil {
		t.Fatal(err)
	}
	in := c.Incidents[0].Clone()
	in.Summary = ""
	if err := sys.AddHistory([]*Incident{in}); err != nil {
		t.Fatal(err)
	}
	if in.Summary != "" {
		t.Fatal("AddHistory mutated the caller's incident")
	}
}

func TestUseGPTEmbedding(t *testing.T) {
	c := sharedCorpus(t)
	sys, err := NewSystem(c.Fleet, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys.UseGPTEmbedding(0)
	if err := sys.Learn(c.Incidents[0]); err != nil {
		t.Fatalf("learn with GPT embedding: %v", err)
	}
	if sys.Copilot().Index().Dim() != 64 {
		t.Fatalf("default GPT embedding dim = %d, want 64", sys.Copilot().Index().Dim())
	}
}

func TestCustomCorpusSpec(t *testing.T) {
	spec := CorpusSpec{
		Seed:               9,
		Start:              time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC),
		Days:               365,
		RecurrenceWithin20: 0.9,
		Team:               "Transport",
	}
	c, err := GenerateCorpusSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Incidents) != 653 {
		t.Fatalf("incidents = %d", len(c.Incidents))
	}
	if c.Incidents[0].CreatedAt.Year() != 2023 {
		t.Fatalf("custom start year ignored: %v", c.Incidents[0].CreatedAt)
	}
}

func TestFeedbackLoopLearnsConfirmedPrediction(t *testing.T) {
	c := sharedCorpus(t)
	sys, err := NewSystem(c.Fleet, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainEmbedding(c.Incidents[:100]); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddHistory(c.Incidents[:100]); err != nil {
		t.Fatal(err)
	}
	before := sys.Copilot().Index().Len()

	// A reviewed prediction flows back into the history.
	inc := c.Incidents[150].Clone()
	inc.ID = "INC-FB-1"
	inc.Predicted = inc.Category
	entry, err := sys.Feedback().Submit(inc, VerdictConfirm, "", "oce", "")
	if err != nil {
		t.Fatal(err)
	}
	if entry.Verdict != VerdictConfirm {
		t.Fatalf("entry = %+v", entry)
	}
	if sys.Copilot().Index().Len() != before+1 {
		t.Fatal("confirmed incident was not learned into the history")
	}
	if got, ok := sys.Feedback().Get("INC-FB-1"); !ok || got.Predicted != inc.Predicted {
		t.Fatalf("feedback record = %+v/%v", got, ok)
	}
}

func TestRenderReportFromOutcome(t *testing.T) {
	c := sharedCorpus(t)
	sys, err := NewSystem(c.Fleet, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainEmbedding(c.Incidents[:80]); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddHistory(c.Incidents[:80]); err != nil {
		t.Fatal(err)
	}
	fleet := sys.Fleet()
	fault, err := fleet.Inject("FullDisk", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fault.Repair()
	alert, _ := fleet.FirstAlert()
	inc := &Incident{
		ID: "INC-RPT", Title: alert.Message, OwningTeam: "Transport",
		Severity: Sev2, Alert: alert, CreatedAt: fleet.Clock().Now(),
	}
	outcome, err := sys.HandleIncident(inc)
	if err != nil {
		t.Fatal(err)
	}
	text := sys.RenderReport(inc, outcome.Report, ReportOptions{})
	for _, want := range []string{"INCIDENT INC-RPT", "ROOT CAUSE PREDICTION", "confirm INC-RPT"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestSeverityAliasesUsable(t *testing.T) {
	for _, s := range []Severity{Sev1, Sev2, Sev3, Sev4} {
		if !s.Valid() {
			t.Fatalf("severity alias %v invalid", s)
		}
	}
	if !strings.HasPrefix(Sev1.String(), "Sev") {
		t.Fatal("severity String broken through alias")
	}
}

// TestSystemRetrieve: the serving daemon's read API — free text in,
// nearest historical incidents out, anchored at the fleet's virtual now.
func TestSystemRetrieve(t *testing.T) {
	c := sharedCorpus(t)
	sys, err := NewSystem(c.Fleet, Config{Seed: 2, K: 5})
	if err != nil {
		t.Fatal(err)
	}

	// Untrained: no embedder yet.
	if _, err := sys.Retrieve("delivery queue stuck", 3, false); err == nil {
		t.Fatal("Retrieve before TrainEmbedding must fail")
	}

	history := c.Incidents[:100]
	if err := sys.TrainEmbedding(history); err != nil {
		t.Fatal(err)
	}

	// Trained but empty store: no hits, no error.
	hits, err := sys.Retrieve("delivery queue stuck", 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Fatalf("hits from empty store: %d", len(hits))
	}

	if err := sys.AddHistory(history); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Retrieve("   ", 3, false); err == nil {
		t.Fatal("blank query must fail")
	}

	query := history[10].DiagnosticText()
	hits, err = sys.Retrieve(query, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 {
		t.Fatalf("hits = %d, want 3", len(hits))
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Similarity > hits[i-1].Similarity {
			t.Fatalf("hits not ordered by similarity: %v then %v",
				hits[i-1].Similarity, hits[i].Similarity)
		}
	}

	// k <= 0 falls back to the configured K.
	hits, err = sys.Retrieve(query, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 5 {
		t.Fatalf("default-k hits = %d, want K=5", len(hits))
	}

	// Diverse retrieval returns distinct categories.
	hits, err = sys.Retrieve(query, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[Category]bool{}
	for _, h := range hits {
		if seen[h.Entry.Category] {
			t.Fatalf("diverse retrieval repeated category %s", h.Entry.Category)
		}
		seen[h.Entry.Category] = true
	}
}

// TestRenderRetryQueueThroughSystem: the System-level wrapper renders the
// feedback loop's live schedule.
func TestRenderRetryQueueThroughSystem(t *testing.T) {
	c := sharedCorpus(t)
	sys, err := NewSystem(c.Fleet, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := sys.RenderRetryQueue(ReportOptions{})
	if !strings.Contains(out, "LEARN RETRY QUEUE") ||
		!strings.Contains(out, "no unresolved learn failures") {
		t.Fatalf("rendering:\n%s", out)
	}
}

func TestMultiTenantSystemRetrieveTeam(t *testing.T) {
	c := sharedCorpus(t)
	sys, err := NewSystem(c.Fleet, Config{Seed: 2, MultiTenant: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainEmbedding(c.Incidents[:80]); err != nil {
		t.Fatal(err)
	}
	teams := []string{"Alpha", "Beta"}
	for i, in := range c.Incidents[:40] {
		clone := in.Clone()
		clone.OwningTeam = teams[i%len(teams)]
		if err := sys.Learn(clone); err != nil {
			t.Fatal(err)
		}
	}
	query := c.Incidents[0].DiagnosticText()
	for _, team := range teams {
		hits, err := sys.RetrieveTeam(team, query, 5, false)
		if err != nil {
			t.Fatalf("RetrieveTeam(%s): %v", team, err)
		}
		if len(hits) == 0 {
			t.Fatalf("RetrieveTeam(%s) found nothing", team)
		}
		for _, h := range hits {
			if h.Entry.Namespace != team {
				t.Fatalf("RetrieveTeam(%s) leaked entry from namespace %q", team, h.Entry.Namespace)
			}
		}
	}
	hits, err := sys.RetrieveTeam("Ghost", query, 5, false)
	if err != nil {
		t.Fatalf("RetrieveTeam(unknown): %v", err)
	}
	if len(hits) != 0 {
		t.Fatalf("unknown team retrieved %d hits", len(hits))
	}
}
