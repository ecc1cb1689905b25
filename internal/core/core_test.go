package core

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/embed/fasttext"
	"repro/internal/incident"
	"repro/internal/llm/simgpt"
	"repro/internal/transport"
)

// testEnv builds a shared corpus + trained embedder once (deterministic).
type testEnv struct {
	corpus   *dataset.Corpus
	embedder FastTextEmbedder
}

var (
	envOnce sync.Once
	env     testEnv
)

func getEnv(t *testing.T) testEnv {
	t.Helper()
	envOnce.Do(func() {
		c, err := dataset.Generate(dataset.DefaultSpec(3))
		if err != nil {
			t.Fatalf("corpus: %v", err)
		}
		texts := make([]string, 0, len(c.Incidents))
		for _, in := range c.Incidents {
			texts = append(texts, in.DiagnosticText())
		}
		m, err := fasttext.TrainSkipgram(texts, fasttext.Config{
			Dim: 48, Epochs: 4, Window: 5, NegSamples: 4, MinCount: 2,
			Buckets: 1 << 14, Seed: 3,
		})
		if err != nil {
			t.Fatalf("fasttext: %v", err)
		}
		env = testEnv{corpus: c, embedder: FastTextEmbedder{Model: m}}
	})
	return env
}

func newCopilot(t *testing.T, cfg Config) *Copilot {
	t.Helper()
	e := getEnv(t)
	cfg.Chat = simgpt.MustNew(simgpt.GPT4, simgpt.Options{Seed: 3})
	c, err := New(e.corpus.Fleet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.SetEmbedder(e.embedder)
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil fleet should fail")
	}
}

// TestNewRejectsBadAlpha: a decay coefficient that is negative (older
// incidents would outrank newer ones), NaN or infinite fails New with an
// error naming Alpha instead of being accepted silently.
func TestNewRejectsBadAlpha(t *testing.T) {
	e := getEnv(t)
	chat := simgpt.MustNew(simgpt.GPT4, simgpt.Options{Seed: 3})
	for _, a := range []float64{-0.3, -1e-9, math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := New(e.corpus.Fleet, Config{Chat: chat, Alpha: a})
		if err == nil || !strings.Contains(err.Error(), "Alpha") {
			t.Fatalf("Alpha %v: got error %v, want a rejection naming Alpha", a, err)
		}
	}
	for _, a := range []float64{0, 1e-9, 0.3, 5} {
		if _, err := New(e.corpus.Fleet, Config{Chat: chat, Alpha: a}); err != nil {
			t.Fatalf("Alpha %v: %v", a, err)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := newCopilot(t, Config{})
	cfg := c.Config()
	if cfg.K != 5 || cfg.Alpha != 0.3 || cfg.Team != "Transport" {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if !cfg.Context.DiagnosticInfo || !cfg.Context.Summarized {
		t.Fatalf("default context should be summarized diagnostic info: %+v", cfg.Context)
	}
}

func TestSummarizeSetsBudgetedSummary(t *testing.T) {
	e := getEnv(t)
	c := newCopilot(t, Config{})
	inc := e.corpus.Incidents[0].Clone()
	inc.Summary = ""
	if err := c.Summarize(inc); err != nil {
		t.Fatal(err)
	}
	if inc.Summary == "" {
		t.Fatal("summary not set")
	}
	words := len(strings.Fields(inc.Summary))
	if words > 160 {
		t.Fatalf("summary has %d words, exceeds Figure-7 budget", words)
	}
	if c.Meter().Total() <= 0 {
		t.Fatal("LLM latency not metered")
	}
}

func TestSummarizeRequiresEvidence(t *testing.T) {
	c := newCopilot(t, Config{})
	inc := &incident.Incident{ID: "X"}
	if err := c.Summarize(inc); err == nil {
		t.Fatal("summarize without evidence should fail")
	}
}

func TestLearnAndPredictRecurringCategory(t *testing.T) {
	e := getEnv(t)
	c := newCopilot(t, Config{})
	// Probe: the last HubPortExhaustion incident; history: the 200
	// incidents preceding it (the on-call reality — everything before the
	// incoming incident is labelled history).
	probeIdx := -1
	for i, in := range e.corpus.Incidents {
		if in.Category == "HubPortExhaustion" {
			probeIdx = i
		}
	}
	if probeIdx < 200 {
		t.Fatalf("last HubPortExhaustion at %d, too early for this scenario", probeIdx)
	}
	probe := e.corpus.Incidents[probeIdx].Clone()
	learned := 0
	for i := probeIdx - 200; i < probeIdx; i++ {
		if err := c.Learn(e.corpus.Incidents[i].Clone()); err != nil {
			t.Fatalf("Learn: %v", err)
		}
		learned++
	}
	if c.Index().Len() != learned {
		t.Fatalf("db has %d entries, want %d", c.Index().Len(), learned)
	}
	probe.Summary = ""
	probe.Predicted = ""
	res, err := c.Predict(probe)
	if err != nil {
		t.Fatal(err)
	}
	if probe.Predicted == "" || probe.Explanation == "" {
		t.Fatal("prediction must set category and explanation on the incident")
	}
	if !res.Unseen && res.Category != probe.Predicted {
		t.Fatal("result/category mismatch")
	}
	// With a rich history of this frequent category, the match should be
	// found rather than declared unseen.
	if res.Unseen {
		t.Errorf("recurring HubPortExhaustion predicted unseen; explanation: %s", res.Explanation)
	} else if res.Category != "HubPortExhaustion" {
		t.Logf("note: predicted %s (acceptable noise, but usually HubPortExhaustion)", res.Category)
	}
}

func TestPredictRequiresEmbedder(t *testing.T) {
	e := getEnv(t)
	chat := simgpt.MustNew(simgpt.GPT4, simgpt.Options{Seed: 1})
	c, err := New(e.corpus.Fleet, Config{Chat: chat})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Predict(e.corpus.Incidents[0].Clone()); err == nil {
		t.Fatal("predict without embedder should fail")
	}
	if err := c.Learn(e.corpus.Incidents[0].Clone()); err == nil {
		t.Fatal("learn without embedder should fail")
	}
}

func TestLearnRequiresLabel(t *testing.T) {
	e := getEnv(t)
	c := newCopilot(t, Config{})
	in := e.corpus.Incidents[0].Clone()
	in.Category = ""
	if err := c.Learn(in); err == nil {
		t.Fatal("learn without ground-truth label should fail")
	}
}

func TestContextTextAblationVariants(t *testing.T) {
	e := getEnv(t)
	inc := e.corpus.Incidents[0].Clone()
	inc.Summary = "summarized text marker"

	cases := []struct {
		name string
		cfg  ContextSources
		want string
	}{
		{"alert only", ContextSources{AlertInfo: true}, "AlertType:"},
		{"raw diag", ContextSources{DiagnosticInfo: true}, "["},
		{"summarized", ContextSources{DiagnosticInfo: true, Summarized: true}, "summarized text marker"},
		{"action output", ContextSources{ActionOutput: true}, "known-issue"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCopilot(t, Config{Context: tc.cfg})
			got := c.ContextText(inc)
			if !strings.Contains(got, tc.want) {
				t.Errorf("context %+v missing %q:\n%.200s", tc.cfg, tc.want, got)
			}
		})
	}
	// Combined context includes all three blocks.
	c := newCopilot(t, Config{Context: ContextSources{AlertInfo: true, DiagnosticInfo: true, Summarized: true, ActionOutput: true}})
	all := c.ContextText(inc)
	for _, want := range []string{"AlertType:", "summarized text marker", "known-issue"} {
		if !strings.Contains(all, want) {
			t.Errorf("combined context missing %q", want)
		}
	}
}

func TestHandleIncidentEndToEnd(t *testing.T) {
	e := getEnv(t)
	c := newCopilot(t, Config{})
	// Seed history so retrieval has demonstrations.
	for i, in := range e.corpus.Incidents {
		if i >= 40 {
			break
		}
		if err := c.Learn(in.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	// A fresh incident: inject a fault, take the monitor alert.
	fleet := e.corpus.Fleet
	fault, err := fleet.Inject("DeliveryHang", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer fault.Repair()
	alert, ok := fleet.FirstAlert()
	if !ok {
		t.Fatal("no alert")
	}
	inc := IncidentAt(alert, incident.Sev2, "Transport", 1, fleet.Clock().Now())
	report, res, err := c.HandleIncident(inc)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Steps) == 0 || len(inc.Evidence) == 0 {
		t.Fatal("collection stage did not run")
	}
	if inc.Summary == "" {
		t.Fatal("summarization stage did not run")
	}
	if res.Category == "" || inc.Predicted == "" {
		t.Fatal("prediction stage did not run")
	}
}

func TestIncidentAtShape(t *testing.T) {
	alert := incident.Alert{
		Type: transport.AlertProcessCrashSpike, Scope: incident.ScopeForest,
		Target: "F1", Forest: "F1", Message: "crashes over threshold",
	}
	e := getEnv(t)
	inc := IncidentAt(alert, incident.Sev1, "Transport", 7, e.corpus.Fleet.Clock().Now())
	if err := inc.Validate(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(inc.ID, "INC-") || inc.Title != alert.Message {
		t.Fatalf("incident malformed: %+v", inc)
	}
}

func TestLLMEmbedderAdapter(t *testing.T) {
	chat := simgpt.MustNew(simgpt.GPT4, simgpt.Options{Seed: 1})
	e := LLMEmbedder{Client: chat, EmbedDim: 64}
	if e.Dim() != 64 {
		t.Fatal("dim mismatch")
	}
	v, err := e.Embed("udp socket exhausted")
	if err != nil || len(v) != 64 {
		t.Fatalf("embed: %v len=%d", err, len(v))
	}
}
