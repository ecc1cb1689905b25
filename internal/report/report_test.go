package report

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/feedback"
	"repro/internal/handler"
	"repro/internal/incident"
)

func handledIncident() (*incident.Incident, *handler.RunReport) {
	inc := &incident.Incident{
		ID: "INC-42", Title: "too many messages stuck in the delivery queue",
		OwningTeam: "Transport", OwningTenant: "contoso",
		Severity: incident.Sev2,
		Alert: incident.Alert{
			Type: "MessagesStuckInDeliveryQueue", Scope: incident.ScopeForest,
			Monitor: "DeliveryQueueMonitor", Target: "NAMPR01A",
			Message: "delivery queue depth 10861 beyond limit",
		},
		CreatedAt:   time.Date(2022, 11, 21, 2, 4, 0, 0, time.UTC),
		Summary:     "Delivery queue exceeded the limit with blocked threads in the delivery agent.",
		Predicted:   "DeliveryHang",
		Explanation: "both incidents exhibit blocked delivery threads.",
	}
	inc.AddEvidence("queue-metrics", incident.SourceMetric,
		"line1\nline2\nline3\nline4\nline5\nline6", inc.CreatedAt)
	rep := &handler.RunReport{
		Handler: "delivery-queue-stuck",
		Steps: []handler.Step{
			{NodeID: "known", Label: "Known Issue?", Kind: handler.KindQuery, Outcome: handler.OutcomeFalse},
			{NodeID: "restart", Label: "Restart Service", Kind: handler.KindMitigation, Outcome: handler.OutcomeDefault},
		},
		Mitigations: []string{"restart the mailbox delivery service"},
		VirtualCost: 12 * time.Second,
	}
	return inc, rep
}

func TestRenderContainsAllSections(t *testing.T) {
	inc, rep := handledIncident()
	out := Render(inc, rep, Options{})
	for _, want := range []string{
		"INCIDENT INC-42", "Sev2",
		"ALERT", "MessagesStuckInDeliveryQueue",
		"DIAGNOSTIC COLLECTION", "delivery-queue-stuck", "Known Issue?",
		"EVIDENCE", "queue-metrics",
		"SUMMARIZED DIAGNOSTIC INFORMATION", "blocked threads",
		"ROOT CAUSE PREDICTION", "DeliveryHang",
		"SUGGESTED MITIGATIONS", "restart the mailbox delivery service",
		"FEEDBACK", "confirm INC-42", "correct INC-42 <category>", "reject  INC-42",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRenderTruncatesEvidence(t *testing.T) {
	inc, rep := handledIncident()
	out := Render(inc, rep, Options{MaxEvidenceLines: 2})
	if strings.Contains(out, "line3") {
		t.Error("evidence should be truncated at 2 lines")
	}
	if !strings.Contains(out, "more lines") {
		t.Error("truncation marker missing")
	}
}

func TestRenderHidesEvidenceWhenNegative(t *testing.T) {
	inc, rep := handledIncident()
	out := Render(inc, rep, Options{MaxEvidenceLines: -1})
	if strings.Contains(out, "EVIDENCE") {
		t.Error("negative MaxEvidenceLines should hide raw evidence")
	}
}

func TestRenderWithoutPredictionOrReport(t *testing.T) {
	inc, _ := handledIncident()
	inc.Predicted = ""
	inc.Summary = ""
	out := Render(inc, nil, Options{})
	if strings.Contains(out, "ROOT CAUSE PREDICTION") || strings.Contains(out, "DIAGNOSTIC COLLECTION") {
		t.Error("sections for absent data should be omitted")
	}
	if !strings.Contains(out, "ALERT") {
		t.Error("alert section must always render")
	}
}

func TestRenderCustomFeedbackAddress(t *testing.T) {
	inc, rep := handledIncident()
	out := Render(inc, rep, Options{FeedbackAddress: "oncall@example"})
	if !strings.Contains(out, "oncall@example") {
		t.Error("custom feedback address not rendered")
	}
}

func TestParseFeedbackCommand(t *testing.T) {
	verb, id, cat, err := ParseFeedbackCommand("  confirm INC-42 ")
	if err != nil || verb != "confirm" || id != "INC-42" || cat != "" {
		t.Fatalf("confirm parse: %s %s %s %v", verb, id, cat, err)
	}
	verb, id, cat, err = ParseFeedbackCommand("correct INC-42 DiskFull")
	if err != nil || verb != "correct" || cat != "DiskFull" {
		t.Fatalf("correct parse: %s %s %s %v", verb, id, cat, err)
	}
	if _, _, _, err := ParseFeedbackCommand("reject INC-42"); err != nil {
		t.Fatalf("reject parse: %v", err)
	}
	for _, bad := range []string{
		"", "confirm", "correct INC-42", "confirm INC-42 extra",
		"promote INC-42", "reject INC-42 Cat",
	} {
		if _, _, _, err := ParseFeedbackCommand(bad); err == nil {
			t.Errorf("ParseFeedbackCommand(%q) should fail", bad)
		}
	}
}

func TestRenderRetryQueue(t *testing.T) {
	now := time.Date(2022, 11, 21, 12, 0, 0, 0, time.UTC)
	items := []feedback.Failure{
		{
			IncidentID: "INC-1", Reviewer: "oce-a", Attempts: 2,
			NextDue: now.Add(90 * time.Second),
			Err:     errors.New("embedder unavailable"),
			At:      now.Add(-time.Minute),
		},
		{
			IncidentID: "INC-2", Reviewer: "oce-b", Attempts: 8, Exhausted: true,
			Err: errors.New("dimension mismatch"), At: now.Add(-time.Hour),
		},
		{
			IncidentID: "INC-3", Reviewer: "oce-c", Attempts: 1,
			NextDue: now.Add(-time.Second), At: now.Add(-time.Minute),
		},
		{IncidentID: "INC-4", Reviewer: "oce-d", At: now},
	}
	out := RenderRetryQueue(now, items, Options{})
	for _, want := range []string{
		"LEARN RETRY QUEUE",
		"INC-1  reviewer=oce-a  attempts=2",
		"next redrive 2022-11-21 12:01:30 UTC (in 1m30s)",
		"error: embedder unavailable",
		"EXHAUSTED — resubmit the verdict",
		"(due now)",
		"not scheduled (retry queue off)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}

	empty := RenderRetryQueue(now, nil, Options{})
	if !strings.Contains(empty, "no unresolved learn failures") {
		t.Fatalf("empty rendering:\n%s", empty)
	}
}
