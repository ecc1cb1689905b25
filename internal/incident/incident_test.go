package incident

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

func sample(t *testing.T) *Incident {
	t.Helper()
	return &Incident{
		ID:           "INC-0001",
		Title:        "Messages stuck in delivery queue",
		OwningTeam:   "Transport",
		OwningTenant: "contoso",
		Severity:     Sev2,
		Alert: Alert{
			Type:     "MessagesStuckInDeliveryQueue",
			Scope:    ScopeForest,
			Monitor:  "DeliveryQueueMonitor",
			Target:   "forest-07",
			Message:  "Normal priority messages queued beyond threshold",
			RaisedAt: time.Date(2022, 11, 21, 2, 4, 20, 0, time.UTC),
		},
		CreatedAt: time.Date(2022, 11, 21, 2, 5, 0, 0, time.UTC),
		Category:  "DeliveryHang",
	}
}

func TestValidateOK(t *testing.T) {
	if err := sample(t).Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
}

func TestValidateRejectsEachMissingField(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Incident)
	}{
		{"missing id", func(in *Incident) { in.ID = "" }},
		{"missing title", func(in *Incident) { in.Title = "" }},
		{"invalid severity low", func(in *Incident) { in.Severity = 0 }},
		{"invalid severity high", func(in *Incident) { in.Severity = 9 }},
		{"missing alert type", func(in *Incident) { in.Alert.Type = "" }},
		{"invalid scope", func(in *Incident) { in.Alert.Scope = "Galaxy" }},
		{"missing created", func(in *Incident) { in.CreatedAt = time.Time{} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := sample(t)
			tc.mutate(in)
			if err := in.Validate(); err == nil {
				t.Fatalf("Validate() = nil, want error")
			}
		})
	}
}

func TestSeverityString(t *testing.T) {
	if got := Sev1.String(); got != "Sev1" {
		t.Fatalf("Sev1.String() = %q, want Sev1", got)
	}
	if got := Sev3.String(); got != "Sev3" {
		t.Fatalf("Sev3.String() = %q, want Sev3", got)
	}
}

func TestScopeOrdering(t *testing.T) {
	if !ScopeMachine.Narrower(ScopeForest) {
		t.Error("Machine should be narrower than Forest")
	}
	if !ScopeForest.Narrower(ScopeRegion) {
		t.Error("Forest should be narrower than Region")
	}
	if !ScopeRegion.Narrower(ScopeService) {
		t.Error("Region should be narrower than Service")
	}
	if ScopeService.Narrower(ScopeMachine) {
		t.Error("Service should not be narrower than Machine")
	}
	if ScopeForest.Narrower(ScopeForest) {
		t.Error("a scope is not narrower than itself")
	}
}

func TestScopeValid(t *testing.T) {
	for _, s := range []Scope{ScopeMachine, ScopeForest, ScopeRegion, ScopeService} {
		if !s.Valid() {
			t.Errorf("%q should be valid", s)
		}
	}
	if Scope("Planet").Valid() {
		t.Error("unknown scope should be invalid")
	}
}

func TestAddEvidenceAndDiagnosticText(t *testing.T) {
	in := sample(t)
	at := in.CreatedAt
	in.AddEvidence("ProbeLog", SourceProbe, "Total Probes: 2, Failed Probes: 2", at)
	in.AddEvidence("SocketMetrics", SourceMetric, "Total UDP socket count: 15276", at)

	text := in.DiagnosticText()
	for _, want := range []string{
		"[probe/ProbeLog]", "Failed Probes: 2",
		"[metric/SocketMetrics]", "15276",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("DiagnosticText missing %q in:\n%s", want, text)
		}
	}
	// Order must follow collection order.
	if strings.Index(text, "ProbeLog") > strings.Index(text, "SocketMetrics") {
		t.Error("evidence should render in collection order")
	}
}

func TestDiagnosticTextEmpty(t *testing.T) {
	in := sample(t)
	if got := in.DiagnosticText(); got != "" {
		t.Fatalf("DiagnosticText() on empty evidence = %q, want empty", got)
	}
}

// refDiagnosticText is the fmt.Fprintf rendering DiagnosticText replaced.
func refDiagnosticText(in *Incident) string {
	var b strings.Builder
	for i, ev := range in.Evidence {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "[%s/%s]\n%s\n", ev.Kind, ev.Source, strings.TrimRight(ev.Body, "\n"))
	}
	return b.String()
}

func TestDiagnosticTextMatchesFprintf(t *testing.T) {
	in := sample(t)
	check := func() {
		t.Helper()
		if got, want := in.DiagnosticText(), refDiagnosticText(in); got != want {
			t.Fatalf("DiagnosticText() = %q, want %q", got, want)
		}
	}
	check() // no evidence
	at := in.CreatedAt
	for _, ev := range []struct {
		source string
		kind   SourceKind
		body   string
	}{
		{"ProbeLog", SourceProbe, "Total Probes: 2, Failed Probes: 2"},
		{"SocketMetrics", SourceMetric, "Total UDP socket count: 15276\n"},
		{"Stack", SourceStack, "at Foo()\n\n\n"},
		{"", SourceKind(""), ""},
		{"Empty", SourceLog, "\n"},
		{"Percent %s %d", SourceKind("odd/kind"), "100% full\r\n\xff\xfe Ünïcödé"},
		{"Mid", SourceConfig, "line one\n\nline three\n"},
	} {
		in.AddEvidence(ev.source, ev.kind, ev.body, at)
		check()
	}
}

func TestActionOutputTextSortedAndDeterministic(t *testing.T) {
	in := sample(t)
	in.SetActionOutput("zeta", "1")
	in.SetActionOutput("alpha", "2")
	in.SetActionOutput("mid", "3")
	want := "alpha: 2\nmid: 3\nzeta: 1\n"
	for i := 0; i < 10; i++ {
		if got := in.ActionOutputText(); got != want {
			t.Fatalf("ActionOutputText() = %q, want %q", got, want)
		}
	}
}

func TestActionOutputTextEmpty(t *testing.T) {
	in := sample(t)
	if got := in.ActionOutputText(); got != "" {
		t.Fatalf("ActionOutputText() = %q, want empty", got)
	}
}

func TestAlertInfoContainsFields(t *testing.T) {
	in := sample(t)
	info := in.Alert.Info()
	for _, want := range []string{
		"AlertType: MessagesStuckInDeliveryQueue",
		"AlertScope: Forest",
		"Monitor: DeliveryQueueMonitor",
		"Target: forest-07",
	} {
		if !strings.Contains(info, want) {
			t.Errorf("Alert.Info() missing %q", want)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	in := sample(t)
	in.AddEvidence("ProbeLog", SourceProbe, "body", in.CreatedAt)
	in.SetActionOutput("k", "v")

	cp := in.Clone()
	cp.Evidence[0].Body = "mutated"
	cp.SetActionOutput("k", "mutated")
	cp.Title = "mutated"

	if in.Evidence[0].Body != "body" {
		t.Error("clone shares evidence slice with original")
	}
	if in.ActionOutput["k"] != "v" {
		t.Error("clone shares action output map with original")
	}
	if in.Title != "Messages stuck in delivery queue" {
		t.Error("clone shares scalar state with original")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := sample(t)
	in.AddEvidence("ProbeLog", SourceProbe, "Total Probes: 2", in.CreatedAt)
	in.SetActionOutput("known-issue", "false")
	in.Summary = "probe failures on backend machine"
	in.Predicted = "HubPortExhaustion"
	in.Explanation = "matching probe failure signature"

	data, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.ID != in.ID || got.Predicted != in.Predicted || got.Summary != in.Summary {
		t.Fatalf("round trip mismatch: got %+v", got)
	}
	if len(got.Evidence) != 1 || got.Evidence[0].Body != "Total Probes: 2" {
		t.Fatalf("evidence round trip mismatch: %+v", got.Evidence)
	}
	if got.ActionOutput["known-issue"] != "false" {
		t.Fatalf("action output round trip mismatch: %+v", got.ActionOutput)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("{not json")); err == nil {
		t.Fatal("Decode should fail on malformed input")
	}
}

func TestMarshalJSONIndent(t *testing.T) {
	data, err := sample(t).MarshalJSONIndent()
	if err != nil {
		t.Fatalf("MarshalJSONIndent: %v", err)
	}
	if !strings.Contains(string(data), "\n  \"id\"") {
		t.Errorf("expected indented JSON, got %s", data)
	}
}
