// Package incident defines the core data model shared by every stage of
// RCACopilot: alerts raised by monitors, the incidents created from them,
// the diagnostic evidence gathered by incident handlers, and the root-cause
// category labels assigned by on-call engineers.
//
// The model mirrors the fields the paper's architecture diagram (Figure 4)
// threads through the system: an incoming incident carries a title, owning
// tenant/team and ID; the collection stage attaches multi-source diagnostic
// information; the prediction stage attaches a summary, a predicted category
// and an explanation.
package incident

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Severity is the incident severity level. Severity 1 is the most severe
// (outage-level); severity 4 is informational.
type Severity int

// Severity levels used by the Transport service in the paper (Table 1 lists
// severity 1-3 incidents).
const (
	Sev1 Severity = 1 + iota
	Sev2
	Sev3
	Sev4
)

// String returns the conventional "Sev<n>" rendering.
func (s Severity) String() string { return fmt.Sprintf("Sev%d", int(s)) }

// Valid reports whether s is one of the defined severity levels.
func (s Severity) Valid() bool { return s >= Sev1 && s <= Sev4 }

// Scope describes the blast radius of an alert or investigation. Scope
// switching actions in incident handlers move between these levels.
type Scope string

// Scopes from the paper: a single machine, a forest (a cluster of servers
// serving a set of tenants), a region of forests, or the whole service.
const (
	ScopeMachine Scope = "Machine"
	ScopeForest  Scope = "Forest"
	ScopeRegion  Scope = "Region"
	ScopeService Scope = "Service"
)

// Narrower reports whether s is strictly narrower than t
// (Machine < Forest < Region < Service).
func (s Scope) Narrower(t Scope) bool { return scopeRank(s) < scopeRank(t) }

func scopeRank(s Scope) int {
	switch s {
	case ScopeMachine:
		return 0
	case ScopeForest:
		return 1
	case ScopeRegion:
		return 2
	case ScopeService:
		return 3
	default:
		return -1
	}
}

// Valid reports whether s is one of the defined scopes.
func (s Scope) Valid() bool { return scopeRank(s) >= 0 }

// Category is a root-cause category label, e.g. "HubPortExhaustion".
// Categories are assigned by experienced OCEs after investigation and form
// the ground truth for the prediction stage.
type Category string

// Unseen is the reserved pseudo-category the predictor answers when it
// believes no historical incident shares the current root cause (option A in
// the paper's Figure 9 prompt).
const Unseen Category = "Unseen"

// AlertType identifies the monitor-defined anomaly class of an alert, e.g.
// "MessagesStuckInDeliveryQueue". Incidents sharing an alert type exhibit
// similar symptoms but may stem from different root causes; each alert type
// is matched to one incident handler.
type AlertType string

// Alert is the monitor signal that opens an incident.
type Alert struct {
	Type     AlertType `json:"type"`
	Scope    Scope     `json:"scope"`
	Monitor  string    `json:"monitor"`          // monitor/watchdog that fired
	Target   string    `json:"target"`           // machine or forest identifier
	Forest   string    `json:"forest,omitempty"` // owning forest when Target is a machine
	Message  string    `json:"message"`          // alert text shown to OCEs
	RaisedAt time.Time `json:"raisedAt"`
}

// Info renders the alert metadata block ("AlertInfo" in the paper's Table 3
// ablation): the pre-defined anomaly description and the alert scope.
func (a Alert) Info() string {
	var b strings.Builder
	fmt.Fprintf(&b, "AlertType: %s\n", a.Type)
	fmt.Fprintf(&b, "AlertScope: %s\n", a.Scope)
	fmt.Fprintf(&b, "Monitor: %s\n", a.Monitor)
	fmt.Fprintf(&b, "Target: %s\n", a.Target)
	fmt.Fprintf(&b, "Message: %s\n", a.Message)
	return b.String()
}

// SourceKind classifies a diagnostic data source along the paper's
// multi-source spectrum.
type SourceKind string

// Diagnostic source kinds collected by handler query actions.
const (
	SourceLog    SourceKind = "log"    // semi-structured event text
	SourceMetric SourceKind = "metric" // time-series / counter snapshots
	SourceTrace  SourceKind = "trace"  // request-flow records
	SourceStack  SourceKind = "stack"  // exception or thread stacks
	SourceConfig SourceKind = "config" // configuration snapshots
	SourceProbe  SourceKind = "probe"  // synthetic-probe results
)

// Evidence is one piece of diagnostic information collected from one source
// by a handler action.
type Evidence struct {
	Source    string     `json:"source"` // e.g. "DatacenterHubOutboundProxyProbe"
	Kind      SourceKind `json:"kind"`
	Body      string     `json:"body"`
	Collected time.Time  `json:"collected"`
}

// Incident is a service-disrupting event moving through the RCACopilot
// pipeline. Fields are populated progressively: creation metadata by the
// monitor, Evidence and ActionOutput by the collection stage, Summary /
// Predicted / Explanation by the prediction stage, and Category by OCEs
// post-investigation (ground truth).
type Incident struct {
	ID           string   `json:"id"`
	Title        string   `json:"title"`
	OwningTeam   string   `json:"owningTeam"`
	OwningTenant string   `json:"owningTenant"`
	Severity     Severity `json:"severity"`
	Alert        Alert    `json:"alert"`

	CreatedAt time.Time `json:"createdAt"`

	// Collection-stage outputs.
	Evidence     []Evidence        `json:"evidence,omitempty"`
	ActionOutput map[string]string `json:"actionOutput,omitempty"`

	// Prediction-stage outputs.
	Summary     string   `json:"summary,omitempty"`
	Predicted   Category `json:"predicted,omitempty"`
	Explanation string   `json:"explanation,omitempty"`

	// Ground truth assigned by OCEs after investigation.
	Category Category `json:"category,omitempty"`
}

// Validate reports the first structural problem with the incident, or nil.
func (in *Incident) Validate() error {
	switch {
	case in.ID == "":
		return fmt.Errorf("incident: missing ID")
	case in.Title == "":
		return fmt.Errorf("incident %s: missing title", in.ID)
	case !in.Severity.Valid():
		return fmt.Errorf("incident %s: invalid severity %d", in.ID, int(in.Severity))
	case in.Alert.Type == "":
		return fmt.Errorf("incident %s: missing alert type", in.ID)
	case !in.Alert.Scope.Valid():
		return fmt.Errorf("incident %s: invalid alert scope %q", in.ID, in.Alert.Scope)
	case in.CreatedAt.IsZero():
		return fmt.Errorf("incident %s: missing creation time", in.ID)
	}
	return nil
}

// AddEvidence appends one piece of diagnostic information.
func (in *Incident) AddEvidence(source string, kind SourceKind, body string, at time.Time) {
	in.Evidence = append(in.Evidence, Evidence{Source: source, Kind: kind, Body: body, Collected: at})
}

// SetActionOutput records the key-value output of an executed handler
// action ("ActionOutput" in the paper's Table 3 ablation).
func (in *Incident) SetActionOutput(key, value string) {
	if in.ActionOutput == nil {
		in.ActionOutput = make(map[string]string)
	}
	in.ActionOutput[key] = value
}

// DiagnosticText renders all collected evidence as one document, in
// collection order, separated by source headers. This is the
// "DiagnosticInfo" context of the paper's Table 3 and the input to
// summarization (Figure 6 shows an example for hub port exhaustion).
func (in *Incident) DiagnosticText() string {
	n := 0
	for _, ev := range in.Evidence {
		n += len(ev.Kind) + len(ev.Source) + len(ev.Body) + 6
	}
	var b strings.Builder
	b.Grow(n)
	for i, ev := range in.Evidence {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteByte('[')
		b.WriteString(string(ev.Kind))
		b.WriteByte('/')
		b.WriteString(ev.Source)
		b.WriteString("]\n")
		b.WriteString(strings.TrimRight(ev.Body, "\n"))
		b.WriteByte('\n')
	}
	return b.String()
}

// ActionOutputText renders the action outputs as sorted key-value lines so
// the rendering is deterministic.
func (in *Incident) ActionOutputText() string {
	if len(in.ActionOutput) == 0 {
		return ""
	}
	keys := make([]string, 0, len(in.ActionOutput))
	for k := range in.ActionOutput {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s: %s\n", k, in.ActionOutput[k])
	}
	return b.String()
}

// Clone returns a deep copy of the incident.
func (in *Incident) Clone() *Incident {
	out := *in
	out.Evidence = append([]Evidence(nil), in.Evidence...)
	if in.ActionOutput != nil {
		out.ActionOutput = make(map[string]string, len(in.ActionOutput))
		for k, v := range in.ActionOutput {
			out.ActionOutput[k] = v
		}
	}
	return &out
}

// MarshalJSONIndent renders the incident as indented JSON.
func (in *Incident) MarshalJSONIndent() ([]byte, error) {
	return json.MarshalIndent(in, "", "  ")
}

// Decode parses an incident from JSON produced by encoding/json.
func Decode(data []byte) (*Incident, error) {
	var in Incident
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("incident: decode: %w", err)
	}
	return &in, nil
}
