package handler

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/incident"
	"repro/internal/transport"
)

func querySpec(op string) ActionSpec { return ActionSpec{Kind: KindQuery, Op: op} }

func TestBuilderBuildsValidHandler(t *testing.T) {
	h, err := NewBuilder("t", transport.AlertDiskSpaceLow, "Transport").
		Node("a", "Check Disk", querySpec("disk-usage")).
		Node("b", "Done", ActionSpec{Kind: KindMitigation}).
		Edge("a", OutcomeDefault, "b").
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if h.Root != "a" {
		t.Fatalf("root = %q, want a (first node)", h.Root)
	}
	if h.NumActions() != 2 {
		t.Fatalf("NumActions = %d, want 2", h.NumActions())
	}
}

func TestBuilderRejectsDuplicateNode(t *testing.T) {
	_, err := NewBuilder("t", "A", "T").
		Node("a", "", querySpec("disk-usage")).
		Node("a", "", querySpec("disk-usage")).
		Build()
	if err == nil {
		t.Fatal("expected duplicate-node error")
	}
}

func TestBuilderRejectsEdgeFromUnknownNode(t *testing.T) {
	_, err := NewBuilder("t", "A", "T").
		Node("a", "", querySpec("disk-usage")).
		Edge("ghost", OutcomeDefault, "a").
		Build()
	if err == nil {
		t.Fatal("expected unknown-node error")
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	_, err := NewBuilder("t", "A", "T").
		Node("a", "", querySpec("disk-usage")).
		Node("b", "", querySpec("crash-events")).
		Edge("a", OutcomeDefault, "b").
		Edge("b", OutcomeDefault, "a").
		Build()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("expected cycle error, got %v", err)
	}
}

func TestValidateRejectsUnregisteredOp(t *testing.T) {
	_, err := NewBuilder("t", "A", "T").
		Node("a", "", querySpec("no-such-op")).
		Build()
	if err == nil || !strings.Contains(err.Error(), "unregistered") {
		t.Fatalf("expected unregistered-op error, got %v", err)
	}
}

func TestValidateRejectsEdgeToUnknownTarget(t *testing.T) {
	h := &Handler{
		Name: "t", AlertType: "A", Root: "a",
		Nodes: map[string]*Node{
			"a": {ID: "a", Action: querySpec("disk-usage"),
				Next: map[Outcome]string{OutcomeDefault: "ghost"}},
		},
	}
	if err := h.Validate(); err == nil {
		t.Fatal("expected unknown-target error")
	}
}

func TestValidateRejectsMissingRoot(t *testing.T) {
	h := &Handler{Name: "t", AlertType: "A", Root: "nope",
		Nodes: map[string]*Node{"a": {ID: "a", Action: querySpec("disk-usage")}}}
	if err := h.Validate(); err == nil {
		t.Fatal("expected missing-root error")
	}
}

func TestBuiltinHandlersAllValidate(t *testing.T) {
	hs, err := BuiltinAll()
	if err != nil {
		t.Fatalf("BuiltinAll: %v", err)
	}
	if len(hs) != len(transport.AllAlertTypes()) {
		t.Fatalf("builtin count = %d, want %d", len(hs), len(transport.AllAlertTypes()))
	}
	for _, h := range hs {
		if err := h.Validate(); err != nil {
			t.Errorf("builtin %s invalid: %v", h.Name, err)
		}
		if h.NumActions() < 4 {
			t.Errorf("builtin %s suspiciously small: %d nodes", h.Name, h.NumActions())
		}
	}
}

func TestBuiltinUnknownAlertType(t *testing.T) {
	if _, err := Builtin("NoSuchAlert"); err == nil {
		t.Fatal("expected error for unknown alert type")
	}
}

// newIncidentFor injects cat into a fresh fleet and returns the fleet plus
// the incident created from the first monitor alert.
func newIncidentFor(t *testing.T, cat incident.Category) (*transport.Fleet, *incident.Incident) {
	t.Helper()
	fleet := transport.NewFleet(transport.DefaultConfig(11))
	if _, err := fleet.Inject(cat, 0); err != nil {
		t.Fatalf("Inject(%s): %v", cat, err)
	}
	alert, ok := fleet.FirstAlert()
	if !ok {
		t.Fatalf("no alert for %s", cat)
	}
	return fleet, &incident.Incident{
		ID: "INC-TEST", Title: alert.Message, OwningTeam: "Transport",
		Severity: incident.Sev2, Alert: alert, CreatedAt: alert.RaisedAt,
	}
}

func TestRunCollectsEvidenceForEveryTable1Category(t *testing.T) {
	for _, cat := range transport.Table1Categories() {
		cat := cat
		t.Run(string(cat), func(t *testing.T) {
			fleet, inc := newIncidentFor(t, cat)
			runner := NewRunner(fleet)
			h, err := Builtin(inc.Alert.Type)
			if err != nil {
				t.Fatal(err)
			}
			report, err := runner.Run(h, inc)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(inc.Evidence) < 3 {
				t.Errorf("collected only %d evidence items", len(inc.Evidence))
			}
			if len(inc.ActionOutput) == 0 {
				t.Error("no action outputs recorded")
			}
			if len(report.Steps) < 3 {
				t.Errorf("report has only %d steps", len(report.Steps))
			}
			if report.VirtualCost <= 0 {
				t.Error("run charged no virtual cost")
			}
		})
	}
}

func TestRunHubPortExhaustionEvidenceHasSignals(t *testing.T) {
	fleet, inc := newIncidentFor(t, "HubPortExhaustion")
	runner := NewRunner(fleet)
	h, err := Builtin(inc.Alert.Type)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(h, inc); err != nil {
		t.Fatal(err)
	}
	text := inc.DiagnosticText()
	for _, want := range []string{"WinSock error: 11001", "UDP socket count", "Failed Probes"} {
		if !strings.Contains(text, want) {
			t.Errorf("diagnostic text missing %q", want)
		}
	}
	if inc.ActionOutput["dns-failing"] != "True" {
		t.Errorf("dns-failing action output = %q, want True", inc.ActionOutput["dns-failing"])
	}
}

func TestKnownIssueShortCircuitsToMitigation(t *testing.T) {
	fleet, inc := newIncidentFor(t, "DeliveryHang")
	runner := NewRunner(fleet)
	// Record the alert-message signature as a known issue.
	runner.KnownIssues.Put("known-issue/"+string(inc.Alert.Type), []byte("stuck in the delivery queue"))
	h, err := Builtin(inc.Alert.Type)
	if err != nil {
		t.Fatal(err)
	}
	report, err := runner.Run(h, inc)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Steps) != 2 {
		t.Fatalf("known issue should short-circuit to 2 steps, got %d", len(report.Steps))
	}
	if inc.ActionOutput["known-issue"] != "true" {
		t.Errorf("known-issue output = %q, want true", inc.ActionOutput["known-issue"])
	}
	if len(report.Mitigations) != 1 {
		t.Fatalf("mitigations = %v, want exactly one", report.Mitigations)
	}
}

func TestRunRejectsAlertTypeMismatch(t *testing.T) {
	fleet, inc := newIncidentFor(t, "FullDisk")
	runner := NewRunner(fleet)
	h, err := Builtin(transport.AlertTokenCreationFailure)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(h, inc); err == nil {
		t.Fatal("expected alert-type mismatch error")
	}
}

func TestRunMaxStepsGuard(t *testing.T) {
	fleet, inc := newIncidentFor(t, "FullDisk")
	runner := NewRunner(fleet)
	runner.MaxSteps = 2
	h, err := Builtin(inc.Alert.Type)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(h, inc); err == nil || !strings.Contains(err.Error(), "steps") {
		t.Fatalf("expected max-steps error, got %v", err)
	}
}

func TestScopeSwitchChangesTarget(t *testing.T) {
	fleet, inc := newIncidentFor(t, "DeliveryHang")
	runner := NewRunner(fleet)
	h, err := Builtin(inc.Alert.Type)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(h, inc); err != nil {
		t.Fatal(err)
	}
	scope, ok := inc.ActionOutput["scope"]
	if !ok || !strings.HasPrefix(scope, "Machine:") {
		t.Fatalf("scope output = %q, want Machine:<name>", scope)
	}
	// The selected machine must be the backlogged one.
	name := strings.TrimPrefix(scope, "Machine:")
	m, ok := fleet.Machine(name)
	if !ok {
		t.Fatalf("scope targeted unknown machine %q", name)
	}
	if m.Queues["Delivery"] <= fleet.Limits().MaxDeliveryQueue {
		t.Error("busiest-delivery strategy picked a machine without backlog")
	}
}

func TestHandlerJSONRoundTrip(t *testing.T) {
	h, err := Builtin(transport.AlertMessagesStuckInDelivery)
	if err != nil {
		t.Fatal(err)
	}
	data, err := h.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != h.Name || got.AlertType != h.AlertType || len(got.Nodes) != len(h.Nodes) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("round-tripped handler invalid: %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	h, err := Builtin(transport.AlertDiskSpaceLow)
	if err != nil {
		t.Fatal(err)
	}
	cp := h.Clone()
	for id := range cp.Nodes {
		cp.Nodes[id].Label = "mutated"
		for o := range cp.Nodes[id].Next {
			cp.Nodes[id].Next[o] = "mutated"
		}
		if cp.Nodes[id].Action.Params != nil {
			for k := range cp.Nodes[id].Action.Params {
				cp.Nodes[id].Action.Params[k] = "mutated"
			}
		}
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("mutating the clone corrupted the original: %v", err)
	}
	for _, n := range h.Nodes {
		if n.Label == "mutated" {
			t.Fatal("clone shares node labels with original")
		}
	}
}

func TestRegistryVersioning(t *testing.T) {
	r := NewRegistry(nil)
	h, err := Builtin(transport.AlertDiskSpaceLow)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := r.Save(h)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != 1 {
		t.Fatalf("first save version = %d, want 1", v1)
	}
	// Edit: disable and re-save.
	h2 := h.Clone()
	h2.Enabled = false
	v2, err := r.Save(h2)
	if err != nil {
		t.Fatal(err)
	}
	if v2 != 2 {
		t.Fatalf("second save version = %d, want 2", v2)
	}
	latest, err := r.Latest("Transport", transport.AlertDiskSpaceLow)
	if err != nil {
		t.Fatal(err)
	}
	if latest.Enabled {
		t.Error("latest should be the disabled edit")
	}
	if latest.Version != 2 {
		t.Errorf("latest version = %d, want 2", latest.Version)
	}
	old, err := r.Version("Transport", transport.AlertDiskSpaceLow, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !old.Enabled {
		t.Error("version 1 should still be the enabled original")
	}
	if n := r.Versions("Transport", transport.AlertDiskSpaceLow); n != 2 {
		t.Errorf("Versions = %d, want 2", n)
	}
}

func TestRegistryMatchAndList(t *testing.T) {
	r := NewRegistry(nil)
	n, err := r.InstallBuiltins("Transport")
	if err != nil {
		t.Fatal(err)
	}
	if n != len(transport.AllAlertTypes()) {
		t.Fatalf("installed %d, want %d", n, len(transport.AllAlertTypes()))
	}
	inc := &incident.Incident{
		ID: "i", Title: "t", Severity: incident.Sev2,
		Alert:     incident.Alert{Type: transport.AlertProcessCrashSpike, Scope: incident.ScopeForest},
		CreatedAt: time.Now(),
	}
	h, err := r.Match("Transport", inc)
	if err != nil {
		t.Fatal(err)
	}
	if h.AlertType != transport.AlertProcessCrashSpike {
		t.Fatalf("matched wrong handler: %s", h.AlertType)
	}
	hs, err := r.List("Transport")
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != n {
		t.Fatalf("List = %d handlers, want %d", len(hs), n)
	}
	cnt, err := r.EnabledCount("Transport")
	if err != nil {
		t.Fatal(err)
	}
	if cnt != n {
		t.Fatalf("EnabledCount = %d, want %d", cnt, n)
	}
	if _, err := r.Match("GhostTeam", inc); err == nil {
		t.Fatal("match for unknown team should fail")
	}
}

func TestOpNamesSortedAndRegistered(t *testing.T) {
	names := OpNames()
	if len(names) < 10 {
		t.Fatalf("expected a rich op library, got %d ops", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("OpNames must be sorted and unique")
		}
	}
	for _, n := range names {
		if !OpRegistered(n) {
			t.Fatalf("op %q listed but not registered", n)
		}
	}
}

// TestRunWithPerRunExecIsolation executes a handler on a fresh per-run
// execution context: the report's VirtualCost must come from the run's own
// accumulator, the fleet meter must stay untouched until Finish, and the
// evidence timestamps must be based at the run's own clock view.
func TestRunWithPerRunExecIsolation(t *testing.T) {
	fleet, inc := newIncidentFor(t, "HubPortExhaustion")
	runner := NewRunner(fleet)
	h, err := Builtin(inc.Alert.Type)
	if err != nil {
		t.Fatal(err)
	}
	meterBefore := fleet.Meter().Total()

	ec := fleet.NewExec(inc.CreatedAt)
	report, err := runner.RunWith(ec, h, inc)
	if err != nil {
		t.Fatal(err)
	}
	if report.VirtualCost <= 0 || report.VirtualCost != ec.CostTotal() {
		t.Fatalf("VirtualCost = %v, exec total = %v", report.VirtualCost, ec.CostTotal())
	}
	if fleet.Meter().Total() != meterBefore {
		t.Fatal("per-run execution leaked cost into the fleet meter before Finish")
	}
	for _, ev := range inc.Evidence {
		if ev.Collected.Before(inc.CreatedAt) {
			t.Fatalf("evidence stamped %v, before run base %v", ev.Collected, inc.CreatedAt)
		}
		if ev.Collected.After(inc.CreatedAt.Add(report.VirtualCost)) {
			t.Fatalf("evidence stamped %v, after run end", ev.Collected)
		}
	}
	ec.Finish()
	if got := fleet.Meter().Total() - meterBefore; got != report.VirtualCost {
		t.Fatalf("merged cost %v != run cost %v", got, report.VirtualCost)
	}
}

// TestRunWithMatchesAmbientRun runs the same handler against two identically
// seeded fleets, once on the ambient context and once on a per-run context,
// and requires identical diagnostics and cost — the refactor's equivalence
// contract.
func TestRunWithMatchesAmbientRun(t *testing.T) {
	fleetA, incA := newIncidentFor(t, "DeliveryHang")
	fleetB, incB := newIncidentFor(t, "DeliveryHang")
	h, err := Builtin(incA.Alert.Type)
	if err != nil {
		t.Fatal(err)
	}
	repA, err := NewRunner(fleetA).Run(h, incA)
	if err != nil {
		t.Fatal(err)
	}
	ec := fleetB.NewExec(incB.CreatedAt)
	repB, err := NewRunner(fleetB).RunWith(ec, h, incB)
	if err != nil {
		t.Fatal(err)
	}
	if repA.VirtualCost != repB.VirtualCost {
		t.Fatalf("cost diverged: ambient %v vs per-run %v", repA.VirtualCost, repB.VirtualCost)
	}
	if a, b := incA.DiagnosticText(), incB.DiagnosticText(); a != b {
		t.Fatalf("diagnostics diverged:\n--- ambient ---\n%s\n--- per-run ---\n%s", a, b)
	}
	if len(repA.Steps) != len(repB.Steps) {
		t.Fatalf("step counts diverged: %d vs %d", len(repA.Steps), len(repB.Steps))
	}
}

// TestMatchSeesEveryWrite pins Match's decode cache against staleness:
// a Save, a store-level Delete and a direct store Put are each visible to
// the very next Match, and an unchanged store serves the same decode.
func TestMatchSeesEveryWrite(t *testing.T) {
	r := NewRegistry(nil)
	h, err := Builtin(transport.AlertDiskSpaceLow)
	if err != nil {
		t.Fatal(err)
	}
	inc := &incident.Incident{ID: "i", Alert: incident.Alert{Type: transport.AlertDiskSpaceLow}}
	if _, err := r.Save(h); err != nil {
		t.Fatal(err)
	}
	m1, err := r.Match("Transport", inc)
	if err != nil || m1.Version != 1 {
		t.Fatalf("first match: %+v, %v", m1, err)
	}
	if again, _ := r.Match("Transport", inc); again != m1 {
		t.Fatal("unchanged store decoded the handler again")
	}
	h2 := h.Clone()
	h2.Enabled = false
	if _, err := r.Save(h2); err != nil {
		t.Fatal(err)
	}
	if m2, err := r.Match("Transport", inc); err != nil || m2.Version != 2 || m2.Enabled {
		t.Fatalf("match after Save: %+v, %v", m2, err)
	}
	key := handlerKey("Transport", transport.AlertDiskSpaceLow)
	if !r.store.Delete(key) {
		t.Fatal("delete found no key")
	}
	if _, err := r.Match("Transport", inc); !errors.Is(err, ErrNotFound) {
		t.Fatalf("match after Delete: %v, want ErrNotFound", err)
	}
	if _, kept := r.matched[key]; kept {
		t.Fatal("Match kept the decode of a deleted key")
	}
	h3 := h.Clone()
	h3.Name = "direct-put"
	data, err := h3.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	r.store.Put(key, data)
	if m3, err := r.Match("Transport", inc); err != nil || m3.Name != "direct-put" {
		t.Fatalf("match after a direct Put: %+v, %v", m3, err)
	}
}

// TestLatestIsPrivate: Latest and Version hand out private decodes, so
// editing one leaves the handler Match shares untouched.
func TestLatestIsPrivate(t *testing.T) {
	r := NewRegistry(nil)
	if _, err := r.InstallBuiltins("Transport"); err != nil {
		t.Fatal(err)
	}
	inc := &incident.Incident{ID: "i", Alert: incident.Alert{Type: transport.AlertProcessCrashSpike}}
	m, err := r.Match("Transport", inc)
	if err != nil {
		t.Fatal(err)
	}
	name, nodes := m.Name, len(m.Nodes)
	for _, get := range []func() (*Handler, error){
		func() (*Handler, error) { return r.Latest("Transport", transport.AlertProcessCrashSpike) },
		func() (*Handler, error) { return r.Version("Transport", transport.AlertProcessCrashSpike, 1) },
	} {
		l, err := get()
		if err != nil {
			t.Fatal(err)
		}
		if l == m {
			t.Fatal("Latest/Version returned the shared decode")
		}
		l.Name = "edited"
		l.Nodes["extra"] = &Node{ID: "extra"}
	}
	again, err := r.Match("Transport", inc)
	if err != nil {
		t.Fatal(err)
	}
	if again != m || again.Name != name || len(again.Nodes) != nodes {
		t.Fatalf("editing a Latest result changed Match: %q with %d nodes, want %q with %d", again.Name, len(again.Nodes), name, nodes)
	}
}

// TestRegistryConcurrentMatchSave hammers Match against Save on one key
// (run under -race in CI): every Match returns a valid handler at least as
// new as the last version saved before the Match began.
func TestRegistryConcurrentMatchSave(t *testing.T) {
	r := NewRegistry(nil)
	h, err := Builtin(transport.AlertDiskSpaceLow)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Save(h); err != nil {
		t.Fatal(err)
	}
	inc := &incident.Incident{ID: "i", Alert: incident.Alert{Type: transport.AlertDiskSpaceLow}}
	var saved atomic.Int64
	saved.Store(1)
	const saves = 200
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for saved.Load() < saves {
				floor := saved.Load()
				m, err := r.Match("Transport", inc)
				if err != nil {
					errs <- err
					return
				}
				if int64(m.Version) < floor || m.Validate() != nil {
					errs <- fmt.Errorf("match returned version %d after version %d was saved", m.Version, floor)
					return
				}
			}
		}()
	}
	for i := 2; i <= saves; i++ {
		v, err := r.Save(h)
		if err != nil {
			t.Fatal(err)
		}
		saved.Store(int64(v))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
