package transport

import (
	"strings"
	"testing"

	"repro/internal/incident"
)

func newTestFleet(t *testing.T) *Fleet {
	t.Helper()
	return NewFleet(DefaultConfig(42))
}

func TestFleetTopology(t *testing.T) {
	f := newTestFleet(t)
	if len(f.Forests) != 6 {
		t.Fatalf("forests = %d, want 6", len(f.Forests))
	}
	for _, fo := range f.Forests {
		if len(fo.Machines) != 9 {
			t.Fatalf("forest %s machines = %d, want 9", fo.Name, len(fo.Machines))
		}
		for _, role := range []Role{RoleFrontDoor, RoleHub, RoleMailbox} {
			if len(fo.MachinesByRole(role)) == 0 {
				t.Fatalf("forest %s has no %s machines", fo.Name, role)
			}
		}
		if len(fo.Tenants) != 12 {
			t.Fatalf("forest %s tenants = %d, want 12", fo.Name, len(fo.Tenants))
		}
		if len(fo.Certs) < 2 {
			t.Fatalf("forest %s certs = %d, want >= 2", fo.Name, len(fo.Certs))
		}
	}
}

func TestFleetDeterministic(t *testing.T) {
	a, b := NewFleet(DefaultConfig(7)), NewFleet(DefaultConfig(7))
	for i := range a.Forests {
		for j := range a.Forests[i].Machines {
			if a.Forests[i].Machines[j].Name != b.Forests[i].Machines[j].Name {
				t.Fatal("same seed must produce identical machine names")
			}
		}
	}
	sa, err := a.Ambient().SocketMetrics(a.Forests[0].Machines[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Ambient().SocketMetrics(b.Forests[0].Machines[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if sa != sb {
		t.Fatal("same seed must produce identical telemetry")
	}
}

func TestHealthyFleetRaisesNoAlerts(t *testing.T) {
	f := newTestFleet(t)
	if alerts := f.RunMonitors(); len(alerts) != 0 {
		t.Fatalf("healthy fleet raised %d alerts: %+v", len(alerts), alerts)
	}
	if _, ok := f.FirstAlert(); ok {
		t.Fatal("FirstAlert on healthy fleet should report none")
	}
}

// wantAlert maps each Table-1 category to the alert its injection must fire.
var wantAlert = map[incident.Category]struct {
	alertType incident.AlertType
	scope     incident.Scope
}{
	"AuthCertIssue":           {AlertTokenCreationFailure, incident.ScopeForest},
	"HubPortExhaustion":       {AlertFrontDoorConnectionFailure, incident.ScopeMachine},
	"DeliveryHang":            {AlertMessagesStuckInDelivery, incident.ScopeForest},
	"CodeRegression":          {AlertComponentAvailabilityDrop, incident.ScopeForest},
	"CertForBogusTenants":     {AlertTooManyServerConnections, incident.ScopeForest},
	"MaliciousAttack":         {AlertProcessCrashSpike, incident.ScopeForest},
	"UseRouteResolution":      {AlertMessagesStuckInDelivery, incident.ScopeForest},
	"FullDisk":                {AlertProcessCrashSpike, incident.ScopeForest},
	"InvalidJournaling":       {AlertMessagesStuckInSubmission, incident.ScopeForest},
	"DispatcherTaskCancelled": {AlertMessagesStuckInSubmission, incident.ScopeForest},
}

func TestEveryTable1CategoryFiresExpectedAlertAndRepairs(t *testing.T) {
	for _, cat := range Table1Categories() {
		cat := cat
		t.Run(string(cat), func(t *testing.T) {
			f := newTestFleet(t)
			af, err := f.Inject(cat, 0)
			if err != nil {
				t.Fatalf("Inject: %v", err)
			}
			if af.Category != cat || af.Forest == "" {
				t.Fatalf("fault handle incomplete: %+v", af)
			}
			alert, ok := f.FirstAlert()
			if !ok {
				t.Fatal("no alert fired after injection")
			}
			want := wantAlert[cat]
			if alert.Type != want.alertType {
				t.Fatalf("alert type = %s, want %s", alert.Type, want.alertType)
			}
			if alert.Scope != want.scope {
				t.Fatalf("alert scope = %s, want %s", alert.Scope, want.scope)
			}
			if alert.Forest != f.Forests[0].Name {
				t.Fatalf("alert forest = %s, want %s", alert.Forest, f.Forests[0].Name)
			}
			af.Repair()
			if alerts := f.RunMonitors(); len(alerts) != 0 {
				t.Fatalf("alerts remained after Repair: %+v", alerts)
			}
		})
	}
}

func TestInjectUnknownCategoryFails(t *testing.T) {
	f := newTestFleet(t)
	if _, err := f.Inject("NoSuchCategory", 0); err == nil {
		t.Fatal("expected error for unknown category")
	}
	if _, err := f.Inject("FullDisk", 99); err == nil {
		t.Fatal("expected error for out-of-range forest")
	}
}

func TestHubPortExhaustionTelemetrySignals(t *testing.T) {
	f := newTestFleet(t)
	af, err := f.Inject("HubPortExhaustion", 0)
	if err != nil {
		t.Fatal(err)
	}
	sock, err := f.Ambient().SocketMetrics(af.Machine)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sock, "Transport.exe") {
		t.Errorf("socket metrics missing dominant process:\n%s", sock)
	}
	probe, err := f.Ambient().ProbeLog(af.Machine)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(probe, "Failed Probes: 2") {
		t.Errorf("probe log missing failures:\n%s", probe)
	}
	if !strings.Contains(probe, "WinSock error: 11001") {
		t.Errorf("probe log missing WinSock signature:\n%s", probe)
	}
	dns, err := f.Ambient().DNSResolution(af.Machine)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dns, "FAILED") {
		t.Errorf("dns check should fail under port exhaustion:\n%s", dns)
	}
	stacks, err := f.Ambient().ExceptionStacks(af.Machine)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stacks, "InformativeSocketException") {
		t.Errorf("exception stacks missing socket exception:\n%s", stacks)
	}
}

func TestDeliveryHangShowsBlockedThreadGroup(t *testing.T) {
	f := newTestFleet(t)
	if _, err := f.Inject("DeliveryHang", 1); err != nil {
		t.Fatal(err)
	}
	// Find the backlogged mailbox machine.
	var machine string
	for _, m := range f.Forests[1].MachinesByRole(RoleMailbox) {
		if m.Queues["Delivery"] > f.Limits().MaxDeliveryQueue {
			machine = m.Name
		}
	}
	if machine == "" {
		t.Fatal("no backlogged mailbox machine found")
	}
	out, err := f.Ambient().ThreadStackGrouping(machine, "Transport.exe")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Blocked") || !strings.Contains(out, "MailboxDeliverAgent.Deliver") {
		t.Errorf("thread grouping missing blocked delivery stack:\n%s", out)
	}
}

func TestFullDiskTelemetry(t *testing.T) {
	f := newTestFleet(t)
	af, err := f.Inject("FullDisk", 0)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := f.Ambient().DiskUsage(af.Machine)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(disk, "volume is full") {
		t.Errorf("disk usage missing full-volume flag:\n%s", disk)
	}
	crashes, err := f.Ambient().CrashEvents(af.Forest)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(crashes, "System.IO.IOException") {
		t.Errorf("crash events missing IO exception:\n%s", crashes)
	}
}

func TestCertAndTenantTelemetry(t *testing.T) {
	f := newTestFleet(t)
	if _, err := f.Inject("AuthCertIssue", 0); err != nil {
		t.Fatal(err)
	}
	certs, err := f.Ambient().CertInventory(f.Forests[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(certs, "INVALID") {
		t.Errorf("cert inventory missing invalid cert:\n%s", certs)
	}

	if _, err := f.Inject("CertForBogusTenants", 1); err != nil {
		t.Fatal(err)
	}
	tenants, err := f.Ambient().TenantConnectors(f.Forests[1].Name)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tenants, "SUSPICIOUS") {
		t.Errorf("tenant connectors missing bogus flag:\n%s", tenants)
	}
}

func TestGenericFaultModes(t *testing.T) {
	modes := map[Mode]incident.AlertType{
		ModeCrash:             AlertProcessCrashSpike,
		ModeSubmissionBacklog: AlertMessagesStuckInSubmission,
		ModeDeliveryBacklog:   AlertMessagesStuckInDelivery,
		ModeProbeFailure:      AlertFrontDoorConnectionFailure,
		ModeDiskPressure:      AlertProcessCrashSpike, // crash monitor outranks disk
		ModeAvailabilityDrop:  AlertComponentAvailabilityDrop,
		ModeConnectionFlood:   AlertTooManyServerConnections,
		ModeTokenFailure:      AlertTokenCreationFailure,
	}
	for mode, want := range modes {
		mode, want := mode, want
		t.Run(string(mode), func(t *testing.T) {
			f := newTestFleet(t)
			af, err := f.InjectGeneric(GenericFault{
				Category:  "StoreWorkerHeapCorruption",
				Component: "StoreWorker",
				Exception: "StoreWorkerHeapCorruptionException",
				Mode:      mode,
			}, 0)
			if err != nil {
				t.Fatalf("InjectGeneric: %v", err)
			}
			alert, ok := f.FirstAlert()
			if !ok {
				t.Fatal("no alert after generic injection")
			}
			if alert.Type != want {
				t.Fatalf("alert = %s, want %s", alert.Type, want)
			}
			af.Repair()
			if alerts := f.RunMonitors(); len(alerts) != 0 {
				t.Fatalf("alerts remained after Repair: %+v", alerts)
			}
		})
	}
}

func TestInjectGenericValidation(t *testing.T) {
	f := newTestFleet(t)
	if _, err := f.InjectGeneric(GenericFault{Mode: ModeCrash}, 0); err == nil {
		t.Fatal("generic fault without names should fail")
	}
	if _, err := f.InjectGeneric(GenericFault{
		Category: "X", Component: "C", Exception: "E", Mode: "bogus"}, 0); err == nil {
		t.Fatal("unknown mode should fail")
	}
}

func TestGenericExceptionAppearsInCrashTelemetry(t *testing.T) {
	f := newTestFleet(t)
	if _, err := f.InjectGeneric(GenericFault{
		Category:  "DnsCacheStampede",
		Component: "DnsCache",
		Exception: "DnsCacheStampedeException",
		Mode:      ModeCrash,
	}, 2); err != nil {
		t.Fatal(err)
	}
	out, err := f.Ambient().CrashEvents(f.Forests[2].Name)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "DnsCacheStampedeException") {
		t.Errorf("crash telemetry missing distinctive exception:\n%s", out)
	}
}

func TestTelemetryUnknownTargets(t *testing.T) {
	f := newTestFleet(t)
	if _, err := f.Ambient().ProbeLog("nope"); err == nil {
		t.Error("ProbeLog should fail for unknown machine")
	}
	if _, err := f.Ambient().QueueMetrics("nope"); err == nil {
		t.Error("QueueMetrics should fail for unknown forest")
	}
	if _, err := f.Ambient().ThreadStackGrouping(f.Forests[0].Machines[0].Name, "ghost.exe"); err == nil {
		t.Error("ThreadStackGrouping should fail for unknown process")
	}
}

func TestQueryCostsAccumulateOnMeter(t *testing.T) {
	f := newTestFleet(t)
	before := f.Meter().Total()
	if _, err := f.Ambient().ProbeLog(f.Forests[0].Machines[0].Name); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Ambient().QueueMetrics(f.Forests[0].Name); err != nil {
		t.Fatal(err)
	}
	if f.Meter().Total() <= before {
		t.Fatal("telemetry queries must charge virtual cost")
	}
	if len(f.Meter().ByKey()) < 2 {
		t.Fatal("costs should be broken down by charge site")
	}
}

func TestQueryCostScale(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.QueryCostScale = 10
	big := NewFleet(cfg)
	small := NewFleet(DefaultConfig(1))
	if _, err := big.Ambient().ProbeLog(big.Forests[0].Machines[0].Name); err != nil {
		t.Fatal(err)
	}
	if _, err := small.Ambient().ProbeLog(small.Forests[0].Machines[0].Name); err != nil {
		t.Fatal(err)
	}
	if big.Meter().Total() <= small.Meter().Total() {
		t.Fatal("QueryCostScale must scale modelled cost")
	}
}

func TestTraceSampleReflectsFaults(t *testing.T) {
	f := newTestFleet(t)
	healthy, err := f.Ambient().TraceSample(f.Forests[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(healthy, "FAIL") {
		t.Errorf("healthy trace should not fail:\n%s", healthy)
	}
	if _, err := f.Inject("DeliveryHang", 0); err != nil {
		t.Fatal(err)
	}
	// The injected mailbox machine may not be the first; check DeliveryHealth
	// instead, which scans all mailbox machines.
	dh, err := f.Ambient().DeliveryHealth(f.Forests[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dh, "HANGING") {
		t.Errorf("delivery health should show hang:\n%s", dh)
	}
}

func TestActiveFaultsTracksRepair(t *testing.T) {
	f := newTestFleet(t)
	af, err := f.Inject("FullDisk", 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(f.ActiveFaults()); n != 1 {
		t.Fatalf("active faults = %d, want 1", n)
	}
	af.Repair()
	if n := len(f.ActiveFaults()); n != 0 {
		t.Fatalf("active faults after repair = %d, want 0", n)
	}
}

func TestComponentAvailabilityRendersDispatcherSignal(t *testing.T) {
	f := newTestFleet(t)
	if _, err := f.Inject("DispatcherTaskCancelled", 0); err != nil {
		t.Fatal(err)
	}
	out, err := f.Ambient().ComponentAvailability(f.Forests[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "authentication service is unreachable") {
		t.Errorf("availability telemetry missing dispatcher signal:\n%s", out)
	}
}

func TestConfigDumpShowsUnhealthyConfigService(t *testing.T) {
	f := newTestFleet(t)
	if _, err := f.Inject("UseRouteResolution", 0); err != nil {
		t.Fatal(err)
	}
	out, err := f.Ambient().ConfigDump(f.Forests[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "unable to update the settings") {
		t.Errorf("config dump missing unhealthy signal:\n%s", out)
	}
}

func TestProvisioningStatus(t *testing.T) {
	f := newTestFleet(t)
	out, err := f.Ambient().ProvisioningStatus(f.Forests[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "in service") {
		t.Errorf("provisioning status malformed:\n%s", out)
	}
}
