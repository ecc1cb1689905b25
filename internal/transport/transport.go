// Package transport simulates the Transport email service the paper
// evaluates RCACopilot against: a globally distributed mail-flow fleet of
// forests containing front-door proxies, hub routers and mailbox servers,
// together with the telemetry sources (probe logs, socket tables, thread
// stacks, queue counters, disks, certificates, tenants) that incident
// handlers query, the fault injectors that produce each root-cause category
// from Table 1, and the monitors that raise typed alerts.
//
// The real Transport service is closed; this simulator substitutes it by
// modelling exactly the state the paper's diagnostic examples exercise
// (Figure 6's probe log / exception stack / UDP socket table is rendered
// verbatim-shaped from machine state here). Everything is deterministic
// given the seed, and every telemetry query charges a modelled virtual cost
// so experiments can report execution times in the units the paper uses.
package transport

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/timeutil"
)

// Role distinguishes server responsibilities inside a forest.
type Role string

// Server roles in a Transport forest.
const (
	RoleFrontDoor Role = "FrontDoor" // SMTP outbound proxies
	RoleHub       Role = "Hub"       // routing/dispatch servers
	RoleMailbox   Role = "Mailbox"   // delivery/store servers
)

// ThreadStack is one managed thread's current stack, used by the
// Get-ThreadStackGrouping query to surface deadlocks and blocking paths.
type ThreadStack struct {
	TID    int
	State  string // "Running", "Blocked", "Waiting"
	Frames []string
}

// Process is a service process on a machine.
type Process struct {
	Name         string
	PID          int
	Crashed      bool
	CrashReason  string // exception name when Crashed
	WorkingSetMB int
	Threads      []ThreadStack
}

// ProbeResult is one synthetic-probe outcome.
type ProbeResult struct {
	Probe   string
	Level   string // "Info" or "Error"
	At      time.Time
	Message string
}

// CrashEvent is a forest-wide crash record.
type CrashEvent struct {
	Machine   string
	Process   string
	Exception string
	Module    string
	At        time.Time
}

// Certificate is a tenant-facing or auth certificate installed in a forest.
type Certificate struct {
	Thumbprint string
	Subject    string
	Domain     string
	Valid      bool
	NotAfter   time.Time
	IsAuthCert bool
}

// Tenant is a customer tenant homed in a forest.
type Tenant struct {
	Name        string
	Connectors  int  // SMTP connectors configured by the tenant
	Bogus       bool // spammer-created tenant (CertForBogusTenants)
	ConfigValid bool // Transport config validity (InvalidJournaling)
}

// Machine is one server in a forest.
type Machine struct {
	Name   string
	Role   Role
	Forest string

	Procs []*Process

	// UDPSockets maps "process/pid" to its open UDP socket count.
	UDPSockets map[string]int

	// DiskUsedPct maps volume name to percent used.
	DiskUsedPct map[string]float64

	// Queues maps queue name ("Submission", "Delivery") to queued messages.
	Queues map[string]int

	// Probes is the recent probe history, newest last.
	Probes []ProbeResult

	// DNSHealthy is false when the machine cannot resolve hosts
	// (hub port exhaustion starves the resolver of UDP source ports).
	DNSHealthy bool

	// OutboundProxyConns is the count of concurrent SMTP outbound proxy
	// connections (front doors have a hard cap).
	OutboundProxyConns int

	// RestartedRecently reports whether the delivery service was bounced
	// in the last hour (checked by the Figure 5 handler).
	RestartedRecently bool
}

// Forest is a cluster of servers serving a set of tenants.
type Forest struct {
	Name     string
	Machines []*Machine
	Tenants  []*Tenant
	Certs    []*Certificate

	// Config is the forest-level configuration service state.
	Config map[string]string
	// ConfigServiceHealthy is false when the configuration service cannot
	// push setting updates (UseRouteResolution).
	ConfigServiceHealthy bool

	// AuthAvailability is the SMTP auth component availability in [0,1].
	AuthAvailability float64
	// AuthReachable is false when the authentication service is cut off by
	// a network problem (DispatcherTaskCancelled).
	AuthReachable bool
	// TokenServiceHealthy is false when auth-token creation is failing
	// (AuthCertIssue).
	TokenServiceHealthy bool

	Crashes []CrashEvent
}

// Limits are the service thresholds monitors alert on. They default to
// DefaultLimits; tests may tighten them.
type Limits struct {
	MaxUDPSockets        int     // per machine, before hub port exhaustion
	MaxDeliveryQueue     int     // per forest mailbox server
	MaxSubmissionQueue   int     // per forest hub server
	MaxProxyConns        int     // per front door machine
	MinAuthAvailability  float64 // availability floor before alerting
	MaxCrashes           int     // forest-wide crash threshold
	MaxDiskUsedPct       float64 // disk full threshold
	MaxTenantConnectors  int     // connectors across bogus tenants
	ProbeFailureAlertMin int     // failed probes before alerting
}

// DefaultLimits mirrors plausible production thresholds.
func DefaultLimits() Limits {
	return Limits{
		MaxUDPSockets:        10000,
		MaxDeliveryQueue:     5000,
		MaxSubmissionQueue:   8000,
		MaxProxyConns:        1500,
		MinAuthAvailability:  0.99,
		MaxCrashes:           10,
		MaxDiskUsedPct:       95,
		MaxTenantConnectors:  200,
		ProbeFailureAlertMin: 2,
	}
}

// Config parameterizes fleet construction.
type Config struct {
	Seed       int64
	NumForests int
	// MachinesPerForest is split across roles (at least one per role).
	MachinesPerForest int
	// TenantsPerForest seeds each forest's tenant list.
	TenantsPerForest int
	Limits           Limits
	// QueryCostScale multiplies every telemetry query's modelled cost;
	// large teams in Table 4 use higher scales.
	QueryCostScale float64
}

// DefaultConfig returns the fleet shape used by the experiments.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:              seed,
		NumForests:        6,
		MachinesPerForest: 9,
		TenantsPerForest:  12,
		Limits:            DefaultLimits(),
		QueryCostScale:    1.0,
	}
}

// Fleet is the simulated Transport service.
type Fleet struct {
	cfg     Config
	rng     *rand.Rand
	clock   *timeutil.Virtual
	meter   *timeutil.CostMeter
	ambient *Exec
	Forests []*Forest
	active  []*ActiveFault
}

// NewFleet builds a deterministic fleet from the configuration.
func NewFleet(cfg Config) *Fleet {
	if cfg.NumForests <= 0 {
		cfg.NumForests = 1
	}
	if cfg.MachinesPerForest < 3 {
		cfg.MachinesPerForest = 3
	}
	if cfg.QueryCostScale <= 0 {
		cfg.QueryCostScale = 1.0
	}
	if cfg.Limits == (Limits{}) {
		cfg.Limits = DefaultLimits()
	}
	f := &Fleet{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		clock: timeutil.NewVirtual(time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)),
		meter: timeutil.NewCostMeter(),
	}
	f.ambient = &Exec{fleet: f, clock: f.clock, costs: f.meter}
	for i := 0; i < cfg.NumForests; i++ {
		f.Forests = append(f.Forests, f.buildForest(i))
	}
	return f
}

// Clock exposes the fleet's virtual clock; dataset generation drives it
// across the simulated year.
func (f *Fleet) Clock() *timeutil.Virtual { return f.clock }

// Meter exposes the accumulated virtual telemetry cost.
func (f *Fleet) Meter() *timeutil.CostMeter { return f.meter }

// Limits returns the alerting thresholds in force.
func (f *Fleet) Limits() Limits { return f.cfg.Limits }

func (f *Fleet) buildForest(idx int) *Forest {
	name := fmt.Sprintf("NAMPR%02dA", idx+1)
	fo := &Forest{
		Name:                 name,
		Config:               map[string]string{"TransportConfigVersion": fmt.Sprintf("v%d", 100+idx)},
		ConfigServiceHealthy: true,
		AuthAvailability:     0.9990 + f.rng.Float64()*0.0009,
		AuthReachable:        true,
		TokenServiceHealthy:  true,
	}
	n := f.cfg.MachinesPerForest
	for m := 0; m < n; m++ {
		var role Role
		switch {
		case m < n/3:
			role = RoleFrontDoor
		case m < 2*n/3:
			role = RoleHub
		default:
			role = RoleMailbox
		}
		fo.Machines = append(fo.Machines, f.buildMachine(name, role, m))
	}
	for t := 0; t < f.cfg.TenantsPerForest; t++ {
		fo.Tenants = append(fo.Tenants, &Tenant{
			Name:        fmt.Sprintf("tenant-%s-%03d", name, t),
			Connectors:  1 + f.rng.Intn(3),
			ConfigValid: true,
		})
	}
	fo.Certs = append(fo.Certs,
		&Certificate{
			Thumbprint: f.hex(20),
			Subject:    "CN=mail." + name + ".prod.outlook.example",
			Domain:     name + ".prod.outlook.example",
			Valid:      true,
			NotAfter:   f.clock.Now().AddDate(1, 0, 0),
			IsAuthCert: true,
		},
		&Certificate{
			Thumbprint: f.hex(20),
			Subject:    "CN=smtp." + name + ".prod.outlook.example",
			Domain:     "smtp." + name + ".prod.outlook.example",
			Valid:      true,
			NotAfter:   f.clock.Now().AddDate(0, 6, 0),
		},
	)
	return fo
}

func (f *Fleet) buildMachine(forest string, role Role, idx int) *Machine {
	m := &Machine{
		Name:        fmt.Sprintf("%s-%s%02d", forest, roleTag(role), idx+1),
		Role:        role,
		Forest:      forest,
		UDPSockets:  make(map[string]int),
		DiskUsedPct: map[string]float64{"C:": 35 + f.rng.Float64()*20, "D:": 40 + f.rng.Float64()*25},
		Queues:      map[string]int{"Submission": f.rng.Intn(120), "Delivery": f.rng.Intn(200)},
		DNSHealthy:  true,
	}
	procNames := []string{"Transport.exe", "w3wp.exe", "svchost.exe", "Microsoft.Transport.Store.Worker.exe"}
	for i, pn := range procNames {
		p := &Process{
			Name:         pn,
			PID:          4000 + f.rng.Intn(200000),
			WorkingSetMB: 200 + f.rng.Intn(1800),
		}
		threads := 8 + f.rng.Intn(24)
		for t := 0; t < threads; t++ {
			p.Threads = append(p.Threads, ThreadStack{
				TID:    100 + t,
				State:  "Waiting",
				Frames: healthyFrames(pn),
			})
		}
		m.Procs = append(m.Procs, p)
		base := []int{40, 12, 8, 7}[i%4]
		m.UDPSockets[sockKey(p)] = base + f.rng.Intn(20)
	}
	if role == RoleFrontDoor {
		m.OutboundProxyConns = 100 + f.rng.Intn(300)
	}
	// Healthy probe history.
	for i := 0; i < 2; i++ {
		m.Probes = append(m.Probes, ProbeResult{
			Probe:   "DatacenterHubOutboundProxyProbe",
			Level:   "Info",
			At:      f.clock.Now().Add(-time.Duration(15*(i+1)) * time.Minute),
			Message: "Probe result: success",
		})
	}
	return m
}

func roleTag(r Role) string {
	switch r {
	case RoleFrontDoor:
		return "FD"
	case RoleHub:
		return "HB"
	default:
		return "MB"
	}
}

func sockKey(p *Process) string { return fmt.Sprintf("%s/%d", p.Name, p.PID) }

func healthyFrames(proc string) []string {
	return []string{
		"System.Threading.WaitHandle.WaitOne()",
		"Microsoft.Exchange.Transport.Scheduler.Wait()",
		fmt.Sprintf("%s!WorkerLoop()", proc),
	}
}

// hex returns n deterministic pseudo-random hex characters.
func (f *Fleet) hex(n int) string {
	const digits = "0123456789ABCDEF"
	b := make([]byte, n)
	for i := range b {
		b[i] = digits[f.rng.Intn(16)]
	}
	return string(b)
}

// Forest returns the forest with the given name.
func (f *Fleet) Forest(name string) (*Forest, bool) {
	for _, fo := range f.Forests {
		if fo.Name == name {
			return fo, true
		}
	}
	return nil, false
}

// Machine returns the machine with the given name anywhere in the fleet.
func (f *Fleet) Machine(name string) (*Machine, bool) {
	for _, fo := range f.Forests {
		for _, m := range fo.Machines {
			if m.Name == name {
				return m, true
			}
		}
	}
	return nil, false
}

// MachinesByRole returns the forest's machines with the given role.
func (fo *Forest) MachinesByRole(role Role) []*Machine {
	var out []*Machine
	for _, m := range fo.Machines {
		if m.Role == role {
			out = append(out, m)
		}
	}
	return out
}
