package handler

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/incident"
	"repro/internal/kvstore"
	"repro/internal/transport"
)

// Context carries the mutable investigation state a handler run threads
// through its actions: the run's execution context (which meters every
// telemetry query into the run's own cost sink), the incident being
// enriched, and the current scope/target (adjusted by scope switching
// actions).
type Context struct {
	// Exec is the per-run execution context; query ops issue telemetry
	// requests through it so cost and virtual time stay private to the run.
	// It also identifies the fleet, so state reads cannot target a
	// different fleet than the one being charged.
	Exec     *transport.Exec
	Incident *incident.Incident

	// Scope and Target identify what is currently under investigation.
	// They start at the alert's scope/target.
	Scope  incident.Scope
	Target string
	Forest string

	// KnownIssues maps alert-message signatures to mitigations; the
	// "Known issue?" query consults it (Figure 5's first branch).
	KnownIssues *kvstore.Store
}

// Fleet returns the fleet under diagnosis, for uncharged state reads
// (forest and machine lookups, limits).
func (c *Context) Fleet() *transport.Fleet { return c.Exec.Fleet() }

// Result is what executing one action yields.
type Result struct {
	Outcome Outcome // selects the next edge
	Output  string  // rendered diagnostic text (becomes evidence)
	Kind    incident.SourceKind
	KV      map[string]string // key-value table -> incident.ActionOutput
}

// opFunc implements one registered query op.
type opFunc func(ctx *Context, params map[string]string) (Result, error)

// ops is the library of reusable query actions OCEs compose handlers from.
// The registry is fixed at init time, so lock-free reads are safe.
var ops = map[string]opFunc{}

func registerOp(name string, fn opFunc) {
	if _, dup := ops[name]; dup {
		panic(fmt.Sprintf("handler: duplicate op %q", name))
	}
	ops[name] = fn
}

// OpRegistered reports whether a query op name is known.
func OpRegistered(name string) bool { _, ok := ops[name]; return ok }

// OpNames returns the registered query op names, sorted (listed by the
// handler-construction API's /api/ops).
func OpNames() []string {
	out := make([]string, 0, len(ops))
	for name := range ops {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// machineTarget resolves the machine a machine-scoped op should query:
// the current target when scoped to a machine, otherwise a parameterized
// selection within the current forest.
func machineTarget(ctx *Context, params map[string]string) (string, error) {
	if ctx.Scope == incident.ScopeMachine && ctx.Target != "" {
		return ctx.Target, nil
	}
	fo, ok := ctx.Fleet().Forest(ctx.Forest)
	if !ok {
		return "", fmt.Errorf("handler: unknown forest %q", ctx.Forest)
	}
	return selectMachine(fo, params["select"])
}

// selectMachine picks a machine by strategy: busiest-delivery,
// busiest-submission, crashiest front door fallback, or first.
func selectMachine(fo *transport.Forest, strategy string) (string, error) {
	if len(fo.Machines) == 0 {
		return "", fmt.Errorf("handler: forest %s has no machines", fo.Name)
	}
	switch strategy {
	case "busiest-delivery":
		best := fo.Machines[0]
		for _, m := range fo.Machines {
			if m.Queues["Delivery"] > best.Queues["Delivery"] {
				best = m
			}
		}
		return best.Name, nil
	case "busiest-submission":
		best := fo.Machines[0]
		for _, m := range fo.Machines {
			if m.Queues["Submission"] > best.Queues["Submission"] {
				best = m
			}
		}
		return best.Name, nil
	case "fullest-disk":
		best, bestPct := fo.Machines[0], -1.0
		for _, m := range fo.Machines {
			for _, pct := range m.DiskUsedPct {
				if pct > bestPct {
					best, bestPct = m, pct
				}
			}
		}
		return best.Name, nil
	case "front-door":
		if fds := fo.MachinesByRole(transport.RoleFrontDoor); len(fds) > 0 {
			return fds[0].Name, nil
		}
		return fo.Machines[0].Name, nil
	case "", "first":
		return fo.Machines[0].Name, nil
	default:
		return "", fmt.Errorf("handler: unknown machine selection strategy %q", strategy)
	}
}

func init() {
	// Known-issue lookup: consults the known-issue store keyed by alert
	// type; outcome True routes straight to mitigation (Figure 5).
	registerOp("known-issue", func(ctx *Context, _ map[string]string) (Result, error) {
		key := "known-issue/" + string(ctx.Incident.Alert.Type)
		val, ok := ctx.KnownIssues.Get(key)
		r := Result{Outcome: OutcomeFalse, Kind: incident.SourceConfig,
			KV: map[string]string{"known-issue": "false"}}
		if ok && strings.Contains(ctx.Incident.Alert.Message, string(val)) {
			r.Outcome = OutcomeTrue
			r.KV["known-issue"] = "true"
			r.Output = fmt.Sprintf("Known issue matched for alert type %s (signature %q)", ctx.Incident.Alert.Type, val)
		} else {
			r.Output = fmt.Sprintf("No known issue recorded for alert type %s", ctx.Incident.Alert.Type)
		}
		return r, nil
	})

	// Machine-scoped telemetry queries.
	registerOp("probe-log", func(ctx *Context, params map[string]string) (Result, error) {
		m, err := machineTarget(ctx, params)
		if err != nil {
			return Result{}, err
		}
		out, err := ctx.Exec.ProbeLog(m)
		if err != nil {
			return Result{}, err
		}
		outcome := OutcomeFalse
		if strings.Contains(out, "Error") {
			outcome = OutcomeTrue
		}
		return Result{Outcome: outcome, Output: out, Kind: incident.SourceProbe,
			KV: map[string]string{"probe-machine": m, "probe-failing": string(outcome)}}, nil
	})
	registerOp("socket-metrics", func(ctx *Context, params map[string]string) (Result, error) {
		m, err := machineTarget(ctx, params)
		if err != nil {
			return Result{}, err
		}
		out, err := ctx.Exec.SocketMetrics(m)
		if err != nil {
			return Result{}, err
		}
		return Result{Outcome: OutcomeDefault, Output: out, Kind: incident.SourceMetric,
			KV: map[string]string{"socket-machine": m}}, nil
	})
	registerOp("exception-stacks", func(ctx *Context, params map[string]string) (Result, error) {
		m, err := machineTarget(ctx, params)
		if err != nil {
			return Result{}, err
		}
		out, err := ctx.Exec.ExceptionStacks(m)
		if err != nil {
			return Result{}, err
		}
		return Result{Outcome: OutcomeDefault, Output: out, Kind: incident.SourceStack,
			KV: map[string]string{"stack-machine": m}}, nil
	})
	registerOp("thread-stack-grouping", func(ctx *Context, params map[string]string) (Result, error) {
		m, err := machineTarget(ctx, params)
		if err != nil {
			return Result{}, err
		}
		proc := params["process"]
		if proc == "" {
			proc = "Transport.exe"
		}
		out, err := ctx.Exec.ThreadStackGrouping(m, proc)
		if err != nil {
			return Result{}, err
		}
		outcome := OutcomeFalse
		if strings.Contains(out, "Blocked") {
			outcome = OutcomeTrue
		}
		return Result{Outcome: outcome, Output: out, Kind: incident.SourceStack,
			KV: map[string]string{"threads-machine": m, "threads-blocked": string(outcome)}}, nil
	})
	registerOp("disk-usage", func(ctx *Context, params map[string]string) (Result, error) {
		m, err := machineTarget(ctx, params)
		if err != nil {
			return Result{}, err
		}
		out, err := ctx.Exec.DiskUsage(m)
		if err != nil {
			return Result{}, err
		}
		outcome := OutcomeFalse
		if strings.Contains(out, "volume is full") {
			outcome = OutcomeTrue
		}
		return Result{Outcome: outcome, Output: out, Kind: incident.SourceMetric,
			KV: map[string]string{"disk-machine": m, "disk-full": string(outcome)}}, nil
	})
	registerOp("dns-check", func(ctx *Context, params map[string]string) (Result, error) {
		m, err := machineTarget(ctx, params)
		if err != nil {
			return Result{}, err
		}
		out, err := ctx.Exec.DNSResolution(m)
		if err != nil {
			return Result{}, err
		}
		outcome := OutcomeFalse
		if strings.Contains(out, "FAILED") {
			outcome = OutcomeTrue
		}
		return Result{Outcome: outcome, Output: out, Kind: incident.SourceProbe,
			KV: map[string]string{"dns-machine": m, "dns-failing": string(outcome)}}, nil
	})

	// Forest-scoped telemetry queries.
	registerOp("queue-metrics", func(ctx *Context, _ map[string]string) (Result, error) {
		out, err := ctx.Exec.QueueMetrics(ctx.Forest)
		if err != nil {
			return Result{}, err
		}
		outcome := OutcomeFalse
		if strings.Contains(out, "WARNING") {
			outcome = OutcomeTrue
		}
		return Result{Outcome: outcome, Output: out, Kind: incident.SourceMetric,
			KV: map[string]string{"queue-backlog": string(outcome)}}, nil
	})
	registerOp("crash-events", func(ctx *Context, _ map[string]string) (Result, error) {
		out, err := ctx.Exec.CrashEvents(ctx.Forest)
		if err != nil {
			return Result{}, err
		}
		outcome := OutcomeFalse
		if !strings.Contains(out, "no crashes recorded") {
			outcome = OutcomeTrue
		}
		return Result{Outcome: outcome, Output: out, Kind: incident.SourceLog,
			KV: map[string]string{"crashes-present": string(outcome)}}, nil
	})
	registerOp("cert-inventory", func(ctx *Context, _ map[string]string) (Result, error) {
		out, err := ctx.Exec.CertInventory(ctx.Forest)
		if err != nil {
			return Result{}, err
		}
		outcome := OutcomeFalse
		if strings.Contains(out, "INVALID") {
			outcome = OutcomeTrue
		}
		return Result{Outcome: outcome, Output: out, Kind: incident.SourceConfig,
			KV: map[string]string{"invalid-cert": string(outcome)}}, nil
	})
	registerOp("tenant-connectors", func(ctx *Context, _ map[string]string) (Result, error) {
		out, err := ctx.Exec.TenantConnectors(ctx.Forest)
		if err != nil {
			return Result{}, err
		}
		outcome := OutcomeFalse
		if strings.Contains(out, "SUSPICIOUS") || strings.Contains(out, "INVALID CONFIG") {
			outcome = OutcomeTrue
		}
		return Result{Outcome: outcome, Output: out, Kind: incident.SourceConfig,
			KV: map[string]string{"tenant-anomaly": string(outcome)}}, nil
	})
	registerOp("component-availability", func(ctx *Context, _ map[string]string) (Result, error) {
		out, err := ctx.Exec.ComponentAvailability(ctx.Forest)
		if err != nil {
			return Result{}, err
		}
		outcome := OutcomeFalse
		if strings.Contains(out, "ALERT") || strings.Contains(out, "unreachable") ||
			strings.Contains(out, "not able to be created") {
			outcome = OutcomeTrue
		}
		return Result{Outcome: outcome, Output: out, Kind: incident.SourceMetric,
			KV: map[string]string{"availability-degraded": string(outcome)}}, nil
	})
	registerOp("config-dump", func(ctx *Context, _ map[string]string) (Result, error) {
		out, err := ctx.Exec.ConfigDump(ctx.Forest)
		if err != nil {
			return Result{}, err
		}
		outcome := OutcomeFalse
		if strings.Contains(out, "ERROR") {
			outcome = OutcomeTrue
		}
		return Result{Outcome: outcome, Output: out, Kind: incident.SourceConfig,
			KV: map[string]string{"config-service-error": string(outcome)}}, nil
	})
	registerOp("delivery-health", func(ctx *Context, _ map[string]string) (Result, error) {
		out, err := ctx.Exec.DeliveryHealth(ctx.Forest)
		if err != nil {
			return Result{}, err
		}
		outcome := OutcomeFalse
		if strings.Contains(out, "restartedRecently=true") {
			outcome = OutcomeTrue
		}
		return Result{Outcome: outcome, Output: out, Kind: incident.SourceMetric,
			KV: map[string]string{"delivery-restarted-recently": string(outcome)}}, nil
	})
	registerOp("trace-sample", func(ctx *Context, _ map[string]string) (Result, error) {
		out, err := ctx.Exec.TraceSample(ctx.Forest)
		if err != nil {
			return Result{}, err
		}
		outcome := OutcomeFalse
		if strings.Contains(out, "FAIL") {
			outcome = OutcomeTrue
		}
		return Result{Outcome: outcome, Output: out, Kind: incident.SourceTrace,
			KV: map[string]string{"trace-failing-hop": string(outcome)}}, nil
	})
	registerOp("provisioning-status", func(ctx *Context, _ map[string]string) (Result, error) {
		out, err := ctx.Exec.ProvisioningStatus(ctx.Forest)
		if err != nil {
			return Result{}, err
		}
		return Result{Outcome: OutcomeDefault, Output: out, Kind: incident.SourceConfig}, nil
	})

	// top-error extracts the dominant exception from the forest crash
	// record and returns it as the outcome, so edges can route per
	// exception type ("Get top error msg" in Figure 5).
	registerOp("top-error", func(ctx *Context, _ map[string]string) (Result, error) {
		fo, ok := ctx.Fleet().Forest(ctx.Forest)
		if !ok {
			return Result{}, fmt.Errorf("handler: unknown forest %q", ctx.Forest)
		}
		counts := make(map[string]int)
		for _, c := range fo.Crashes {
			counts[c.Exception]++
		}
		if len(counts) == 0 {
			return Result{Outcome: Outcome("None"),
				Output: "No exceptions observed on the stack traces.",
				Kind:   incident.SourceStack,
				KV:     map[string]string{"top-error": "none"}}, nil
		}
		top, topN := "", 0
		for e, n := range counts {
			if n > topN || (n == topN && e < top) {
				top, topN = e, n
			}
		}
		out := fmt.Sprintf("Top error message on the exception stack traces: %s (%d occurrences)", top, topN)
		return Result{Outcome: Outcome(top), Output: out, Kind: incident.SourceStack,
			KV: map[string]string{"top-error": top}}, nil
	})
}

// runScopeSwitch executes a scope switching action: it moves the
// investigation between forest and machine level using a selection
// strategy, mirroring Figure 5's "Switch Scope to Single Server".
func runScopeSwitch(ctx *Context, params map[string]string) (Result, error) {
	to := incident.Scope(params["to"])
	switch to {
	case incident.ScopeMachine:
		fo, ok := ctx.Fleet().Forest(ctx.Forest)
		if !ok {
			return Result{}, fmt.Errorf("handler: unknown forest %q", ctx.Forest)
		}
		m, err := selectMachine(fo, params["select"])
		if err != nil {
			return Result{}, err
		}
		ctx.Scope = incident.ScopeMachine
		ctx.Target = m
		return Result{Outcome: OutcomeDefault,
			Output: fmt.Sprintf("Switched investigation scope to single server %s (strategy %s)", m, params["select"]),
			Kind:   incident.SourceConfig,
			KV:     map[string]string{"scope": "Machine:" + m}}, nil
	case incident.ScopeForest:
		ctx.Scope = incident.ScopeForest
		ctx.Target = ctx.Forest
		return Result{Outcome: OutcomeDefault,
			Output: fmt.Sprintf("Widened investigation scope to forest %s", ctx.Forest),
			Kind:   incident.SourceConfig,
			KV:     map[string]string{"scope": "Forest:" + ctx.Forest}}, nil
	default:
		return Result{}, fmt.Errorf("handler: scope switch to unknown scope %q", params["to"])
	}
}

// runMitigation executes a mitigation action: it records the suggested
// strategic step without touching fleet state (OCEs review before acting).
func runMitigation(ctx *Context, params map[string]string) (Result, error) {
	action := params["action"]
	if action == "" {
		action = "collect diagnostic logs and engage the owning team"
	}
	return Result{Outcome: OutcomeDefault,
		Output: "Suggested mitigation: " + action,
		Kind:   incident.SourceConfig,
		KV:     map[string]string{"mitigation": action}}, nil
}
