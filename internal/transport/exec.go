package transport

import (
	"time"

	"repro/internal/timeutil"
)

// execClock is the clock surface a run context advances: the fleet's shared
// virtual clock (ambient context) or a private per-run view.
type execClock interface {
	Now() time.Time
	Advance(d time.Duration)
}

// costSink is where a run context books its modelled telemetry cost: the
// fleet-wide meter (ambient context) or a private per-run accumulator.
type costSink interface {
	Charge(key string, d time.Duration)
	Total() time.Duration
}

// Exec is a per-run execution context over a Fleet: every telemetry query it
// serves charges its modelled cost into the context's own sink and advances
// the context's own clock view. Contexts are what let many handler runs
// execute concurrently against one fleet — cost attribution and virtual time
// are private to the run, so nothing interleaves — while the fleet's shared
// meter and clock still see every run once the context is Finished.
//
// Fleet state reads (Forest, Machine, Limits, ...) remain on *Fleet; an Exec
// adds only the charged query surface.
type Exec struct {
	fleet    *Fleet
	clock    execClock
	costs    costSink
	private  *timeutil.CostAccumulator // nil for the ambient context
	finished bool                      // Finish already merged this run
	// tenant, when set, prefixes every charge key ("tenant/site"), so the
	// merged fleet meter keeps per-tenant cost attribution — the
	// accounting surface multi-tenant serving exports per team.
	tenant string
}

// NewExec returns a per-run execution context whose clock view starts at
// `at` (the incident's creation time, typically). A zero `at` starts at the
// fleet clock's current instant.
func (f *Fleet) NewExec(at time.Time) *Exec {
	if at.IsZero() {
		at = f.clock.Now()
	}
	acc := timeutil.NewCostAccumulator()
	return &Exec{
		fleet:   f,
		clock:   timeutil.NewRunClock(at),
		costs:   acc,
		private: acc,
	}
}

// NewExecTenant is NewExec with the run's telemetry cost attributed to a
// tenant: every charge key is prefixed "tenant/", so after Finish the
// fleet meter breaks out each team's collection cost. An empty tenant is
// plain NewExec.
func (f *Fleet) NewExecTenant(at time.Time, tenant string) *Exec {
	e := f.NewExec(at)
	e.tenant = tenant
	return e
}

// Tenant returns the tenant this run's cost is attributed to ("" for
// untagged runs).
func (e *Exec) Tenant() string { return e.tenant }

// Ambient returns the fleet's shared execution context: queries charge the
// fleet meter directly and advance the shared virtual clock, the pre-context
// behaviour. It is what sequential drivers (corpus generation,
// single-threaded tools, tests) query through.
// Concurrent callers wanting per-run cost attribution use NewExec instead.
func (f *Fleet) Ambient() *Exec { return f.ambient }

// Fleet returns the fleet under diagnosis.
func (e *Exec) Fleet() *Fleet { return e.fleet }

// Now returns the context's current virtual time.
func (e *Exec) Now() time.Time { return e.clock.Now() }

// CostTotal returns the total virtual cost charged through this context's
// sink so far (for the ambient context: the fleet meter's running total).
func (e *Exec) CostTotal() time.Duration { return e.costs.Total() }

// Costs returns the run's private cost accumulator, or nil for the ambient
// context (which charges the fleet meter directly).
func (e *Exec) Costs() *timeutil.CostAccumulator { return e.private }

// Finish folds a per-run context back into fleet-level accounting: the
// private accumulator merges into the fleet meter and the shared virtual
// clock advances past the run's total cost. Both operations commute, so the
// fleet's final state is identical however concurrent runs' Finishes
// interleave. Finish is idempotent (subsequent calls are no-ops, so
// `defer ec.Finish()` is safe alongside an explicit call) and a no-op for
// the ambient context, which charged the fleet directly. Like the rest of a
// run context, it is meant to be called from the run's own goroutine.
func (e *Exec) Finish() {
	if e.private == nil || e.finished {
		return
	}
	e.finished = true
	e.private.MergeInto(e.fleet.meter)
	e.fleet.clock.Advance(e.private.Total())
}

// charge books a modelled telemetry cost against the context's sink and
// advances its clock view, simulating the latency of the backing store.
// Tenant-bound contexts charge under "tenant/site" keys, keeping each
// team's share visible after the merge into the fleet meter.
func (e *Exec) charge(site string, d time.Duration) {
	d = time.Duration(float64(d) * e.fleet.cfg.QueryCostScale)
	if e.tenant != "" {
		site = e.tenant + "/" + site
	}
	e.costs.Charge(site, d)
	e.clock.Advance(d)
}
