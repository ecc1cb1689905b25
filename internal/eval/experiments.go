package eval

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/handler"
	"repro/internal/incident"
	"repro/internal/llm/simgpt"
	"repro/internal/parallel"
	"repro/internal/transport"
)

// ---------------------------------------------------------------- Table 2

// RunTable2 evaluates every method of the paper's Table 2 on one
// environment. The seven methods run concurrently on the shared worker pool
// (and each method's per-incident loop fans out beneath them, all drawing
// from the same bounded budget); results keep the paper's row order and are
// identical to a sequential run.
func RunTable2(e *Env) ([]MethodResult, error) {
	pipeline := func(opts PipelineOptions) func() (MethodResult, error) {
		return func() (MethodResult, error) {
			run, err := RunPipeline(e, opts)
			if err != nil {
				return MethodResult{}, err
			}
			return run.Result, nil
		}
	}
	methods := []func() (MethodResult, error){
		func() (MethodResult, error) { return RunFastTextBaseline(e) },
		func() (MethodResult, error) { return RunXGBoostBaseline(e) },
		func() (MethodResult, error) { return RunFineTuneGPT(e) },
		func() (MethodResult, error) { return RunGPTPrompt(e) },
		pipeline(PipelineOptions{GPTEmbedding: true}),
		pipeline(PipelineOptions{Model: simgpt.GPT35}),
		pipeline(PipelineOptions{Model: simgpt.GPT4}),
	}
	return parallel.Map(len(methods), e.Workers, func(i int) (MethodResult, error) {
		return methods[i]()
	})
}

// FormatTable2 renders Table-2 rows in the paper's layout.
func FormatTable2(rows []MethodResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %8s %8s %12s %12s\n", "Method", "Micro", "Macro", "Train(s)", "Infer(s)")
	for _, r := range rows {
		train := fmt.Sprintf("%.3f", r.Train.Seconds())
		if r.Train == 0 {
			train = "-"
		}
		if r.ModelledTrain {
			train += "*"
		}
		infer := fmt.Sprintf("%.3f", r.Infer.Seconds())
		if r.ModelledInfer {
			infer += "*"
		}
		fmt.Fprintf(&b, "%-22s %8.3f %8.3f %12s %12s\n", r.Method, r.Scores.Micro, r.Scores.Macro, train, infer)
	}
	b.WriteString("(* = modelled API latency; see EXPERIMENTS.md)\n")
	return b.String()
}

// ---------------------------------------------------------------- Table 3

// Table3Row is one prompt-context ablation configuration.
type Table3Row struct {
	Name    string
	Context core.ContextSources
	Scores  F1Scores
}

// Table3Configs returns the seven context configurations of Table 3 in the
// paper's row order.
func Table3Configs() []Table3Row {
	return []Table3Row{
		{Name: "DiagnosticInfo", Context: core.ContextSources{DiagnosticInfo: true}},
		{Name: "DiagnosticInfo (sum.)", Context: core.ContextSources{DiagnosticInfo: true, Summarized: true}},
		{Name: "AlertInfo", Context: core.ContextSources{AlertInfo: true}},
		{Name: "Alert+Diagnostic", Context: core.ContextSources{AlertInfo: true, DiagnosticInfo: true}},
		{Name: "Alert+ActionOutput", Context: core.ContextSources{AlertInfo: true, ActionOutput: true}},
		{Name: "Diagnostic+ActionOutput", Context: core.ContextSources{DiagnosticInfo: true, ActionOutput: true}},
		{Name: "Alert+Diag+ActionOutput", Context: core.ContextSources{AlertInfo: true, DiagnosticInfo: true, ActionOutput: true}},
	}
}

// RunTable3 evaluates the prompt-context ablation, one pipeline run per row
// on the shared worker pool.
func RunTable3(e *Env) ([]Table3Row, error) {
	rows := Table3Configs()
	err := parallel.ForEach(len(rows), e.Workers, func(i int) error {
		run, err := RunPipeline(e, PipelineOptions{Context: rows[i].Context})
		if err != nil {
			return fmt.Errorf("table3 %s: %w", rows[i].Name, err)
		}
		rows[i].Scores = run.Result.Scores
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatTable3 renders the ablation table.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %8s %8s\n", "Context", "Micro", "Macro")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s %8.3f %8.3f\n", r.Name, r.Scores.Micro, r.Scores.Macro)
	}
	return b.String()
}

// --------------------------------------------------------------- Figure 12

// SweepPoint is one (K, alpha) cell of Figure 12.
type SweepPoint struct {
	K      int
	Alpha  float64
	Scores F1Scores
}

// RunFig12 sweeps K × alpha over the full pipeline (Figures 12a and 12b).
// The grid cells are independent full pipeline runs, so they fan out on the
// shared worker pool; output order stays row-major over (K, alpha).
func RunFig12(e *Env, ks []int, alphas []float64) ([]SweepPoint, error) {
	if len(ks) == 0 {
		ks = []int{3, 5, 9, 12, 15}
	}
	if len(alphas) == 0 {
		alphas = []float64{0.001, 0.2, 0.4, 0.6, 0.8}
	}
	cells := make([]SweepPoint, 0, len(ks)*len(alphas))
	for _, k := range ks {
		for _, a := range alphas {
			cells = append(cells, SweepPoint{K: k, Alpha: a})
		}
	}
	err := parallel.ForEach(len(cells), e.Workers, func(i int) error {
		run, err := RunPipeline(e, PipelineOptions{K: cells[i].K, Alpha: cells[i].Alpha})
		if err != nil {
			return fmt.Errorf("fig12 K=%d alpha=%.1f: %w", cells[i].K, cells[i].Alpha, err)
		}
		cells[i].Scores = run.Result.Scores
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// FormatFig12 renders the sweep as two grids (micro, macro).
func FormatFig12(points []SweepPoint) string {
	ks := uniqueInts(points, func(p SweepPoint) int { return p.K })
	alphas := uniqueFloats(points, func(p SweepPoint) float64 { return p.Alpha })
	cell := make(map[[2]int]F1Scores)
	for _, p := range points {
		cell[[2]int{p.K, int(p.Alpha * 1000)}] = p.Scores
	}
	var b strings.Builder
	for _, metric := range []string{"F1-micro (Fig 12a)", "F1-macro (Fig 12b)"} {
		b.WriteString(metric + "\n")
		fmt.Fprintf(&b, "%8s", "K\\alpha")
		for _, a := range alphas {
			fmt.Fprintf(&b, "%8.1f", a)
		}
		b.WriteString("\n")
		for _, k := range ks {
			fmt.Fprintf(&b, "%8d", k)
			for _, a := range alphas {
				s := cell[[2]int{k, int(a * 1000)}]
				v := s.Micro
				if strings.Contains(metric, "macro") {
					v = s.Macro
				}
				fmt.Fprintf(&b, "%8.3f", v)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

func uniqueInts(ps []SweepPoint, f func(SweepPoint) int) []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range ps {
		if !seen[f(p)] {
			seen[f(p)] = true
			out = append(out, f(p))
		}
	}
	sort.Ints(out)
	return out
}

func uniqueFloats(ps []SweepPoint, f func(SweepPoint) float64) []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, p := range ps {
		if !seen[f(p)] {
			seen[f(p)] = true
			out = append(out, f(p))
		}
	}
	sort.Float64s(out)
	return out
}

// ------------------------------------------------------------- Figures 2/3

// HistBucket is one histogram bar.
type HistBucket struct {
	Label string
	Value float64
}

// RunFig2 computes the recurring-incident proportion per 10-day interval
// bucket (Figure 2's series) from corpus recurrence gaps.
func RunFig2(e *Env) []HistBucket {
	gaps := e.Corpus.RecurrenceIntervals()
	const bucketDays, maxDays = 10, 120
	counts := make([]int, maxDays/bucketDays+1)
	for _, g := range gaps {
		b := int(g) / bucketDays
		if b >= len(counts) {
			b = len(counts) - 1
		}
		counts[b]++
	}
	total := float64(len(gaps))
	var out []HistBucket
	for i, c := range counts {
		lo := i * bucketDays
		out = append(out, HistBucket{
			Label: fmt.Sprintf("%d-%d", lo, lo+bucketDays),
			Value: float64(c) / total,
		})
	}
	return out
}

// RunFig3 computes the category-occurrence histogram (Figure 3): how many
// categories occur once, twice, ..., >= 10 times.
func RunFig3(e *Env) []HistBucket {
	counts := e.Corpus.CategoryCounts()
	buckets := make([]int, 10) // 1..9 and >=10
	for _, n := range counts {
		if n >= 10 {
			buckets[9]++
		} else {
			buckets[n-1]++
		}
	}
	var out []HistBucket
	for i, c := range buckets {
		label := fmt.Sprintf("%d", i+1)
		if i == 9 {
			label = ">=10"
		}
		out = append(out, HistBucket{Label: label, Value: float64(c)})
	}
	return out
}

// FormatHist renders a histogram with ASCII bars.
func FormatHist(title string, hs []HistBucket, scale float64) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	for _, h := range hs {
		bar := strings.Repeat("#", int(h.Value*scale+0.5))
		fmt.Fprintf(&b, "%8s | %-50s %.4f\n", h.Label, bar, h.Value)
	}
	return b.String()
}

// ---------------------------------------------------------------- Table 4

// TeamProfile models one Table-4 team: its handler inventory size and the
// published average handler execution time the profile is calibrated to.
type TeamProfile struct {
	Name            string
	EnabledHandlers int
	// TargetExecSeconds is the published Table-4 execution time; the
	// simulated team's telemetry cost scale is calibrated so the measured
	// virtual execution time lands near it.
	TargetExecSeconds float64
}

// Table4Teams are the paper's top-10 teams by handler count.
func Table4Teams() []TeamProfile {
	return []TeamProfile{
		{"Team 1", 213, 841}, {"Team 2", 204, 378}, {"Team 3", 88, 106},
		{"Team 4", 42, 449}, {"Team 5", 41, 136}, {"Team 6", 34, 91},
		{"Team 7", 32, 449}, {"Team 8", 32, 255}, {"Team 9", 31, 323},
		{"Team 10", 18, 22},
	}
}

// Table4Row is one measured Table-4 row.
type Table4Row struct {
	Team            string
	AvgExecSeconds  float64
	EnabledHandlers int
	IncidentsRun    int
}

// RunTable4 simulates the multi-team deployment: each team gets its own
// fleet (telemetry cost scale calibrated to its published execution time),
// a handler inventory of the published size built from the builtin suite,
// and a stream of incidents; the measured virtual execution cost per
// incident is reported. workers bounds the per-team fan-out (0 = one per
// CPU, 1 = sequential), matching Env.Workers semantics.
func RunTable4(seed int64, incidentsPerTeam, workers int) ([]Table4Row, error) {
	if incidentsPerTeam <= 0 {
		incidentsPerTeam = 20
	}
	// Calibration run: mean handler execution cost at scale 1.
	base, err := meanExecCost(seed, 1.0, 8)
	if err != nil {
		return nil, err
	}
	// Each team owns its own fleet, registry and RNG, so the per-team runs
	// fan out on the shared worker pool with no cross-talk.
	teams := Table4Teams()
	return parallel.Map(len(teams), workers, func(i int) (Table4Row, error) {
		team := teams[i]
		scale := team.TargetExecSeconds / base.Seconds()
		cost, err := teamRun(seed+int64(i), scale, team, incidentsPerTeam)
		if err != nil {
			return Table4Row{}, fmt.Errorf("table4 %s: %w", team.Name, err)
		}
		return Table4Row{
			Team:            team.Name,
			AvgExecSeconds:  cost.Seconds(),
			EnabledHandlers: team.EnabledHandlers,
			IncidentsRun:    incidentsPerTeam,
		}, nil
	})
}

// TenantShare is one co-tenant's attributed slice of the shared fleet
// meter after a co-tenant Table-4 run: the telemetry cost its runs charged
// under "team/site" keys.
type TenantShare struct {
	Team      string
	Telemetry time.Duration
	Incidents int
}

// RunTable4Tenants is Table 4 with the teams as true co-tenants: ONE
// shared fleet, ONE handler registry holding every team's inventory, and
// every incident run on a tenant-attributed execution context — so the
// shared fleet meter afterwards breaks out each team's diagnostic
// collection cost under its own "team/" key prefix. The published
// per-team execution-time calibration is applied arithmetically (the
// shared fleet has one cost scale), keeping the reported rows comparable
// to the isolated-fleet run while the accounting exercises the
// multi-tenant attribution path end to end.
func RunTable4Tenants(seed int64, incidentsPerTeam int) ([]Table4Row, []TenantShare, error) {
	if incidentsPerTeam <= 0 {
		incidentsPerTeam = 20
	}
	base, err := meanExecCost(seed, 1.0, 8)
	if err != nil {
		return nil, nil, err
	}
	fleet := transport.NewFleet(transport.DefaultConfig(seed))
	registry := handler.NewRegistry(nil)
	teams := Table4Teams()
	for _, team := range teams {
		if err := installInventory(registry, team); err != nil {
			return nil, nil, fmt.Errorf("table4 tenants %s: %w", team.Name, err)
		}
	}

	// One incident stream per team over the shared fleet. Sequential on
	// purpose: fault injection and alert pickup are fleet-global, so
	// interleaving teams would cross their alerts; the measurement is
	// virtual cost, which does not depend on wall-clock parallelism.
	runner := handler.NewRunner(fleet)
	rng := rand.New(rand.NewSource(seed))
	rows := make([]Table4Row, len(teams))
	for ti, team := range teams {
		scale := team.TargetExecSeconds / base.Seconds()
		mean, err := driveIncidents(fleet, runner, rng, team.Name, ti*incidentsPerTeam, incidentsPerTeam, true,
			func(inc *incident.Incident) (*handler.Handler, error) { return registry.Match(team.Name, inc) })
		if err != nil {
			return nil, nil, fmt.Errorf("table4 tenants %s: %w", team.Name, err)
		}
		rows[ti] = Table4Row{
			Team:            team.Name,
			AvgExecSeconds:  scale * mean.Seconds(),
			EnabledHandlers: team.EnabledHandlers,
			IncidentsRun:    incidentsPerTeam,
		}
	}

	// Per-tenant attribution: every charge a tenant context booked merged
	// into the shared meter under "team/site"; roll the sites up per team.
	byTeam := make(map[string]time.Duration)
	for key, d := range fleet.Meter().ByKey() {
		if team, _, ok := strings.Cut(key, "/"); ok {
			byTeam[team] += d
		}
	}
	shares := make([]TenantShare, 0, len(byTeam))
	for team, d := range byTeam {
		shares = append(shares, TenantShare{Team: team, Telemetry: d, Incidents: incidentsPerTeam})
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i].Team < shares[j].Team })
	return rows, shares, nil
}

// FormatTenantShares renders the co-tenant cost attribution table.
func FormatTenantShares(shares []TenantShare) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %20s %12s\n", "Tenant", "Telemetry share", "# Incidents")
	for _, s := range shares {
		fmt.Fprintf(&b, "%-10s %20s %12d\n", s.Team, s.Telemetry.Round(time.Millisecond), s.Incidents)
	}
	return b.String()
}

func meanExecCost(seed int64, scale float64, n int) (time.Duration, error) {
	cfg := transport.DefaultConfig(seed)
	cfg.QueryCostScale = scale
	fleet := transport.NewFleet(cfg)
	return driveIncidents(fleet, handler.NewRunner(fleet), rand.New(rand.NewSource(seed)), "team", 0, n, false,
		func(inc *incident.Incident) (*handler.Handler, error) { return handler.Builtin(inc.Alert.Type) })
}

// teamRun builds the team's handler inventory and measures the mean
// execution cost over an incident stream on the team's own fleet.
func teamRun(seed int64, scale float64, team TeamProfile, n int) (time.Duration, error) {
	cfg := transport.DefaultConfig(seed)
	cfg.QueryCostScale = scale
	fleet := transport.NewFleet(cfg)
	registry := handler.NewRegistry(nil)
	if err := installInventory(registry, team); err != nil {
		return 0, err
	}
	return driveIncidents(fleet, handler.NewRunner(fleet), rand.New(rand.NewSource(seed)), team.Name, 0, n, false,
		func(inc *incident.Incident) (*handler.Handler, error) { return registry.Match(team.Name, inc) })
}

// installInventory registers the team's handler inventory: EnabledHandlers
// variants of the builtin suite, those past the suite's size under
// team-specific alert types.
func installInventory(registry *handler.Registry, team TeamProfile) error {
	builtins, err := handler.BuiltinAll()
	if err != nil {
		return err
	}
	for i := 0; i < team.EnabledHandlers; i++ {
		h := builtins[i%len(builtins)].Clone()
		h.Team = team.Name
		if i >= len(builtins) {
			h.Name = fmt.Sprintf("%s-v%d", h.Name, i/len(builtins))
			h.AlertType = incident.AlertType(fmt.Sprintf("%s#%d", h.AlertType, i/len(builtins)))
		}
		if _, err := registry.Save(h); err != nil {
			return err
		}
	}
	got, err := registry.EnabledCount(team.Name)
	if err != nil {
		return err
	}
	if got != team.EnabledHandlers {
		return fmt.Errorf("inventory mismatch: %d != %d", got, team.EnabledHandlers)
	}
	return nil
}

// driveIncidents runs n incidents of team through the fleet and returns
// their mean collection cost. Each incident injects a Table-1 fault drawn
// from rng, is opened from the fleet's first alert with sequence number
// seq+i, and runs its matched handler on its own execution context
// (attributed to team when tenant is set); Finish keeps the fleet clock
// advancing so successive incidents carry distinct timestamps, and the
// fault is repaired before the next one.
func driveIncidents(fleet *transport.Fleet, runner *handler.Runner, rng *rand.Rand, team string, seq, n int, tenant bool,
	match func(*incident.Incident) (*handler.Handler, error)) (time.Duration, error) {
	cats := transport.Table1Categories()
	var total time.Duration
	for i := 0; i < n; i++ {
		cat := cats[rng.Intn(len(cats))]
		fault, err := fleet.Inject(cat, rng.Intn(len(fleet.Forests)))
		if err != nil {
			return 0, err
		}
		alert, ok := fleet.FirstAlert()
		if !ok {
			return 0, fmt.Errorf("no alert for %s", cat)
		}
		inc := core.IncidentAt(alert, incident.Sev2, team, seq+i, fleet.Clock().Now())
		h, err := match(inc)
		if err != nil {
			return 0, err
		}
		ec := fleet.NewExec(inc.CreatedAt)
		if tenant {
			ec = fleet.NewExecTenant(inc.CreatedAt, team)
		}
		report, err := runner.RunWith(ec, h, inc)
		ec.Finish() // merge even on error, matching the ambient path
		if err != nil {
			return 0, err
		}
		total += report.VirtualCost
		fault.Repair()
	}
	return total / time.Duration(n), nil
}

// FormatTable4 renders the team table.
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %18s %18s\n", "Team", "Avg exec time (s)", "# Enabled handler")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %18.0f %18d\n", r.Team, r.AvgExecSeconds, r.EnabledHandlers)
	}
	return b.String()
}

// ---------------------------------------------------------------- Table 1

// Table1Row is one exemplar incident per root-cause category.
type Table1Row struct {
	No       int
	Severity incident.Severity
	Scope    incident.Scope
	Category incident.Category
	Occur    int
	Symptom  string
	Cause    string
}

// RunTable1 reconstructs Table 1 from the corpus: one exemplar per
// category with its occurrence count, plus the injector's symptom/cause
// narrative.
func RunTable1(e *Env) ([]Table1Row, error) {
	counts := e.Corpus.CategoryCounts()
	scratch := transport.NewFleet(transport.DefaultConfig(e.Seed))
	var rows []Table1Row
	for i, cat := range transport.Table1Categories() {
		fault, err := scratch.Inject(cat, 0)
		if err != nil {
			return nil, err
		}
		var exemplar *incident.Incident
		for _, in := range e.Corpus.Incidents {
			if in.Category == cat {
				exemplar = in
				break
			}
		}
		if exemplar == nil {
			return nil, fmt.Errorf("table1: no corpus incident for %s", cat)
		}
		rows = append(rows, Table1Row{
			No:       i + 1,
			Severity: exemplar.Severity,
			Scope:    exemplar.Alert.Scope,
			Category: cat,
			Occur:    counts[cat],
			Symptom:  fault.Symptom,
			Cause:    fault.Cause,
		})
		fault.Repair()
	}
	return rows, nil
}

// FormatTable1 renders the exemplar table.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-3s %-4s %-8s %-24s %-6s %s\n", "No", "Sev", "Scope", "Category", "Occur", "Symptom / Cause")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-3d %-4s %-8s %-24s %-6d %s\n", r.No, r.Severity, r.Scope, r.Category, r.Occur, r.Symptom)
		fmt.Fprintf(&b, "%-48s%s\n", "", r.Cause)
	}
	return b.String()
}

// ----------------------------------------------------------- §5.6 stability

// TrustRound is one stability-round result.
type TrustRound struct {
	Round  int
	Seed   int64
	Scores F1Scores
}

// RunTrustworthiness repeats the full RCACopilot (GPT-4) evaluation across
// rounds with different LLM seeds (§5.6: three rounds, micro consistently
// above 0.70, macro above 0.50).
func RunTrustworthiness(e *Env, rounds int) ([]TrustRound, error) {
	if rounds <= 0 {
		rounds = 3
	}
	return parallel.Map(rounds, e.Workers, func(i int) (TrustRound, error) {
		r := i + 1
		seed := e.Seed*1000 + int64(r)
		run, err := RunPipeline(e, PipelineOptions{LLMSeed: seed})
		if err != nil {
			return TrustRound{}, fmt.Errorf("trust round %d: %w", r, err)
		}
		return TrustRound{Round: r, Seed: seed, Scores: run.Result.Scores}, nil
	})
}

// FormatTrust renders the stability rounds.
func FormatTrust(rounds []TrustRound) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %8s %8s\n", "Round", "Micro", "Macro")
	for _, r := range rounds {
		fmt.Fprintf(&b, "%-8d %8.3f %8.3f\n", r.Round, r.Scores.Micro, r.Scores.Macro)
	}
	return b.String()
}
