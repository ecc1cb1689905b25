package eval

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/incident"
)

func TestScorePerfectAndEmpty(t *testing.T) {
	gold := []incident.Category{"A", "B", "A"}
	s := Score(gold, gold)
	if s.Micro != 1 || s.Macro != 1 {
		t.Fatalf("perfect predictions should score 1/1, got %+v", s)
	}
	if s := Score(nil, nil); s.Micro != 0 || s.Macro != 0 {
		t.Fatalf("empty input should score 0/0, got %+v", s)
	}
	if s := Score([]incident.Category{"A"}, gold); s.Micro != 0 {
		t.Fatal("length mismatch should score zero")
	}
}

func TestScoreMicroIsAccuracy(t *testing.T) {
	gold := []incident.Category{"A", "A", "B", "C"}
	pred := []incident.Category{"A", "B", "B", "B"}
	s := Score(pred, gold)
	if math.Abs(s.Micro-0.5) > 1e-12 {
		t.Fatalf("micro = %f, want 0.5", s.Micro)
	}
}

func TestScoreMacroPunishesLongTail(t *testing.T) {
	// Dominant class all right, two singleton classes all wrong: micro
	// stays high, macro collapses — the paper's Table-2 gap mechanism.
	var gold, pred []incident.Category
	for i := 0; i < 8; i++ {
		gold = append(gold, "big")
		pred = append(pred, "big")
	}
	gold = append(gold, "rare1", "rare2")
	pred = append(pred, "big", "big")
	s := Score(pred, gold)
	if s.Micro != 0.8 {
		t.Fatalf("micro = %f, want 0.8", s.Micro)
	}
	// Per-class F1: big = 2*0.8*1/(1.8) ≈ 0.889, rare1 = rare2 = 0.
	want := (2 * 0.8 / 1.8) / 3
	if math.Abs(s.Macro-want) > 1e-9 {
		t.Fatalf("macro = %f, want %f", s.Macro, want)
	}
}

func TestPerClass(t *testing.T) {
	gold := []incident.Category{"A", "A", "B"}
	pred := []incident.Category{"A", "B", "B"}
	rows := PerClass(pred, gold)
	if len(rows) != 2 {
		t.Fatalf("PerClass rows = %d, want 2", len(rows))
	}
	if rows[0].Class != "A" || rows[0].N != 2 {
		t.Fatalf("rows[0] = %+v", rows[0])
	}
	if rows[0].F1 <= 0 || rows[0].F1 >= 1 {
		t.Fatalf("A should have partial F1, got %f", rows[0].F1)
	}
}

func TestNormalizeSynonyms(t *testing.T) {
	cases := map[incident.Category]incident.Category{
		"I/O Bottleneck":          "FullDisk",
		"i/o bottleneck":          "FullDisk",
		"UDP Port Exhaustion":     "HubPortExhaustion",
		"Dependency Unreachable":  "DispatcherTaskCancelled",
		"StoreWorkerMemoryLeak":   "StoreWorkerMemoryLeak", // exact labels pass through
		"SomethingNovelEntirely":  "SomethingNovelEntirely",
		"Delivery Pipeline Stall": "DeliveryHang",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

// sharedEnv is built once; generation and splitting are deterministic.
var sharedEnv *Env

func getSharedEnv(t *testing.T) *Env {
	t.Helper()
	if sharedEnv == nil {
		e, err := NewEnv(5)
		if err != nil {
			t.Fatal(err)
		}
		sharedEnv = e
	}
	return sharedEnv
}

func TestEnvSplitShape(t *testing.T) {
	e := getSharedEnv(t)
	if len(e.Train)+len(e.Test) != 653 {
		t.Fatalf("split sizes %d+%d != 653", len(e.Train), len(e.Test))
	}
	if len(e.TrainTexts()) != len(e.Train) || len(e.TrainLabels()) != len(e.Train) {
		t.Fatal("train accessors inconsistent")
	}
	if len(e.TestGold()) != len(e.Test) {
		t.Fatal("gold accessor inconsistent")
	}
}

func TestFig2BucketsSumToOne(t *testing.T) {
	e := getSharedEnv(t)
	hs := RunFig2(e)
	var sum float64
	for _, h := range hs {
		if h.Value < 0 {
			t.Fatalf("negative bucket %+v", h)
		}
		sum += h.Value
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("proportions sum to %f, want 1", sum)
	}
	// Insight 2: the first two buckets (0-20 days) dominate.
	if hs[0].Value+hs[1].Value < 0.85 {
		t.Fatalf("0-20 day share = %f, want >= 0.85", hs[0].Value+hs[1].Value)
	}
}

func TestFig3LongTail(t *testing.T) {
	e := getSharedEnv(t)
	hs := RunFig3(e)
	if len(hs) != 10 {
		t.Fatalf("buckets = %d, want 10", len(hs))
	}
	var total float64
	for _, h := range hs {
		total += h.Value
	}
	if total != 163 {
		t.Fatalf("category total = %f, want 163", total)
	}
	// The singleton bucket must dominate (Figure 3's long tail).
	if hs[0].Value < 100 {
		t.Fatalf("singleton categories = %f, want >= 100", hs[0].Value)
	}
}

func TestTable1RowsComplete(t *testing.T) {
	e := getSharedEnv(t)
	rows, err := RunTable1(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	for _, r := range rows {
		if r.Symptom == "" || r.Cause == "" || r.Occur == 0 {
			t.Fatalf("incomplete row %+v", r)
		}
	}
	// Spot-check the published occurrence counts.
	if rows[1].Category != "HubPortExhaustion" || rows[1].Occur != 27 {
		t.Fatalf("row 2 = %+v, want HubPortExhaustion x27", rows[1])
	}
}

func TestTable4ShapeAndCalibration(t *testing.T) {
	rows, err := RunTable4(3, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	teams := Table4Teams()
	for i, r := range rows {
		if r.EnabledHandlers != teams[i].EnabledHandlers {
			t.Errorf("%s handlers = %d, want %d", r.Team, r.EnabledHandlers, teams[i].EnabledHandlers)
		}
		// Calibrated virtual cost should land within 2x of the published
		// value (workload mix varies by seed).
		ratio := r.AvgExecSeconds / teams[i].TargetExecSeconds
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("%s exec = %.0fs, target %.0fs (ratio %.2f)", r.Team, r.AvgExecSeconds, teams[i].TargetExecSeconds, ratio)
		}
	}
}

// TestTable4TenantsPinned pins the co-tenant Table 4 run for one seed:
// every row's calibrated execution time and every tenant's attributed
// telemetry share. The collection is virtual-cost arithmetic over a seeded
// fleet, so any change to the incident stream, handler matching or tenant
// attribution moves these exact values.
func TestTable4TenantsPinned(t *testing.T) {
	rows, shares, err := RunTable4Tenants(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := []Table4Row{
		{"Team 1", 843.9633544275689, 213, 6},
		{"Team 2", 302.6131078010994, 204, 6},
		{"Team 3", 87.25017616845668, 88, 6},
		{"Team 4", 397.42353767729395, 42, 6},
		{"Team 5", 140.31289640591967, 41, 6},
		{"Team 6", 99.01620859247357, 34, 6},
		{"Team 7", 260.730091588499, 32, 6},
		{"Team 8", 217.80126849894293, 32, 6},
		{"Team 9", 304.10711765209305, 31, 6},
		{"Team 10", 14.635658913488374, 18, 6},
	}
	wantShares := []TenantShare{
		{"Team 1", 35600 * time.Millisecond, 6},
		{"Team 10", 23600 * time.Millisecond, 6},
		{"Team 2", 28400 * time.Millisecond, 6},
		{"Team 3", 29200 * time.Millisecond, 6},
		{"Team 4", 31400 * time.Millisecond, 6},
		{"Team 5", 36600 * time.Millisecond, 6},
		{"Team 6", 38600 * time.Millisecond, 6},
		{"Team 7", 20600 * time.Millisecond, 6},
		{"Team 8", 30300 * time.Millisecond, 6},
		{"Team 9", 33400 * time.Millisecond, 6},
	}
	if !reflect.DeepEqual(rows, wantRows) {
		t.Errorf("rows = %+v\nwant %+v", rows, wantRows)
	}
	if !reflect.DeepEqual(shares, wantShares) {
		t.Errorf("shares = %+v\nwant %+v", shares, wantShares)
	}
}

func TestFastTextBaselineRuns(t *testing.T) {
	e := getSharedEnv(t)
	res, err := RunFastTextBaseline(e)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores.Micro < 0 || res.Scores.Micro > 0.5 {
		t.Fatalf("FastText baseline micro = %.3f, expected weak long-tail performance", res.Scores.Micro)
	}
	if res.Train <= 0 {
		t.Fatal("train time missing")
	}
}

func TestPipelineBeatsBaselineAndAnswersEveryIncident(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline evaluation is expensive")
	}
	e := getSharedEnv(t)
	run, err := RunPipeline(e, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Preds) != len(e.Test) {
		t.Fatalf("preds = %d, want %d", len(run.Preds), len(e.Test))
	}
	for i, p := range run.Preds {
		if p == "" {
			t.Fatalf("test incident %d got empty prediction", i)
		}
	}
	if run.Result.Scores.Micro < 0.60 {
		t.Fatalf("RCACopilot micro = %.3f, want >= 0.60 (paper: 0.766)", run.Result.Scores.Micro)
	}
	// Macro-F1 varies more across corpus seeds than micro (singleton
	// classes flip whole per-class F1 terms); the reference-seed runs in
	// EXPERIMENTS.md land near the paper's 0.533.
	if run.Result.Scores.Macro < 0.40 {
		t.Fatalf("RCACopilot macro = %.3f, want >= 0.40 (paper: 0.533)", run.Result.Scores.Macro)
	}
	base, err := RunFastTextBaseline(e)
	if err != nil {
		t.Fatal(err)
	}
	if run.Result.Scores.Micro <= base.Scores.Micro*2 {
		t.Fatalf("RCACopilot (%.3f) should beat FastText (%.3f) by a wide margin",
			run.Result.Scores.Micro, base.Scores.Micro)
	}
}

func TestFormattersProduceTables(t *testing.T) {
	rows := []MethodResult{{Method: "X", Scores: F1Scores{Micro: 0.5, Macro: 0.4}}}
	if out := FormatTable2(rows); !strings.Contains(out, "X") || !strings.Contains(out, "0.500") {
		t.Fatalf("FormatTable2:\n%s", out)
	}
	t3 := []Table3Row{{Name: "ctx", Scores: F1Scores{Micro: 0.1, Macro: 0.2}}}
	if out := FormatTable3(t3); !strings.Contains(out, "ctx") {
		t.Fatalf("FormatTable3:\n%s", out)
	}
	sp := []SweepPoint{{K: 5, Alpha: 0.2, Scores: F1Scores{Micro: 0.7}}}
	if out := FormatFig12(sp); !strings.Contains(out, "Fig 12a") {
		t.Fatalf("FormatFig12:\n%s", out)
	}
	h := []HistBucket{{Label: "1", Value: 3}}
	if out := FormatHist("t", h, 1); !strings.Contains(out, "###") {
		t.Fatalf("FormatHist:\n%s", out)
	}
	tr := []TrustRound{{Round: 1, Scores: F1Scores{Micro: 0.75, Macro: 0.6}}}
	if out := FormatTrust(tr); !strings.Contains(out, "0.750") {
		t.Fatalf("FormatTrust:\n%s", out)
	}
	t4 := []Table4Row{{Team: "Team 1", AvgExecSeconds: 800, EnabledHandlers: 213}}
	if out := FormatTable4(t4); !strings.Contains(out, "Team 1") {
		t.Fatalf("FormatTable4:\n%s", out)
	}
}

func TestTable3ConfigsMatchPaperRows(t *testing.T) {
	rows := Table3Configs()
	if len(rows) != 7 {
		t.Fatalf("configs = %d, want 7 (Table 3 rows)", len(rows))
	}
	if !rows[1].Context.Summarized {
		t.Fatal("row 2 must be the summarized-diagnostics configuration")
	}
	full := rows[6].Context
	if !full.AlertInfo || !full.DiagnosticInfo || !full.ActionOutput {
		t.Fatal("row 7 must combine all three sources")
	}
}
