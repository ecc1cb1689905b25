package rcacopilot

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5), plus component micro-benchmarks for the substrates. The
// experiment benchmarks print nothing — run `go run ./cmd/experiments` to
// see the regenerated rows/series — but they regenerate the same results,
// so `go test -bench=. -benchmem` doubles as a reproduction smoke test.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed/fasttext"
	"repro/internal/eval"
	"repro/internal/handler"
	"repro/internal/incident"
	"repro/internal/llm/simgpt"
	"repro/internal/parallel"
	"repro/internal/prompt"
	"repro/internal/tokenize"
	"repro/internal/transport"
)

var (
	benchOnce sync.Once
	benchEnv  *eval.Env
	benchErr  error
)

func sharedBenchEnv(b *testing.B) *eval.Env {
	b.Helper()
	benchOnce.Do(func() { benchEnv, benchErr = eval.NewEnv(1) })
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// BenchmarkTable1CorpusGeneration measures generating the full 653-incident
// year (Table 1's corpus, including fault injection and handler-driven
// collection for every incident).
func BenchmarkTable1CorpusGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := dataset.Generate(dataset.DefaultSpec(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Recurrence regenerates the Figure 2 recurrence histogram.
func BenchmarkFig2Recurrence(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hs := eval.RunFig2(env); len(hs) == 0 {
			b.Fatal("empty histogram")
		}
	}
}

// BenchmarkFig3CategoryFrequency regenerates the Figure 3 long-tail
// histogram.
func BenchmarkFig3CategoryFrequency(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hs := eval.RunFig3(env); len(hs) != 10 {
			b.Fatal("bad histogram")
		}
	}
}

// BenchmarkTable2Methods regenerates the full Table 2 method comparison
// (all seven methods, training included).
func BenchmarkTable2Methods(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunTable2(env)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 7 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkTable3Ablation regenerates the Table 3 prompt-context ablation.
func BenchmarkTable3Ablation(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunTable3(env)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 7 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFig12KAlphaSweep regenerates a reduced Figure 12 grid (the full
// 5×5 sweep is `cmd/experiments -run fig12`).
func BenchmarkFig12KAlphaSweep(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := eval.RunFig12(env, []int{3, 5}, []float64{0.2, 0.6})
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 4 {
			b.Fatalf("points = %d", len(points))
		}
	}
}

// BenchmarkTable4TeamCollection regenerates the Table 4 multi-team
// diagnostic-collection simulation.
func BenchmarkTable4TeamCollection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunTable4(1, 10, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 10 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkTrustworthinessRounds regenerates the §5.6 stability rounds.
func BenchmarkTrustworthinessRounds(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rounds, err := eval.RunTrustworthiness(env, 3)
		if err != nil {
			b.Fatal(err)
		}
		if len(rounds) != 3 {
			b.Fatalf("rounds = %d", len(rounds))
		}
	}
}

// BenchmarkDesignAblation regenerates the design-choice ablation
// (retrieval diversity constraint, embedding scale).
func BenchmarkDesignAblation(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunDesignAblation(env)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// ---- parallel-vs-sequential engine benchmarks ----
//
// The same workload at Workers=1 (sequential reference) and Workers=0 (one
// worker per CPU): the ratio is the engine's wall-clock speedup on this
// machine. On a single-CPU runner the pool degrades to the sequential path
// and the ratio is 1×; on a 4+-core box the experiment suite drops by the
// core count (minus the sequential corpus/FastText setup, per Amdahl).

// benchWithWorkers runs fn with the shared env pinned to the given worker
// count, restoring it afterwards. The shared FastText model is trained
// before the timer starts so whichever variant runs first doesn't absorb
// the one-time setup.
func benchWithWorkers(b *testing.B, workers int, fn func(e *eval.Env)) {
	e := sharedBenchEnv(b)
	if _, _, err := e.FastText(); err != nil {
		b.Fatal(err)
	}
	prev := e.Workers
	e.Workers = workers
	defer func() { e.Workers = prev }()
	b.ResetTimer()
	fn(e)
}

// BenchmarkTable2Sequential regenerates Table 2 on the sequential path.
func BenchmarkTable2Sequential(b *testing.B) {
	benchWithWorkers(b, 1, func(e *eval.Env) {
		for i := 0; i < b.N; i++ {
			if _, err := eval.RunTable2(e); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable2Parallel regenerates Table 2 on the worker pool.
func BenchmarkTable2Parallel(b *testing.B) {
	benchWithWorkers(b, 0, func(e *eval.Env) {
		for i := 0; i < b.N; i++ {
			if _, err := eval.RunTable2(e); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig12Sequential sweeps the reduced Fig 12 grid sequentially.
func BenchmarkFig12Sequential(b *testing.B) {
	benchWithWorkers(b, 1, func(e *eval.Env) {
		for i := 0; i < b.N; i++ {
			if _, err := eval.RunFig12(e, []int{3, 5}, []float64{0.2, 0.6}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig12Parallel sweeps the reduced Fig 12 grid on the pool.
func BenchmarkFig12Parallel(b *testing.B) {
	benchWithWorkers(b, 0, func(e *eval.Env) {
		for i := 0; i < b.N; i++ {
			if _, err := eval.RunFig12(e, []int{3, 5}, []float64{0.2, 0.6}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchBatch measures System-level batch handling at a worker count.
func benchBatch(b *testing.B, workers int) {
	env := sharedBenchEnv(b)
	sys, err := NewSystem(env.Corpus.Fleet, Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.TrainEmbedding(env.Train[:200]); err != nil {
		b.Fatal(err)
	}
	if err := sys.AddHistory(env.Train[:200]); err != nil {
		b.Fatal(err)
	}
	fault, err := sys.Fleet().Inject("HubPortExhaustion", 0)
	if err != nil {
		b.Fatal(err)
	}
	defer fault.Repair()
	alert, ok := sys.Fleet().FirstAlert()
	if !ok {
		b.Fatal("no alert")
	}
	at := sys.Fleet().Clock().Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		incs := make([]*incident.Incident, 16)
		for j := range incs {
			incs[j] = &incident.Incident{
				ID: fmt.Sprintf("INC-BENCH-%d-%03d", i, j), Title: alert.Message,
				OwningTeam: "Transport", Severity: incident.Sev2, Alert: alert,
				CreatedAt: at,
			}
		}
		if _, err := sys.HandleIncidents(incs, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchHandleSequential handles a 16-incident batch one at a time.
func BenchmarkBatchHandleSequential(b *testing.B) { benchBatch(b, 1) }

// BenchmarkBatchHandleParallel handles a 16-incident batch on the pool.
func BenchmarkBatchHandleParallel(b *testing.B) { benchBatch(b, 0) }

// ---- component micro-benchmarks ----

// benchIncident injects a fault and returns a collected incident plus its
// copilot, for per-stage benchmarks.
func benchIncident(b *testing.B) (*core.Copilot, *incident.Incident) {
	b.Helper()
	env := sharedBenchEnv(b)
	chat := simgpt.MustNew(simgpt.GPT4, simgpt.Options{Seed: 1})
	cop, err := core.New(env.Corpus.Fleet, core.Config{Chat: chat})
	if err != nil {
		b.Fatal(err)
	}
	ft, _, err := env.FastText()
	if err != nil {
		b.Fatal(err)
	}
	cop.SetEmbedder(core.FastTextEmbedder{Model: ft})
	for i, in := range env.Train {
		if i >= 200 {
			break
		}
		if err := cop.Learn(in.Clone()); err != nil {
			b.Fatal(err)
		}
	}
	return cop, env.Test[0].Clone()
}

// BenchmarkCollectionStage measures one handler execution (the paper's
// per-incident collection work, Table 4's unit).
func BenchmarkCollectionStage(b *testing.B) {
	env := sharedBenchEnv(b)
	fleet := env.Corpus.Fleet
	runner := handler.NewRunner(fleet)
	fault, err := fleet.Inject("HubPortExhaustion", 0)
	if err != nil {
		b.Fatal(err)
	}
	defer fault.Repair()
	alert, ok := fleet.FirstAlert()
	if !ok {
		b.Fatal("no alert")
	}
	h, err := handler.Builtin(alert.Type)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc := core.IncidentAt(alert, incident.Sev2, "Transport", i, fleet.Clock().Now())
		if _, err := runner.Run(h, inc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLLMSummarization measures the Figure 7 summarization step.
func BenchmarkLLMSummarization(b *testing.B) {
	cop, inc := benchIncident(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc.Summary = ""
		if err := cop.Summarize(inc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrediction measures the full prediction stage for one incident
// (embed, retrieve, prompt, parse) against a 200-incident history.
func BenchmarkPrediction(b *testing.B) {
	cop, inc := benchIncident(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cop.Predict(inc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFastTextDocVector measures embedding one diagnostic document.
func BenchmarkFastTextDocVector(b *testing.B) {
	env := sharedBenchEnv(b)
	ft, _, err := env.FastText()
	if err != nil {
		b.Fatal(err)
	}
	benchDocVector(b, ft, env.Test[0].DiagnosticText())
}

// BenchmarkFastTextDocVectorOOV measures the cold path: the same document
// with every word made unseen, so each one is composed from its character
// n-gram buckets.
func BenchmarkFastTextDocVectorOOV(b *testing.B) {
	env := sharedBenchEnv(b)
	ft, _, err := env.FastText()
	if err != nil {
		b.Fatal(err)
	}
	words := tokenize.Words(env.Test[0].DiagnosticText())
	for i, w := range words {
		words[i] = w + "qz"
	}
	benchDocVector(b, ft, strings.Join(words, " "))
}

func benchDocVector(b *testing.B, ft *fasttext.Model, text string) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := ft.DocVector(text); len(v) == 0 {
			b.Fatal("empty vector")
		}
	}
}

// BenchmarkTrainSkipgram measures training the retrieval embedding on the
// training split, as env.FastText does for the stage benchmarks above.
func BenchmarkTrainSkipgram(b *testing.B) {
	env := sharedBenchEnv(b)
	texts := env.TrainTexts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fasttext.TrainSkipgram(texts, fasttext.Config{Seed: env.Seed}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainSupervised measures training the supervised FastText
// baseline of Table 2 on the same split.
func BenchmarkTrainSupervised(b *testing.B) {
	env := sharedBenchEnv(b)
	texts, labels := env.TrainTexts(), env.TrainLabels()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fasttext.TrainSupervised(texts, labels, fasttext.Config{Seed: env.Seed}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVectorTopKDiverse measures one temporal-decay kNN query against
// the full training history.
func BenchmarkVectorTopKDiverse(b *testing.B) {
	cop, inc := benchIncident(b)
	ft, _, err := sharedBenchEnv(b).FastText()
	if err != nil {
		b.Fatal(err)
	}
	query, err := core.FastTextEmbedder{Model: ft}.Embed(inc.DiagnosticText())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cop.Index().TopKDiverse(query, inc.CreatedAt, 5, 0.3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPromptConstruction measures building a Figure 9 prompt.
func BenchmarkPromptConstruction(b *testing.B) {
	demos := []prompt.Demo{
		{Summary: "probe failures with winsock 11001", Category: "HubPortExhaustion"},
		{Summary: "delivery threads blocked", Category: "DeliveryHang"},
		{Summary: "io exceptions on full disk", Category: "FullDisk"},
	}
	for i := 0; i < b.N; i++ {
		req := prompt.Prediction("current incident summary text", demos)
		if len(req.Messages) == 0 {
			b.Fatal("empty request")
		}
	}
}

// BenchmarkMonitorScan measures one full-fleet monitor sweep.
func BenchmarkMonitorScan(b *testing.B) {
	fleet := transport.NewFleet(transport.DefaultConfig(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if alerts := fleet.RunMonitors(); len(alerts) != 0 {
			b.Fatal("healthy fleet alerted")
		}
	}
}

// BenchmarkHandleIncidentsParallelCollect measures the collection stage —
// the half of the pipeline PR 1 left serialized behind a mutex — over a
// batch of incidents at one worker (sequential reference) and on the pool.
// With per-run execution contexts collection no longer serializes, so the
// parallel variant scales with the worker count on multi-core hardware and
// degrades to parity on a single CPU.
func BenchmarkHandleIncidentsParallelCollect(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{{"Sequential", 1}, {"Parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			env := sharedBenchEnv(b)
			chat := simgpt.MustNew(simgpt.GPT4, simgpt.Options{Seed: 1})
			cop, err := core.New(env.Corpus.Fleet, core.Config{Chat: chat})
			if err != nil {
				b.Fatal(err)
			}
			fleet := env.Corpus.Fleet
			fault, err := fleet.Inject("HubPortExhaustion", 0)
			if err != nil {
				b.Fatal(err)
			}
			defer fault.Repair()
			alert, ok := fleet.FirstAlert()
			if !ok {
				b.Fatal("no alert")
			}
			at := fleet.Clock().Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				incs := make([]*incident.Incident, 64)
				for j := range incs {
					incs[j] = &incident.Incident{
						ID: fmt.Sprintf("INC-PC-%d-%03d", i, j), Title: alert.Message,
						OwningTeam: "Transport", Severity: incident.Sev2, Alert: alert,
						CreatedAt: at,
					}
				}
				if err := parallel.ForEach(len(incs), bc.workers, func(j int) error {
					_, err := cop.Collect(incs[j])
					return err
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
