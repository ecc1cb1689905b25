// Command perfbench is the repository's end-to-end benchmark. It drives the
// public library API in-process on one workload and prints one JSON result
// line:
//
//	perfbench --workload oncall|retrieve --seed N --seconds S --trace 0|1
//
// Inputs are generated from the seed before any timer starts. With
// --trace 0 the result holds the end-to-end metrics; with --trace 1 the
// workload also runs traced, each operation decomposed into the public
// layer calls it makes, and the result holds the per-layer metrics. The
// spans are written to .bench_build/traces. The exit code is non-zero if
// any correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	rca "repro"
	"repro/internal/core"
	"repro/internal/embed/fasttext"
	"repro/internal/incident"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"success_share", "ratio"},
	{"accuracy", "ratio"},
	{"recall_at_5", "ratio"},
	{"heap_live_mb", "MiB"},
	{"learn_p50_ms", "ms"},
}

var perLayer = []metricDef{
	{"fasttext.train_s", "s"},
	{"core.set_embedder_s", "s"},
	{"core.ingest_s", "s"},
	{"handler.collect_us", "us"},
	{"handler.steps_per_op", "count"},
	{"handler.evidence_per_op", "count"},
	{"simgpt.summarize_us", "us"},
	{"simgpt.complete_us", "us"},
	{"simgpt.prompt_tokens", "count"},
	{"prompt.build_us", "us"},
	{"prompt.parse_us", "us"},
	{"fasttext.embed_us", "us"},
	{"fasttext.embed_allocs", "count"},
	{"fasttext.query_embed_us", "us"},
	{"vectordb.diverse_us", "us"},
	{"vectordb.topk_us", "us"},
	{"vectordb.probes", "count"},
	{"vectordb.observed_recall", "ratio"},
	{"vectordb.shadows_per_kop", "count"},
	{"vectordb.quant_scan_share", "ratio"},
	{"vectordb.batch_occupancy", "count"},
	{"vectordb.flush_timer_share", "ratio"},
	{"vectordb.retrains", "count"},
	{"feedback.submit_us", "us"},
	{"feedback.visible_us", "us"},
	{"wal.add_us", "us"},
	{"wal.appended_per_op", "count"},
	{"wal.synced_share", "ratio"},
	{"wal.log_bytes_per_learn", "B"},
	{"wal.compactions", "count"},
	{"wal.compact_ms", "ms"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_kb_per_op", "KiB"},
	{"runtime.gc_per_kop", "count"},
	{"tail.latency_p99_ms", "ms"},
	{"tail.learn_p99_ms", "ms"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.queue_wait_p99_us", "us"},
	{"bench.trace_overhead_share", "ratio"},
	{"share.handler", "ratio"},
	{"share.simgpt", "ratio"},
	{"share.prompt", "ratio"},
	{"share.fasttext", "ratio"},
	{"share.vectordb", "ratio"},
	{"share.core", "ratio"},
	{"share.feedback", "ratio"},
	{"share.wal", "ratio"},
}

var workloads = map[string]func(*bench) error{
	"oncall":   runOncall,
	"retrieve": runRetrieve,
}

// setupReps is how many times each run builds its deployment; setup_s is
// the median.
const setupReps = 2

// minTailOps is the fewest samples that leave ten beyond p99, so every
// latency phase can report its p99.
const minTailOps = 1010

func main() {
	workload := flag.String("workload", "", "oncall or retrieve")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measurement budget; op counts scale with it")
	trace := flag.Int("trace", 0, "1 runs the traced decomposition and prints per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{
		name: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir, start: time.Now(),
		e2e: map[string]float64{}, layer: map[string]float64{},
	}
	if b.trace {
		b.rec = newRecorder()
	}
	err = run(b)
	b.info("run took %.1f s", time.Since(b.start).Seconds())
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(b.emit())
}

// bench is one run of one workload.
type bench struct {
	name    string
	seed    int64
	seconds int
	trace   bool
	dir     string    // per-run scratch directory (WAL stores)
	start   time.Time // process start, for the diagnostic phase times
	rec     *recorder // nil when untraced

	attempted, failed int
	problems          []string
	e2e, layer        map[string]float64
}

// scaled scales an op count fixed for a 10-second budget to --seconds.
func (b *bench) scaled(n int) int { return max(1, n*b.seconds/10) }

// check records a failed correctness check.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// count adds ops to the attempted and failed totals.
func (b *bench) count(attempted, failed int) {
	b.attempted += attempted
	b.failed += failed
}

// info prints a diagnostic line; only the last stdout line is the result.
func (b *bench) info(format string, args ...any) {
	fmt.Printf("# "+b.name+": "+format+"\n", args...)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the result line and returns the exit code.
func (b *bench) emit() int {
	if b.attempted > 0 {
		b.e2e["success_share"] = float64(b.attempted-b.failed) / float64(b.attempted)
	}
	defs, vals := endToEnd, b.e2e
	if b.trace {
		defs, vals = perLayer, b.layer
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		b.check(ok, "metric %s not measured", d.name)
		b.check(!math.IsNaN(v) && !math.IsInf(v, 0), "metric %s is %v", d.name, v)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	b.check(b.attempted > 0, "no operations attempted")
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(b.problems) == 0, b.attempted, b.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if len(b.problems) > 0 {
		return 1
	}
	return 0
}

// deployment describes how a workload builds its serving system.
type deployment struct {
	fleet   *rca.Fleet
	cfg     rca.Config
	train   []*incident.Incident // FastText training corpus
	history []*incident.Incident // AddHistory input
	durable bool                 // fresh WAL directory per build; start the feedback loop
}

// setUp builds the deployment setupReps times and returns the last build
// with its embedding model. Each build is timed from NewSystem to
// ready-to-serve, starting after a forced GC with no other benchmark
// goroutine alive; directory creation stays outside the timer. The
// embedding is trained and attached exactly as System.TrainEmbedding does
// it, so the benchmark holds the model for the traced embed calls and the
// exact reference.
func (b *bench) setUp(d deployment) (*rca.System, *fasttext.Model, error) {
	var sys *rca.System
	var model *fasttext.Model
	b.info("inputs generated in %.1f s", time.Since(b.start).Seconds())
	var total, train, attach, ingest []float64
	for rep := 0; rep < setupReps; rep++ {
		if sys != nil {
			shutdown(sys)
			sys = nil
		}
		cfg := d.cfg
		if d.durable {
			dir, err := os.MkdirTemp(b.dir, "wal-")
			if err != nil {
				return nil, nil, err
			}
			cfg.WALDir = dir
		}
		runtime.GC()
		t0 := time.Now()
		s, err := rca.NewSystem(d.fleet, cfg)
		if err != nil {
			return nil, nil, err
		}
		texts := make([]string, len(d.train))
		for i, in := range d.train {
			texts[i] = in.DiagnosticText()
		}
		m, err := fasttext.TrainSkipgram(texts, rca.EmbeddingConfig{Seed: cfg.Seed})
		if err != nil {
			return nil, nil, err
		}
		t1 := time.Now()
		if _, err := s.Copilot().SetEmbedder(core.FastTextEmbedder{Model: m}); err != nil {
			return nil, nil, err
		}
		t2 := time.Now()
		if err := s.AddHistory(d.history); err != nil {
			return nil, nil, err
		}
		if d.durable {
			s.Feedback()
		}
		t3 := time.Now()
		sys, model = s, m
		total = append(total, t3.Sub(t0).Seconds())
		train = append(train, t1.Sub(t0).Seconds())
		attach = append(attach, t2.Sub(t1).Seconds())
		ingest = append(ingest, t3.Sub(t2).Seconds())
	}
	b.e2e["setup_s"] = median(total)
	b.layer["fasttext.train_s"] = median(train)
	b.layer["core.set_embedder_s"] = median(attach)
	b.layer["core.ingest_s"] = median(ingest)
	b.info("setup_s %v (builds %v), %.1f s into the run", median(total), total, time.Since(b.start).Seconds())
	return sys, model, nil
}

// shutdown stops a system's background work: the feedback loop's ingest
// worker, the micro-batcher and the durable store's housekeeping.
func shutdown(sys *rca.System) {
	if err := sys.Feedback().Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: feedback close:", err)
	}
	sys.Close()
}

// heapLive records heap_live_mb: the live heap after the run, with the
// system still referenced and its background work stopped.
func (b *bench) heapLive(sys *rca.System) {
	shutdown(sys)
	// Two collections also empty the sync.Pool victim caches.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.e2e["heap_live_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(sys)
}

// closedMetrics records throughput_per_s, cpu_ms_per_op and the runtime.*
// per-layer metrics of a closed-loop phase.
func (b *bench) closedMetrics(c closedPhase) {
	n := float64(c.ops)
	b.e2e["throughput_per_s"] = median(c.perSec)
	b.e2e["cpu_ms_per_op"] = median(c.cpuPerOp)
	b.layer["runtime.allocs_per_op"] = float64(c.mem.mallocs) / n
	b.layer["runtime.alloc_kb_per_op"] = float64(c.mem.bytes) / 1024 / n
	b.layer["runtime.gc_per_kop"] = float64(c.mem.gcs) * 1000 / n
}

// latencies records a latency phase's p50, the median over rounds of each
// round's p50, as an end-to-end metric, and its p99 over all rounds
// pooled, which needs at least minTailOps samples to leave minBeyond
// beyond it, as the per-layer metric "tail."+name99. The p99 is not an
// end-to-end metric: with about a thousand samples it is set by the ten
// slowest ops, and on a shared two-CPU machine its run-to-run spread is
// several times the largest bound a metric may have.
func (b *bench) latencies(what string, rounds [][]time.Duration, name50, name99 string) {
	var all []time.Duration
	var r50, r99 []float64
	for _, ds := range rounds {
		s := sortedIn(ds, time.Millisecond)
		r50 = append(r50, percentile(s, 0.5))
		r99 = append(r99, percentile(s, 0.99))
		all = append(all, ds...)
	}
	s := sortedIn(all, time.Millisecond)
	t := highestTail(s)
	b.check(t.P >= 0.99, "%s: %d samples give no p99 with %d beyond", what, len(s), minBeyond)
	b.e2e[name50], b.layer["tail."+name99] = median(r50), percentile(s, 0.99)
	b.info("%s ms: n=%d p50=%.4f p90=%.4f p99=%.4f; highest tail p%g=%.4f with %d beyond; per-round p50 %.3f p99 %.3f",
		what, t.N, percentile(s, 0.5), percentile(s, 0.9), percentile(s, 0.99), t.P*100, t.Value, t.Beyond, r50, r99)
}

// layerMetrics derives per-layer metrics from the traced spans: each named
// span's p50 self time, and each layer's share of the summed time of the
// workload's main ops, whose roots are named "op.<workload>". The
// workload's own ops have roots named "op.*". Spans under an "aux.*" root
// come from the auxiliary ops a traced run adds so that every layer is
// timed on every workload; a self-time metric uses them only when the
// workload's own ops never call that layer.
func (b *bench) layerMetrics() error {
	spans := b.rec.snapshot()
	self := selfTimes(spans)
	root := roots(spans)
	own, aux := map[string][]float64{}, map[string][]float64{}
	byLayer := map[string]time.Duration{}
	var opTotal time.Duration
	for i, s := range spans {
		if s.End < 0 {
			return fmt.Errorf("span %s of op %d never closed", s.Name, s.Op)
		}
		us := float64(self[i]) / float64(time.Microsecond)
		if !strings.HasPrefix(spans[root[i]].Name, "op.") {
			aux[s.Name] = append(aux[s.Name], us)
			continue
		}
		own[s.Name] = append(own[s.Name], us)
		if spans[root[i]].Name != "op."+b.name {
			continue
		}
		if s.Parent < 0 {
			opTotal += time.Duration(s.End - s.Start)
		} else {
			byLayer[layerOf(s.Name)] += self[i]
		}
	}
	for _, d := range perLayer {
		if _, set := b.layer[d.name]; set {
			continue
		}
		if name, ok := strings.CutSuffix(d.name, "_us"); ok {
			xs := own[name]
			if len(xs) == 0 {
				xs = aux[name]
			}
			b.check(len(xs) > 0, "no %s spans traced", name)
			b.layer[d.name] = median(xs)
		}
		if layer, ok := strings.CutPrefix(d.name, "share."); ok {
			b.layer[d.name] = float64(byLayer[layer]) / float64(max(opTotal, 1))
		}
	}
	for _, d := range perLayer {
		if _, ok := b.layer[d.name]; !ok {
			b.layer[d.name] = 0 // a count of work this workload never does
		}
	}
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", b.name, b.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return writeSpans(path, spans)
}
