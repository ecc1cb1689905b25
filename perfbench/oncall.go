package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	rca "repro"
	"repro/internal/core"
	"repro/internal/embed/fasttext"
	"repro/internal/incident"
	"repro/internal/prompt"
	"repro/internal/vectordb"
)

// The oncall workload is the paper-scale on-call pipeline: the held-out
// quarter of the seed's year goes through System.HandleStream (collect,
// summarize, embed, retrieve, prompt, predict) against a history of the
// other three quarters. Op counts are whole passes over the held-out set,
// so accuracy repeats exactly for a seed.
const (
	oncallRate      = 100.0 // incidents/s, about a quarter of the closed-loop throughput on 2 CPUs
	oncallOpenOps   = 1148  // per 10 s of budget; at least minTailOps
	oncallClosedOps = 1640  // per 10 s of budget
)

func runOncall(b *bench) error {
	c, train, test, err := seedCorpus(b.seed)
	if err != nil {
		return err
	}
	passes := func(n int) int { return (n + len(test) - 1) / len(test) }
	openPasses := passes(max(minTailOps, b.scaled(oncallOpenOps)))
	closedPasses := passes(b.scaled(oncallClosedOps))
	warm := oncallOps(test, 1, "w")
	open := oncallOps(test, openPasses, "o")
	closed := oncallOps(test, closedPasses, "c")
	var traced []*incident.Incident
	if b.trace {
		traced = oncallOps(test, openPasses, "t")
	}
	extra, err := extraIncidents(b.seed, 1, learnOps)
	if err != nil {
		return err
	}
	reviews := verdicts(extra, "")

	// The corpus fleet is the one the history happened on; collection runs
	// on it at each incident's creation time.
	sys, model, err := b.setUp(deployment{fleet: c.Fleet, cfg: rca.Config{Seed: b.seed}, train: train, history: train})
	if err != nil {
		return err
	}
	preds := make([]incident.Category, len(test))
	judge := func(ops []*incident.Incident, errs []error) (right, failed int) {
		for i, in := range ops {
			k := i % len(test)
			if errs[i] != nil || in.Predicted == "" {
				failed++
				b.check(false, "incident %s: %v (prediction %q)", in.ID, errs[i], in.Predicted)
				continue
			}
			if preds[k] == "" {
				preds[k] = in.Predicted
			}
			b.check(in.Predicted == preds[k], "incident %s predicted %q, earlier passes %q", in.ID, in.Predicted, preds[k])
			if in.Predicted == test[k].Category {
				right++
			}
		}
		return right, failed
	}

	_, errs := streamRun(sys, warm, 0)
	judge(warm, errs)

	var times []opTimes
	var rounds [][]time.Duration
	openErrs := make([]error, 0, len(open))
	closedErrs := make([]error, 0, len(closed))
	var cp closedPhase
	for r := 0; r < measureRounds; r++ {
		lo, hi := slice(openPasses, r)
		t, errs := streamRun(sys, open[lo*len(test):hi*len(test)], oncallRate)
		times, openErrs = append(times, t...), append(openErrs, errs...)
		rounds = append(rounds, latenciesOf(t))
		lo, hi = slice(closedPasses, r)
		ops := closed[lo*len(test) : hi*len(test)]
		cp.measure(len(ops), func() { _, errs = streamRun(sys, ops, 0) })
		closedErrs = append(closedErrs, errs...)
	}
	b.latencies("incident", rounds, "latency_p50_ms", "latency_p99_ms")
	b.layer["bench.gen_lag_p99_ms"] = percentile(sortedIn(lagsOf(times), time.Millisecond), 0.99)
	untracedP50 := b.e2e["latency_p50_ms"]
	b.closedMetrics(cp)
	rightOpen, failedOpen := judge(open, openErrs)
	rightClosed, failedClosed := judge(closed, closedErrs)
	b.e2e["accuracy"] = float64(rightOpen+rightClosed) / float64(len(open)+len(closed))
	b.count(len(open)+len(closed), failedOpen+failedClosed)
	b.info("accuracy %d/%d", rightOpen+rightClosed, len(open)+len(closed))

	// Predict does not return its demonstrations, so recall re-issues each
	// held-out incident's query against the served store.
	ref, err := exactReference(sys.Copilot().Index(), train)
	if err != nil {
		return err
	}
	cfg := sys.Copilot().Config()
	emb := core.FastTextEmbedder{Model: model}
	var recall float64
	last := closed[len(closed)-len(test):]
	for _, in := range last {
		q, err := emb.Embed(embedText(in))
		if err != nil {
			return err
		}
		served, err := sys.Copilot().Index().TopKDiverse(q, in.CreatedAt, cfg.K, cfg.Alpha)
		if err != nil {
			return err
		}
		exact, err := ref.TopKDiverse(q, in.CreatedAt, cfg.K, cfg.Alpha)
		if err != nil {
			return err
		}
		recall += overlap(served, exact)
	}
	b.e2e["recall_at_5"] = recall / float64(len(last))

	if b.trace {
		if err := b.traceOncall(sys, model, traced, test, preds, untracedP50); err != nil {
			return err
		}
	}

	b.learnProbe(sys, reviews, nil)
	if b.trace {
		if err := b.traceAux(sys, model, test, verdicts(extra[:auxOps], "-a"), false, true); err != nil {
			return err
		}
	}
	b.heapLive(sys)
	return nil
}

// oncallOps re-IDs passes of the held-out incidents. Each keeps its alert
// and recorded evidence; summary and prediction are cleared.
func oncallOps(test []*incident.Incident, passes int, tag string) []*incident.Incident {
	ops := make([]*incident.Incident, 0, passes*len(test))
	for p := 0; p < passes; p++ {
		for _, in := range test {
			c := in.Clone()
			c.ID = fmt.Sprintf("%s-%s%d", in.ID, tag, p)
			c.Summary, c.Predicted, c.Explanation = "", "", ""
			ops = append(ops, c)
		}
	}
	return ops
}

// streamRun feeds ops into System.HandleStream at the given rate (back to
// back, so the stream's workers pull as they free up, when rate <= 0) and
// times each from its due time to its result.
func streamRun(sys *rca.System, ops []*incident.Incident, rate float64) ([]opTimes, []error) {
	index := make(map[*incident.Incident]int, len(ops))
	for i, in := range ops {
		index[in] = i
	}
	in := make(chan *incident.Incident)
	out := sys.HandleStream(context.Background(), in)
	done := make([]time.Time, len(ops))
	errs := make([]error, len(ops))
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for r := range out {
			i := index[r.Incident]
			done[i], errs[i] = time.Now(), r.Err
		}
	}()
	times := openLoop(wallClock{}, len(ops), rate, func(i int, _ time.Time) { in <- ops[i] })
	close(in)
	<-drained
	for i := range times {
		times[i].Done = done[i]
	}
	return times, errs
}

// embedText is the text Predict and Learn embed for an incident.
func embedText(in *incident.Incident) string {
	if t := in.DiagnosticText(); t != "" {
		return t
	}
	return in.Alert.Info()
}

// traceOncall replays the open-loop schedule with each incident run as the
// public layer calls HandleIncident makes, on the benchmark's own workers,
// and requires every decomposed prediction to match HandleIncident's.
func (b *bench) traceOncall(sys *rca.System, model *fasttext.Model, ops, test []*incident.Incident, preds []incident.Category, untracedP50 float64) error {
	emb := core.FastTextEmbedder{Model: model}
	stats := make([]oncallStats, len(ops))
	errs := make([]error, len(ops))
	times := poolOpen(runtime.NumCPU(), len(ops), oncallRate, func(i int) {
		root := b.rec.begin("op.oncall", i, -1)
		stats[i], errs[i] = b.tracedHandle(sys.Copilot(), emb, ops[i], i, root)
		b.rec.end(root)
	})

	// The reference: HandleIncident itself on a fresh copy of each incident.
	for k, in := range oncallOps(test, 1, "r") {
		if _, err := sys.HandleIncident(in); err != nil {
			return fmt.Errorf("reference HandleIncident %s: %w", in.ID, err)
		}
		b.check(in.Predicted == preds[k], "HandleIncident(%s) = %q, stream gave %q", in.ID, in.Predicted, preds[k])
	}
	for i, in := range ops {
		b.check(errs[i] == nil, "traced incident %s: %v", in.ID, errs[i])
		b.check(in.Predicted == preds[i%len(test)], "traced incident %s predicted %q, HandleIncident %q", in.ID, in.Predicted, preds[i%len(test)])
	}
	b.traceTimes(times, untracedP50)
	return b.oncallCounts(emb, stats, ops[:len(test)])
}

// oncallCounts records the per-op counts of decomposed incidents and the
// allocations of embedding incs, measured alone on one goroutine, unless
// the workload's own ops recorded them already.
func (b *bench) oncallCounts(emb core.FastTextEmbedder, stats []oncallStats, incs []*incident.Incident) error {
	if _, set := b.layer["fasttext.embed_allocs"]; set {
		return nil
	}
	var steps, evidence, tokens float64
	for _, st := range stats {
		steps += float64(st.steps)
		evidence += float64(st.evidence)
		tokens += float64(st.tokens)
	}
	n := float64(len(stats))
	b.layer["handler.steps_per_op"] = steps / n
	b.layer["handler.evidence_per_op"] = evidence / n
	b.layer["simgpt.prompt_tokens"] = tokens / n
	m0 := readMem()
	for _, in := range incs {
		if _, err := emb.Embed(embedText(in)); err != nil {
			return err
		}
	}
	b.layer["fasttext.embed_allocs"] = float64(readMem().mallocs-m0.mallocs) / float64(len(incs))
	return nil
}

// oncallStats counts one decomposed incident's collection and prompt.
type oncallStats struct{ steps, evidence, tokens int }

// tracedHandle runs HandleIncident on in as the public layer calls it
// makes, each in a span under root: Collect, Summarize, the FastText
// embedding, the store's TopKDiverse, the prompt build, the completion and
// the parse. It leaves the prediction on in.
func (b *bench) tracedHandle(cop *core.Copilot, emb core.FastTextEmbedder, in *incident.Incident, op, root int) (oncallStats, error) {
	var st oncallStats
	cfg := cop.Config()
	before := len(in.Evidence)
	s := b.rec.begin("handler.collect", op, root)
	rep, err := cop.Collect(in)
	b.rec.end(s)
	if err != nil {
		return st, err
	}
	st.steps, st.evidence = len(rep.Steps), len(in.Evidence)-before
	s = b.rec.begin("simgpt.summarize", op, root)
	err = cop.Summarize(in)
	b.rec.end(s)
	if err != nil {
		return st, err
	}
	s = b.rec.begin("fasttext.embed", op, root)
	q, err := emb.Embed(embedText(in))
	b.rec.end(s)
	if err != nil {
		return st, err
	}
	db := cop.Index()
	var hits []vectordb.Scored
	if db.Len() > 0 {
		s = b.rec.begin("vectordb.diverse", op, root)
		hits, err = db.TopKDiverse(q, in.CreatedAt, cfg.K, cfg.Alpha)
		b.rec.end(s)
		if err != nil {
			return st, err
		}
	}
	s = b.rec.begin("prompt.build", op, root)
	chat := cop.Chat()
	budget := (chat.ContextWindow() - cfg.PromptReserve) / max(1, len(hits))
	demos := make([]prompt.Demo, 0, len(hits))
	for _, h := range hits {
		demos = append(demos, prompt.Demo{
			Summary:  prompt.TrimToTokens(h.Entry.Summary, budget, chat.CountTokens),
			Category: h.Entry.Category,
		})
	}
	input := prompt.TrimToTokens(cop.ContextText(in), (chat.ContextWindow()-cfg.PromptReserve)/3, chat.CountTokens)
	req := prompt.Prediction(input, demos)
	b.rec.end(s)
	s = b.rec.begin("simgpt.complete", op, root)
	resp, err := chat.Complete(req)
	b.rec.end(s)
	if err != nil {
		return st, err
	}
	cop.Meter().Charge("llm-predict", resp.ModelLatency)
	st.tokens = resp.PromptTokens
	s = b.rec.begin("prompt.parse", op, root)
	res, err := prompt.ParsePrediction(resp.Content)
	b.rec.end(s)
	if err != nil {
		return st, err
	}
	in.Predicted, in.Explanation = res.Category, res.Explanation
	return st, nil
}

// traceTimes records the traced phase's queue wait and its latency overhead
// against the untraced open loop.
func (b *bench) traceTimes(times []opTimes, untracedP50 float64) {
	waits := make([]time.Duration, len(times))
	for i, t := range times {
		waits[i] = t.wait()
	}
	b.layer["bench.queue_wait_p99_us"] = percentile(sortedIn(waits, time.Microsecond), 0.99)
	tracedP50 := percentile(sortedIn(latenciesOf(times), time.Millisecond), 0.5)
	b.layer["bench.trace_overhead_share"] = (tracedP50 - untracedP50) / untracedP50
	b.info("traced p50 %.4f ms vs untraced %.4f ms", tracedP50, untracedP50)
}

func latenciesOf(times []opTimes) []time.Duration {
	out := make([]time.Duration, len(times))
	for i, t := range times {
		out[i] = t.latency()
	}
	return out
}

func lagsOf(times []opTimes) []time.Duration {
	out := make([]time.Duration, len(times))
	for i, t := range times {
		out[i] = t.lag()
	}
	return out
}

// exactReference copies the served store's entries for the given incidents
// into a flat exact store.
func exactReference(idx vectordb.Index, incs []*incident.Incident) (vectordb.Index, error) {
	ref := vectordb.NewIndex(idx.Dim(), vectordb.Options{Shards: 1})
	for _, in := range incs {
		e, ok := idx.Get(in.ID)
		if !ok {
			return nil, fmt.Errorf("served store lost %s", in.ID)
		}
		if err := ref.Add(e); err != nil {
			return nil, err
		}
	}
	if ref.Len() != idx.Len() {
		return nil, fmt.Errorf("served store holds %d entries, history %d", idx.Len(), ref.Len())
	}
	return ref, nil
}

// overlap is the share of exact hits the served result also returned.
func overlap(served, exact []vectordb.Scored) float64 {
	if len(exact) == 0 {
		return 1
	}
	ids := make(map[string]bool, len(served))
	for _, s := range served {
		ids[s.Entry.ID] = true
	}
	n := 0
	for _, e := range exact {
		if ids[e.Entry.ID] {
			n++
		}
	}
	return float64(n) / float64(len(exact))
}

func verdictOf(v verdict) rca.Verdict {
	if v.corrected != "" {
		return rca.VerdictCorrect
	}
	return rca.VerdictConfirm
}

// visibleTimeout bounds how long an acknowledged learn may stay unreadable.
const visibleTimeout = 30 * time.Second

// waitVisible polls until the store serves id.
func waitVisible(idx vectordb.Index, id string) error {
	deadline := time.Now().Add(visibleTimeout)
	for {
		if _, ok := idx.Get(id); ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not readable after %v", visibleTimeout)
		}
		runtime.Gosched()
	}
}
