package eval

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/boost"
	"repro/internal/core"
	"repro/internal/embed/fasttext"
	"repro/internal/features"
	"repro/internal/incident"
	"repro/internal/llm"
	"repro/internal/llm/simgpt"
	"repro/internal/parallel"
	"repro/internal/prompt"
)

// chatCaches shares one llm.Cached wrapper per (model, seed) across every
// RunPipeline call in the process. The simulated GPT derives its output from
// seed ^ hash(prompt) alone, so a cached response is bit-identical to a
// fresh one (ModelLatency included — metered inference cost is unchanged);
// sharing the cache just stops Table-2/3/Fig-12 cells from re-summarizing
// the same training incidents over and over. Memory stays bounded on both
// axes: once maxChatCaches distinct (model, seed) pairs accumulate — more
// than any one experiment batch uses — the map resets wholesale, and an
// individual cache that outgrows maxChatCacheEntries (many distinct corpora
// funnelling prompts into one seed) is dropped and rebuilt empty.
var (
	chatCacheMu sync.Mutex
	chatCaches  = make(map[string]*llm.Cached)
)

const (
	maxChatCaches       = 16
	maxChatCacheEntries = 50_000 // ≈ a few dozen full-corpus pipeline runs
)

// sharedChat returns the process-wide cached chat client for (model, seed).
func sharedChat(model string, seed int64) (*llm.Cached, error) {
	key := fmt.Sprintf("%s|%d", model, seed)
	chatCacheMu.Lock()
	if c, ok := chatCaches[key]; ok {
		if c.Len() < maxChatCacheEntries {
			chatCacheMu.Unlock()
			return c, nil
		}
		delete(chatCaches, key) // oversized: rebuild empty below
	}
	chatCacheMu.Unlock()

	base, err := simgpt.New(model, simgpt.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	fresh := llm.NewCached(base)

	chatCacheMu.Lock()
	defer chatCacheMu.Unlock()
	if c, ok := chatCaches[key]; ok { // lost the construction race
		return c, nil
	}
	if len(chatCaches) >= maxChatCaches {
		chatCaches = make(map[string]*llm.Cached)
	}
	chatCaches[key] = fresh
	return fresh, nil
}

// Every Run* method fans its per-test-incident loop out on the shared
// worker pool (internal/parallel), bounded by Env.Workers. Predictions and
// modelled latencies land in index-addressed slices and the simulated
// models are order-independent, so any worker count reproduces the
// sequential results exactly; only wall-clock time changes.

// MethodResult is one Table-2 row.
type MethodResult struct {
	Method string
	Scores F1Scores
	// Train is the training cost: wall clock for local models, modelled
	// API latency for LLM jobs (flagged by ModelledTrain).
	Train         time.Duration
	ModelledTrain bool
	// Infer is the mean per-incident inference cost; LLM latency is
	// modelled, local compute is wall clock.
	Infer         time.Duration
	ModelledInfer bool
}

// RunFastTextBaseline trains the supervised FastText classifier directly on
// raw diagnostic text, the paper's first baseline.
func RunFastTextBaseline(e *Env) (MethodResult, error) {
	start := time.Now()
	clf, err := fasttext.TrainSupervised(e.TrainTexts(), e.TrainLabels(), fasttext.Config{Seed: e.Seed})
	if err != nil {
		return MethodResult{}, err
	}
	trainTime := time.Since(start)

	preds := make([]incident.Category, len(e.Test))
	lats := make([]time.Duration, len(e.Test))
	_ = parallel.ForEach(len(e.Test), e.Workers, func(i int) error {
		start := time.Now()
		label, _ := clf.Predict(e.Test[i].DiagnosticText())
		lats[i] = time.Since(start)
		preds[i] = incident.Category(label)
		return nil
	})
	// Per-item timing, not loop wall time: under the worker pool the loop's
	// elapsed time shrinks with the worker count, but the per-incident
	// inference cost column must not depend on -workers.
	infer := sumDurations(lats) / time.Duration(len(e.Test))
	return MethodResult{
		Method: "FastText",
		Scores: Score(NormalizeAll(preds), e.TestGold()),
		Train:  trainTime,
		Infer:  infer,
	}, nil
}

// RunXGBoostBaseline trains gradient-boosted trees on TF-IDF features, the
// paper's second baseline.
func RunXGBoostBaseline(e *Env) (MethodResult, error) {
	start := time.Now()
	vec, err := features.FitTFIDF(e.TrainTexts(), 200)
	if err != nil {
		return MethodResult{}, err
	}
	clf, err := boost.Train(vec.TransformAll(e.TrainTexts()), e.TrainLabels(), boost.Config{
		Rounds: 15, MaxDepth: 3,
	})
	if err != nil {
		return MethodResult{}, err
	}
	trainTime := time.Since(start)

	preds := make([]incident.Category, len(e.Test))
	lats := make([]time.Duration, len(e.Test))
	_ = parallel.ForEach(len(e.Test), e.Workers, func(i int) error {
		start := time.Now()
		label, _ := clf.Predict(vec.Transform(e.Test[i].DiagnosticText()))
		lats[i] = time.Since(start)
		preds[i] = incident.Category(label)
		return nil
	})
	infer := sumDurations(lats) / time.Duration(len(e.Test))
	return MethodResult{
		Method: "XGBoost",
		Scores: Score(NormalizeAll(preds), e.TestGold()),
		Train:  trainTime,
		Infer:  infer,
	}, nil
}

// RunFineTuneGPT fine-tunes the (simulated) GPT-3.5 on training incidents
// and classifies test incidents directly from raw diagnostics with
// temperature 0 — the Ahmed et al. baseline of Table 2.
func RunFineTuneGPT(e *Env) (MethodResult, error) {
	base := simgpt.MustNew(simgpt.GPT35, simgpt.Options{Seed: e.Seed})
	budget := base.ContextWindow() - 512
	examples := make([]llm.Example, len(e.Train))
	for i, in := range e.Train {
		examples[i] = llm.Example{
			Input: prompt.TrimToTokens(in.DiagnosticText(), budget, base.CountTokens),
			Label: string(in.Category),
		}
	}
	tuned, trainCost, err := base.FineTune(examples)
	if err != nil {
		return MethodResult{}, err
	}
	preds := make([]incident.Category, len(e.Test))
	lats := make([]time.Duration, len(e.Test))
	err = parallel.ForEach(len(e.Test), e.Workers, func(i int) error {
		text := prompt.TrimToTokens(e.Test[i].DiagnosticText(), budget, base.CountTokens)
		resp, err := tuned.Complete(withTemperature(prompt.Classify(text), 0))
		if err != nil {
			return err
		}
		lats[i] = resp.ModelLatency
		cat, err := prompt.ParseClassification(resp.Content)
		if err != nil {
			return err
		}
		preds[i] = cat
		return nil
	})
	if err != nil {
		return MethodResult{}, err
	}
	return MethodResult{
		Method:        "Fine-tune GPT",
		Scores:        Score(NormalizeAll(preds), e.TestGold()),
		Train:         trainCost,
		ModelledTrain: true,
		Infer:         sumDurations(lats) / time.Duration(len(e.Test)),
		ModelledInfer: true,
	}, nil
}

// sumDurations totals per-incident modelled latencies; addition commutes,
// so the total is identical however the loop was scheduled.
func sumDurations(ds []time.Duration) time.Duration {
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total
}

// RunGPTPrompt is the "GPT-4 Prompt" variant: summarize the incident, then
// ask the model for the category directly with no historical
// demonstrations in the prompt.
func RunGPTPrompt(e *Env) (MethodResult, error) {
	chat := simgpt.MustNew(simgpt.GPT4, simgpt.Options{Seed: e.Seed})
	preds := make([]incident.Category, len(e.Test))
	lats := make([]time.Duration, len(e.Test))
	budget := chat.ContextWindow() - 768
	err := parallel.ForEach(len(e.Test), e.Workers, func(i int) error {
		diag := prompt.TrimToTokens(e.Test[i].DiagnosticText(), budget, chat.CountTokens)
		sum, err := chat.Complete(prompt.Summary(diag))
		if err != nil {
			return err
		}
		lats[i] = sum.ModelLatency
		resp, err := chat.Complete(prompt.Classify(sum.Content))
		if err != nil {
			return err
		}
		lats[i] += resp.ModelLatency
		cat, err := prompt.ParseClassification(resp.Content)
		if err != nil {
			return err
		}
		preds[i] = cat
		return nil
	})
	if err != nil {
		return MethodResult{}, err
	}
	return MethodResult{
		Method:        "GPT-4 Prompt",
		Scores:        Score(NormalizeAll(preds), e.TestGold()),
		Infer:         sumDurations(lats) / time.Duration(len(e.Test)),
		ModelledInfer: true,
	}, nil
}

// PipelineOptions configure a full RCACopilot pipeline run.
type PipelineOptions struct {
	Model   string // simgpt model name
	K       int
	Alpha   float64
	Context core.ContextSources
	// GPTEmbedding swaps FastText for the LLM embedding (GPT-4 Embed.).
	GPTEmbedding bool
	// LLMSeed overrides the chat-model seed (stability rounds); defaults
	// to the env seed.
	LLMSeed int64
}

// PipelineRun holds a full pipeline evaluation.
type PipelineRun struct {
	Result MethodResult
	Preds  []incident.Category
	// UnseenAnswered counts test incidents answered "Unseen incident".
	UnseenAnswered int
}

// RunPipeline evaluates the full RCACopilot pipeline under the options:
// train (or reuse) the embedder, ingest the training history, then collect
// summaries and predictions for every test incident. The chat client is a
// process-shared response cache keyed by (model, seed), so repeated cells of
// an experiment grid reuse each other's deterministic completions.
func RunPipeline(e *Env, opts PipelineOptions) (*PipelineRun, error) {
	if opts.Model == "" {
		opts.Model = simgpt.GPT4
	}
	seed := opts.LLMSeed
	if seed == 0 {
		seed = e.Seed
	}
	chat, err := sharedChat(opts.Model, seed)
	if err != nil {
		return nil, err
	}
	cfg := e.Config
	cfg.Chat, cfg.K, cfg.Alpha, cfg.Context = chat, opts.K, opts.Alpha, opts.Context
	cop, err := core.New(e.Corpus.Fleet, cfg)
	if err != nil {
		return nil, err
	}
	defer cop.Close()

	var trainTime time.Duration
	modelledTrain := false
	if opts.GPTEmbedding {
		cop.SetEmbedder(core.LLMEmbedder{Client: chat, EmbedDim: 64})
		// Model the API cost of embedding the training corpus, which is
		// what the paper's 1925 s "Train" cell for GPT-4 Embed. measures.
		for _, in := range e.Train {
			trainTime += 200*time.Millisecond +
				time.Duration(chat.CountTokens(in.DiagnosticText()))*1500*time.Microsecond
		}
		modelledTrain = true
	} else {
		ft, ftTime, err := e.FastText()
		if err != nil {
			return nil, err
		}
		cop.SetEmbedder(core.FastTextEmbedder{Model: ft})
		trainTime = ftTime
	}

	if err := learnHistory(e, cop); err != nil {
		return nil, fmt.Errorf("eval: learn history: %w", err)
	}

	preds := make([]incident.Category, len(e.Test))
	unseens := make([]bool, len(e.Test))
	meterBefore := cop.Meter().Total()
	err = parallel.ForEach(len(e.Test), e.Workers, func(i int) error {
		probe := e.Test[i].Clone()
		probe.Summary = ""
		probe.Predicted = ""
		res, err := cop.Predict(probe)
		if err != nil {
			return fmt.Errorf("eval: predict %s: %w", e.Test[i].ID, err)
		}
		preds[i] = res.Category
		unseens[i] = res.Unseen
		return nil
	})
	if err != nil {
		return nil, err
	}
	unseen := 0
	for _, u := range unseens {
		if u {
			unseen++
		}
	}
	infer := (cop.Meter().Total() - meterBefore) / time.Duration(len(e.Test))

	name := fmt.Sprintf("RCACopilot (%s)", modelShort(opts.Model))
	if opts.GPTEmbedding {
		name = "GPT-4 Embed."
	}
	return &PipelineRun{
		Result: MethodResult{
			Method:        name,
			Scores:        Score(NormalizeAll(preds), e.TestGold()),
			Train:         trainTime,
			ModelledTrain: modelledTrain,
			Infer:         infer,
			ModelledInfer: true,
		},
		Preds:          preds,
		UnseenAnswered: unseen,
	}, nil
}

func modelShort(model string) string {
	switch model {
	case simgpt.GPT4:
		return "GPT-4"
	case simgpt.GPT35:
		return "GPT-3.5"
	default:
		return model
	}
}

func withTemperature(req llm.Request, t float64) llm.Request {
	req.Temperature = t
	return req
}
