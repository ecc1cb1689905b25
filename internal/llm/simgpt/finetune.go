package simgpt

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/llm"
	"repro/internal/tokenize"
)

// FineTune implements llm.FineTuner by fitting per-label centroids in the
// embedding space — the closed-form analogue of supervised tuning on a
// frozen representation. Only GPT-3.5 supports tuning, matching the paper
// ("GPT-4 is currently not available for fine-tuning").
//
// The returned cost models the paper's Table-2 training time (3192 s): a
// large fixed job cost plus a per-example term.
func (c *Client) FineTune(examples []llm.Example) (llm.Client, time.Duration, error) {
	if c.model != GPT35 {
		return nil, 0, fmt.Errorf("simgpt: %s is not available for fine-tuning", c.model)
	}
	if len(examples) == 0 {
		return nil, 0, fmt.Errorf("simgpt: no fine-tuning examples")
	}
	dim := c.cap.embedDim
	centroids := make(map[string][]float64)
	counts := make(map[string]int)
	for _, ex := range examples {
		v, err := c.Embed(ex.Input)
		if err != nil {
			return nil, 0, err
		}
		cv, ok := centroids[ex.Label]
		if !ok {
			cv = make([]float64, dim)
			centroids[ex.Label] = cv
		}
		for i := range cv {
			cv[i] += v[i]
		}
		counts[ex.Label]++
	}
	for label, cv := range centroids {
		n := float64(counts[label])
		for i := range cv {
			cv[i] /= n
		}
	}
	cost := 2500*time.Second + time.Duration(len(examples))*time.Second
	return &tunedClient{base: c, centroids: centroids}, cost, nil
}

// tunedClient is the fine-tuned endpoint: classification prompts answer
// with the nearest-centroid label; everything else defers to the base
// model.
type tunedClient struct {
	base      *Client
	centroids map[string][]float64
}

var _ llm.Client = (*tunedClient)(nil)

func (t *tunedClient) Name() string                      { return t.base.Name() + "-ft" }
func (t *tunedClient) ContextWindow() int                { return t.base.ContextWindow() }
func (t *tunedClient) CountTokens(s string) int          { return t.base.CountTokens(s) }
func (t *tunedClient) Embed(s string) ([]float64, error) { return t.base.Embed(s) }

func (t *tunedClient) Complete(req llm.Request) (llm.Response, error) {
	prompt := joinMessages(req.Messages)
	if !strings.Contains(prompt, "Classify the root cause category") {
		return t.base.Complete(req)
	}
	promptTokens, promptHash := tokenize.EstimateTokensHash(prompt)
	if promptTokens > t.base.cap.contextWindow {
		return llm.Response{}, fmt.Errorf("simgpt: prompt of %d tokens exceeds context window", promptTokens)
	}
	body := extractAfter(prompt, "Classify the root cause category")
	v, err := t.base.Embed(body)
	if err != nil {
		return llm.Response{}, err
	}
	// A generatively fine-tuned model does not argmax over a clean head: it
	// emits label strings with instability that grows with the label space
	// ("such models are prone to generate more hallucinated results", §1).
	// Seeded noise on the match scores models that.
	rng := t.base.rng(promptHash)
	noise := t.base.cap.noise * (0.6 + req.Temperature)
	bestLabel, bestSim := "", -1e9
	labels := make([]string, 0, len(t.centroids))
	for label := range t.centroids {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		sim := cosine(v, t.centroids[label]) + rng.NormFloat64()*noise
		if sim > bestSim {
			bestLabel, bestSim = label, sim
		}
	}
	out := "Category: " + bestLabel
	completionTokens := t.base.CountTokens(out)
	return llm.Response{
		Content:          out,
		PromptTokens:     promptTokens,
		CompletionTokens: completionTokens,
		ModelLatency:     t.base.latency(promptTokens + completionTokens),
	}, nil
}

// extractAfter returns the text following the first line that contains
// marker (the classification prompt places the incident text there).
func extractAfter(prompt, marker string) string {
	idx := strings.Index(prompt, marker)
	if idx < 0 {
		return prompt
	}
	rest := prompt[idx+len(marker):]
	if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
		rest = rest[nl+1:]
	}
	return strings.TrimSpace(rest)
}
