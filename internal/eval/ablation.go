package eval

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/incident"
	"repro/internal/parallel"
	"repro/internal/prompt"
	"repro/internal/vectordb"
)

// Design-choice ablations beyond the paper's tables, covering the decisions
// DESIGN.md calls out: the category-diversity constraint on retrieval
// (§4.2.2 "we select the top K incidents from different categories"), and
// the embedding distance scale that balances semantic distance against
// temporal decay.

// AblationRow is one design-variant result.
type AblationRow struct {
	Variant string
	Scores  F1Scores
}

// RunDesignAblation evaluates the pipeline with individual design choices
// toggled, on the standard configuration (K=5, α=0.3, GPT-4).
func RunDesignAblation(e *Env) ([]AblationRow, error) {
	rows := []AblationRow{}

	baseline, err := RunPipeline(e, PipelineOptions{})
	if err != nil {
		return nil, fmt.Errorf("ablation baseline: %w", err)
	}
	rows = append(rows, AblationRow{Variant: "full system (diverse top-K, scale 24)", Scores: baseline.Result.Scores})

	noDiverse, err := runNoDiversity(e)
	if err != nil {
		return nil, fmt.Errorf("ablation no-diversity: %w", err)
	}
	rows = append(rows, AblationRow{Variant: "no category-diversity constraint", Scores: noDiverse})

	for _, scale := range []float64{6, 48} {
		s, err := runWithScale(e, scale)
		if err != nil {
			return nil, fmt.Errorf("ablation scale %.0f: %w", scale, err)
		}
		rows = append(rows, AblationRow{
			Variant: fmt.Sprintf("embedding scale %.0f", scale), Scores: s,
		})
	}
	return rows, nil
}

// runWithScale re-runs the pipeline with a different embedding scale.
func runWithScale(e *Env, scale float64) (F1Scores, error) {
	cfg := e.Config
	cfg.Seed = e.Seed
	cop, err := core.New(e.Corpus.Fleet, cfg)
	if err != nil {
		return F1Scores{}, err
	}
	defer cop.Close()
	ft, _, err := e.FastText()
	if err != nil {
		return F1Scores{}, err
	}
	cop.SetEmbedder(core.FastTextEmbedder{Model: ft, Scale: scale})
	return scoreCopilot(e, cop)
}

// runNoDiversity replicates the retrieval without the one-per-category
// constraint by querying TopK directly and deduplicating nothing: the
// demonstrations can all come from one dominant category, which is what the
// constraint exists to prevent.
func runNoDiversity(e *Env) (F1Scores, error) {
	cfg := e.Config
	cfg.Seed = e.Seed
	cop, err := core.New(e.Corpus.Fleet, cfg)
	if err != nil {
		return F1Scores{}, err
	}
	defer cop.Close()
	ft, _, err := e.FastText()
	if err != nil {
		return F1Scores{}, err
	}
	emb := core.FastTextEmbedder{Model: ft}
	cop.SetEmbedder(emb)
	if err := learnHistory(e, cop); err != nil {
		return F1Scores{}, err
	}
	// Drive prediction manually with non-diverse retrieval.
	preds := make([]string, len(e.Test))
	err = parallel.ForEach(len(e.Test), e.Workers, func(i int) error {
		probe := e.Test[i].Clone()
		probe.Summary = ""
		if err := cop.Summarize(probe); err != nil {
			return err
		}
		query, err := emb.Embed(probe.DiagnosticText())
		if err != nil {
			return err
		}
		hits, err := cop.Index().TopK(query, probe.CreatedAt, cop.Config().K, cop.Config().Alpha)
		if err != nil {
			return err
		}
		pred, err := predictWithDemos(cop, probe.Summary, hits)
		if err != nil {
			return err
		}
		preds[i] = pred
		return nil
	})
	if err != nil {
		return F1Scores{}, err
	}
	return scoreStrings(preds, e), nil
}

// learnHistory ingests the training split on the shared worker pool.
func learnHistory(e *Env, cop *core.Copilot) error {
	clones := make([]*incident.Incident, len(e.Train))
	for i, in := range e.Train {
		clones[i] = in.Clone()
	}
	return cop.LearnBatch(clones, e.Workers)
}

// scoreCopilot learns the training history and scores the test set via the
// standard Predict path, fanning out on the shared worker pool.
func scoreCopilot(e *Env, cop *core.Copilot) (F1Scores, error) {
	if err := learnHistory(e, cop); err != nil {
		return F1Scores{}, err
	}
	preds := make([]string, len(e.Test))
	err := parallel.ForEach(len(e.Test), e.Workers, func(i int) error {
		probe := e.Test[i].Clone()
		probe.Summary = ""
		res, err := cop.Predict(probe)
		if err != nil {
			return err
		}
		preds[i] = string(res.Category)
		return nil
	})
	if err != nil {
		return F1Scores{}, err
	}
	return scoreStrings(preds, e), nil
}

func scoreStrings(preds []string, e *Env) F1Scores {
	cats := make([]incident.Category, len(preds))
	for i, p := range preds {
		cats[i] = incident.Category(p)
	}
	return Score(NormalizeAll(cats), e.TestGold())
}

// FormatAblation renders the design-ablation table.
func FormatAblation(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-42s %8s %8s\n", "Variant", "Micro", "Macro")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-42s %8.3f %8.3f\n", r.Variant, r.Scores.Micro, r.Scores.Macro)
	}
	return b.String()
}

// predictWithDemos builds and parses a prediction with explicit
// demonstrations (used by the non-diverse variant).
func predictWithDemos(cop *core.Copilot, input string, hits []vectordb.Scored) (string, error) {
	demos := make([]prompt.Demo, 0, len(hits))
	for _, h := range hits {
		demos = append(demos, prompt.Demo{Summary: h.Entry.Summary, Category: h.Entry.Category})
	}
	resp, err := cop.Chat().Complete(prompt.Prediction(input, demos))
	if err != nil {
		return "", err
	}
	res, err := prompt.ParsePrediction(resp.Content)
	if err != nil {
		return "", err
	}
	return string(res.Category), nil
}
