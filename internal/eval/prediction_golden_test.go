package eval

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/llm/simgpt"
)

// predictionGoldens pin, per small-corpus seed, a SHA-256 over every
// held-out incident's (ID, Predicted, Explanation, Summary) from the full
// RCACopilot (GPT-4) prediction path: summarize, embed, diverse
// retrieval, prompt build, option selection. The hashes were recorded
// before the prediction path's option scoring, token walk, diverse scan
// and summarizer were rewritten for speed; any change to what an incident
// is told must show up here. Seeds 1 and 13 reuse the small envs (and
// their trained FastText models) the other goldens in this package build.
var predictionGoldens = map[int64]string{
	1:  "eedb8716acaf3754849b9f4bb36f00e71d74e9ce45eadb321eaa12a52d655c49",
	13: "a55eaac9ccb74c22840af2e244e6d58ea16d817d265e27d55d9a228bc560e535",
}

func TestPredictionGolden(t *testing.T) {
	skipHeavyGolden(t, "full prediction pass over two small-corpus held-out sets")
	for _, seed := range []int64{1, 13} {
		e := smallEnv(t, seed, 0)
		ft, _, err := e.FastText()
		if err != nil {
			t.Fatal(err)
		}
		// A fresh, uncached client: every summary and prediction runs
		// through simgpt rather than the shared response cache.
		cfg := e.Config
		cfg.Chat = simgpt.MustNew(simgpt.GPT4, simgpt.Options{Seed: e.Seed})
		cop, err := core.New(e.Corpus.Fleet, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cop.SetEmbedder(core.FastTextEmbedder{Model: ft})
		if err := learnHistory(e, cop); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, in := range e.Test {
			probe := in.Clone()
			probe.Summary, probe.Predicted = "", ""
			res, err := cop.Predict(probe)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []string{probe.ID, string(res.Category), res.Explanation, probe.Summary} {
				h.Write([]byte(s))
				h.Write([]byte{0})
			}
		}
		cop.Close()
		if got := hex.EncodeToString(h.Sum(nil)); got != predictionGoldens[seed] {
			t.Errorf("seed %d: prediction hash over %d held-out incidents = %s, want %s",
				seed, len(e.Test), got, predictionGoldens[seed])
		}
	}
}
