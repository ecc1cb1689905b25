package main

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/incident"
)

// seedCorpus generates the paper-scale year for the seed and its 75/25
// train/held-out split.
func seedCorpus(seed int64) (*dataset.Corpus, []*incident.Incident, []*incident.Incident, error) {
	c, err := dataset.Generate(dataset.DefaultSpec(seed))
	if err != nil {
		return nil, nil, nil, err
	}
	train, test := c.Split(0.75, seed)
	return c, train, test, nil
}

// extraIncidents generates the corpora of seeds seed+first ... until it has
// n incidents, rewriting IDs so they stay unique across corpora.
func extraIncidents(seed int64, first, n int) ([]*incident.Incident, error) {
	var out []*incident.Incident
	for k := first; len(out) < n; k++ {
		c, err := dataset.Generate(dataset.DefaultSpec(seed + int64(k)))
		if err != nil {
			return nil, err
		}
		for _, in := range c.Incidents {
			in.ID = fmt.Sprintf("X%d-%s", k, in.ID)
		}
		out = append(out, c.Incidents...)
	}
	return out[:n], nil
}

// verdict is one OCE review to submit through the feedback loop.
type verdict struct {
	inc       *incident.Incident // carries a prediction to review
	corrected incident.Category  // set for a correct verdict
}

// verdicts turns labelled incidents into reviews: every other one confirms
// a right prediction, the rest correct a wrong one, so both learn paths
// run and every learned entry carries its gold label.
func verdicts(incs []*incident.Incident, tag string) []verdict {
	out := make([]verdict, len(incs))
	for i, in := range incs {
		c := in.Clone()
		c.ID += tag
		c.Summary, c.Explanation = "", ""
		c.Predicted = in.Category
		if i%2 == 1 {
			c.Predicted = incs[i-1].Category
			out[i].corrected = in.Category
			if c.Predicted == in.Category {
				c.Predicted = "Unknown"
			}
		}
		out[i].inc = c
	}
	return out
}
