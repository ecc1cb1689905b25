package simgpt

import (
	"cmp"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/tokenize"
)

// Summary word budget from the Figure 7 prompt: "should be about 120 words,
// no more than 140 words".
const (
	summaryTargetWords = 120
	summaryMaxWords    = 140
)

// isSignalWord reports whether w is one of the markers that make a
// diagnostic sentence salient. A switch, not a map: it is asked for every
// word of every prompt.
func isSignalWord[T string | []byte](w T) bool {
	switch string(w) {
	case "error", "errors", "failed", "failure",
		"failures", "fail", "warning", "alert",
		"invalid", "suspicious", "crash", "crashed",
		"crashes", "full", "exceeded", "unreachable",
		"unable", "blocked", "hang", "hanging",
		"exhausted", "dropped", "stuck", "bogus",
		"malicious", "poisoned", "exploit":
		return true
	}
	return false
}

// summarize implements the Figure 7 behaviour: compress the diagnostic text
// above the instruction into 120-140 words, keeping the most informative
// sentences, "without outputting any unrelated information".
func (c *Client) summarize(prompt string, rng *rand.Rand, temperature float64) string {
	body, _, found := strings.Cut(prompt, "Please summarize the above input")
	if !found {
		body = prompt
	}
	type scored struct {
		idx   int
		text  string
		words int
		score float64
	}
	// Sentences are deduplicated by their token signature (words joined by
	// spaces) and capped per shape (the signature with numeric tokens
	// wildcarded), both built in reused buffers.
	sents := tokenize.Sentences(body)
	sentences := make([]scored, 0, len(sents))
	seen := make(map[string]bool, len(sents))
	shapeIdx := make(map[string]int, len(sents))
	var shapeCount []int
	var sig, shape []byte
	for i, s := range sents {
		sig, shape = sig[:0], shape[:0]
		n := 0
		var sc float64
		for w := range tokenize.Scan(s) {
			if n > 0 {
				sig = append(sig, ' ')
				shape = append(shape, ' ')
			}
			n++
			sig = append(sig, w...)
			digit := hasDigit(w)
			if digit {
				shape = append(shape, '#')
			} else {
				shape = append(shape, w...)
			}
			switch {
			case isSignalWord(w):
				sc += 3
			case digit:
				sc += 1.5
			case len(w) >= 10: // exception names, component identifiers
				sc += 2
			case len(w) >= 6:
				sc += 0.5
			}
		}
		if n == 0 {
			continue
		}
		// Deduplicate repeated table rows / probe lines by token signature.
		if seen[string(sig)] {
			continue
		}
		seen[string(sig)] = true
		// Near-duplicate rows (same shape, different numbers/machines) add
		// nothing after the second instance: a human summarizer writes
		// "crashes across many machines", not thirteen crash rows, so
		// "08:10 MB09 crashed" and "09:12 HB04 crashed" count together.
		j, ok := shapeIdx[string(shape)]
		if !ok {
			j = len(shapeCount)
			shapeIdx[string(shape)] = j
			shapeCount = append(shapeCount, 0)
		}
		shapeCount[j]++
		if shapeCount[j] > 2 {
			continue
		}
		// Table separators, evidence headers, and healthy-probe chatter
		// carry nothing a root-cause summary needs.
		if strings.Contains(s, "---") || strings.HasPrefix(s, "Id Level") ||
			strings.HasPrefix(s, "[") {
			sc = 0
		}
		if strings.Contains(s, "success") && sc < 12 {
			sc *= 0.1
		}
		// Per-machine stat rows are inventory, not diagnosis; the WARNING
		// lines the telemetry emits alongside them carry the signal.
		if (strings.Contains(s, "Submission=") || strings.Contains(s, "Delivery=")) &&
			!strings.Contains(s, "WARNING") {
			sc *= 0.05
		}
		sentences = append(sentences, scored{idx: i, text: s, words: n, score: sc / float64(n)})
	}
	if len(sentences) == 0 {
		return "No diagnostic information was provided."
	}
	// Rank by salience density, then restore document order among picks.
	slices.SortStableFunc(sentences, func(a, b scored) int { return cmp.Compare(b.score, a.score) })

	dropP := (1 - c.cap.summaryFidelity) * (1 + temperature)
	var picks []scored
	words := 0
	for _, s := range sentences {
		if words >= summaryTargetWords {
			break
		}
		if words+s.words > summaryMaxWords {
			continue
		}
		// An imperfect model occasionally skips a salient sentence.
		if rng.Float64() < dropP {
			continue
		}
		picks = append(picks, s)
		words += s.words
	}
	if len(picks) == 0 {
		picks = sentences[:1]
	}
	slices.SortFunc(picks, func(a, b scored) int { return a.idx - b.idx })

	var b strings.Builder
	for i, s := range picks {
		if i > 0 {
			b.WriteString(" ")
		}
		t := strings.TrimSpace(s.text)
		b.WriteString(t)
		if !strings.HasSuffix(t, ".") && !strings.HasSuffix(t, "!") && !strings.HasSuffix(t, "?") {
			b.WriteString(".")
		}
	}
	return b.String()
}

// hasDigit reports whether w contains an ASCII digit.
func hasDigit[T string | []byte](w T) bool {
	for i := 0; i < len(w); i++ {
		if '0' <= w[i] && w[i] <= '9' {
			return true
		}
	}
	return false
}
