package simgpt

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/tokenize"
)

// option is one parsed lettered demonstration from a Figure 9 prompt.
type option struct {
	letter   string
	body     string
	category string
}

// parsePredictionPrompt extracts the Input section and the lettered options
// from a Figure 9 prompt. An option starts on a line that begins with a
// capital letter, a colon and a space ("B: ..."); lines after it up to the
// next option continue its body.
func parsePredictionPrompt(prompt string) (input string, opts []option) {
	var inOptions bool
	var cur *option
	var inputLines []string
	var inInput bool
	for rest, more := prompt, true; more; {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		switch {
		case strings.HasPrefix(line, "Input:"):
			inInput = true
			inOptions = false
			inputLines = append(inputLines, strings.TrimPrefix(line, "Input:"))
			continue
		case strings.HasPrefix(line, "Options:"):
			inOptions = true
			inInput = false
			continue
		case strings.HasPrefix(line, "Context:"):
			inInput = false
			inOptions = false
			continue
		}
		if inOptions {
			if len(line) >= 3 && 'A' <= line[0] && line[0] <= 'Z' && line[1] == ':' && line[2] == ' ' {
				opts = append(opts, option{letter: line[:1], body: line[3:]})
				cur = &opts[len(opts)-1]
			} else if cur != nil {
				cur.body += " " + strings.TrimSpace(line)
			}
		} else if inInput {
			inputLines = append(inputLines, line)
		}
	}
	for i := range opts {
		if _, tail, ok := strings.Cut(opts[i].body, "category: "); ok {
			opts[i].category = strings.TrimSuffix(strings.TrimSpace(tail), ".")
		}
	}
	return strings.TrimSpace(strings.Join(inputLines, "\n")), opts
}

// selectOption implements the Figure 9 chain-of-thought behaviour: score
// every demonstration against the input with the model's internal text
// representation, pick the most likely same-root-cause incident, and
// explain; when no demonstration is convincing, answer option A ("Unseen
// incident") and coin a new category keyword, as the paper's Figure 11
// shows for the FullDisk incident.
func (c *Client) selectOption(prompt string, temperature float64) string {
	input, opts := parsePredictionPrompt(prompt)
	if len(opts) == 0 {
		return "Answer: A\nCategory: Unknown\nExplanation: no options were provided."
	}
	rng := c.rngFor(prompt)
	// Longer option lists dilute attention: scoring noise grows with the
	// number of demonstrations, which is why "more samples in the CoT
	// reasoning do not always incur an improvement" (§5.4 / Figure 12).
	noise := c.cap.noise * (0.4 + temperature) * (0.6 + 0.12*float64(len(opts)))

	scores := scoreOptions(input, opts)
	best, bestScore := -1, -1.0
	var unseenIdx int
	for i, o := range opts {
		if strings.HasPrefix(o.body, "Unseen incident") {
			unseenIdx = i
			continue
		}
		score := scores[i] + rng.NormFloat64()*noise
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 || bestScore < c.opts.UnseenThreshold {
		// Unseen: coin a category keyword from the input's own signals.
		keyword := SynthesizeCategory(input)
		return fmt.Sprintf("Answer: %s\nCategory: %s\nExplanation: %s",
			opts[unseenIdx].letter, keyword, c.explainUnseen(input, keyword))
	}
	chosen := opts[best]
	return fmt.Sprintf("Answer: %s\nCategory: %s\nExplanation: %s",
		chosen.letter, chosen.category, c.explainMatch(input, chosen))
}

// scoreOptions is the model's discriminative reading of a Figure 9 prompt:
// a weighted-cosine match between the input and every option where a
// token's weight combines its length (exception names and component
// identifiers are long) with its prompt-local rarity — vocabulary shared by
// every option (telemetry boilerplate) cannot discriminate between them and
// so carries almost no weight, mirroring how attention contrasts options.
//
// Tokens are interned once per call; every document is then a list of
// distinct token IDs in first-occurrence order, and each sum runs in that
// order, so the scores are bit-reproducible.
func scoreOptions(input string, opts []option) []float64 {
	var v vocab
	inputDoc := v.doc(input)
	optDocs := make([][]int32, len(opts))
	for i, o := range opts {
		if strings.HasPrefix(o.body, "Unseen incident") {
			continue
		}
		optDocs[i] = v.doc(o.body)
	}
	// w2[id] is the squared weight of token id.
	n := float64(v.ndoc)
	w2 := make([]float64, len(v.toks))
	for id, tk := range v.toks {
		idf := math.Log(1 + n/float64(tk.df))
		w := math.Sqrt(float64(tk.length)) * idf * idf
		// Instance details — counters, PIDs, machine names — are unique to
		// every incident but carry no root-cause signal; a competent reader
		// discounts them rather than treating them as rare evidence.
		if tk.digit {
			w *= 0.15
		}
		w2[id] = w * w
	}
	inInput := make([]bool, len(v.toks))
	var inSq float64
	for _, id := range inputDoc {
		inInput[id] = true
		inSq += w2[id]
	}
	inNorm := math.Sqrt(inSq)
	scores := make([]float64, len(opts))
	for i, doc := range optDocs {
		if doc == nil {
			continue
		}
		var dot, sq float64
		for _, id := range doc {
			sq += w2[id]
			if inInput[id] {
				dot += w2[id]
			}
		}
		d := inNorm * math.Sqrt(sq)
		if d > 0 {
			scores[i] = dot / d
		}
	}
	return scores
}

// vocab interns the scoring tokens (words of at least three bytes) of one
// scoreOptions call.
type vocab struct {
	ids  map[string]int32
	toks []tokenStats
	ndoc int32 // documents read so far
}

// tokenStats is what a token's weight depends on.
type tokenStats struct {
	df      int32 // documents containing the token
	lastDoc int32 // 1 + index of the last document that counted it
	length  int
	digit   bool
}

// doc returns the distinct scoring tokens of text in first-occurrence
// order, counting each once toward its document frequency. The result is
// non-nil even for a text without tokens.
func (v *vocab) doc(text string) []int32 {
	if v.ids == nil {
		v.ids = make(map[string]int32)
	}
	v.ndoc++
	out := []int32{}
	for w := range tokenize.Scan(text) {
		if len(w) < 3 {
			continue
		}
		id, ok := v.ids[string(w)]
		if !ok {
			id = int32(len(v.toks))
			v.ids[string(w)] = id
			v.toks = append(v.toks, tokenStats{length: len(w), digit: hasDigit(w)})
		}
		if tk := &v.toks[id]; tk.lastDoc != v.ndoc {
			tk.lastDoc = v.ndoc
			tk.df++
			out = append(out, id)
		}
	}
	return out
}

// explainMatch names the shared distinctive vocabulary that drove the
// selection — the reasoning chain the CoT prompt elicits.
func (c *Client) explainMatch(input string, chosen option) string {
	shared := sharedSignals(input, chosen.body, 4)
	if len(shared) == 0 {
		return fmt.Sprintf("the overall diagnostic pattern most closely matches the historical incident labelled %s.", chosen.category)
	}
	return fmt.Sprintf("both incidents exhibit %s, which points to the same underlying root cause category %s.",
		joinNaturally(shared), chosen.category)
}

// explainUnseen produces Figure-11-style reasoning for a coined category.
func (c *Client) explainUnseen(input, keyword string) string {
	signals := topSignals(input, 3)
	if len(signals) == 0 {
		return fmt.Sprintf("none of the historical incidents share this diagnostic pattern, suggesting a new category %q.", keyword)
	}
	return fmt.Sprintf("the prediction of %q was made based on the occurrence of %s, which no historical incident in the options exhibits; these signals point to a previously unseen root cause.",
		keyword, joinNaturally(signals))
}

// sharedSignals returns up to n distinctive tokens appearing in both texts.
func sharedSignals(a, b string, n int) []string {
	inB := make(map[string]bool)
	for w := range tokenize.Scan(b) {
		if !inB[string(w)] {
			inB[string(w)] = true
		}
	}
	seen := make(map[string]bool)
	var out []string
	for w := range tokenize.Scan(a) {
		if seen[string(w)] || !inB[string(w)] {
			continue
		}
		if len(w) >= 8 || signalWords[string(w)] || hasDigit(w) && len(w) >= 4 {
			s := string(w)
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		return out[i] < out[j]
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// topSignals returns the n most distinctive tokens of a text.
func topSignals(text string, n int) []string {
	seen := make(map[string]bool)
	var out []string
	for w := range tokenize.Scan(text) {
		if seen[string(w)] {
			continue
		}
		if len(w) >= 10 || signalWords[string(w)] {
			s := string(w)
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		return out[i] < out[j]
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

func joinNaturally(words []string) string {
	switch len(words) {
	case 0:
		return ""
	case 1:
		return words[0]
	case 2:
		return words[0] + " and " + words[1]
	default:
		return strings.Join(words[:len(words)-1], ", ") + ", and " + words[len(words)-1]
	}
}
