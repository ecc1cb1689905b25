package simgpt

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
func (c *Client) selectOption(prompt string, rng *rand.Rand, temperature float64) string {
	input, opts := parsePredictionPrompt(prompt)
	if len(opts) == 0 {
		return "Answer: A\nCategory: Unknown\nExplanation: no options were provided."
	}
	// Longer option lists dilute attention: scoring noise grows with the
	// number of demonstrations, which is why "more samples in the CoT
	// reasoning do not always incur an improvement" (§5.4 / Figure 12).
	noise := c.cap.noise * (0.4 + temperature) * (0.6 + 0.12*float64(len(opts)))

	r := readOptions(input, opts)
	scores := r.scores()
	best, bestScore := -1, -1.0
	var unseenIdx int
	for i := range opts {
		if r.opts[i] == nil {
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
			opts[unseenIdx].letter, keyword, explainUnseen(r.inputSignals(3), keyword))
	}
	chosen := opts[best]
	return fmt.Sprintf("Answer: %s\nCategory: %s\nExplanation: %s",
		chosen.letter, chosen.category, explainMatch(r.shared(best, 4), chosen.category))
}

// reading is the model's one tokenization of a Figure 9 prompt: the
// scoring tokens (words of at least three bytes) of the input and of every
// option, interned once. Option scoring and the explanation both read it.
type reading struct {
	index  map[string]int32
	toks   []tokenStats
	input  []int32   // the input's distinct token IDs, first occurrence first
	opts   [][]int32 // each option's, nil for "Unseen incident"
	ndoc   int32     // documents read: the input and every scored option
	docIDs []int32   // backing store of input and opts
}

// tokenStats is what a token's weight depends on.
type tokenStats struct {
	text    string
	df      int32 // documents containing the token
	lastDoc int32 // 1 + index of the last document that counted it
	digit   bool
}

// readOptions tokenizes the input and every option except "Unseen
// incident".
func readOptions(input string, opts []option) *reading {
	// A prediction prompt holds about one distinct scoring token per 28
	// bytes and one per-document token per 16; sizing for one per 16
	// spares the map and slices their regrowth.
	size := len(input)
	for _, o := range opts {
		size += len(o.body)
	}
	size /= 16
	r := &reading{
		index:  make(map[string]int32, size),
		toks:   make([]tokenStats, 0, size),
		opts:   make([][]int32, len(opts)),
		docIDs: make([]int32, 0, size),
	}
	r.input = r.doc(input)
	for i, o := range opts {
		if !strings.HasPrefix(o.body, "Unseen incident") {
			r.opts[i] = r.doc(o.body)
		}
	}
	return r
}

// doc returns the distinct scoring tokens of text in first-occurrence
// order, counting each once toward its document frequency. The result is
// non-nil even for a text without tokens.
func (r *reading) doc(text string) []int32 {
	r.ndoc++
	start := len(r.docIDs)
	for w := range tokenize.Scan(text) {
		if len(w) < 3 {
			continue
		}
		id, ok := r.index[string(w)]
		if !ok {
			id = int32(len(r.toks))
			t := string(w)
			r.index[t] = id
			r.toks = append(r.toks, tokenStats{text: t, digit: hasDigit(w)})
		}
		if tk := &r.toks[id]; tk.lastDoc != r.ndoc {
			tk.lastDoc = r.ndoc
			tk.df++
			r.docIDs = append(r.docIDs, id)
		}
	}
	return r.docIDs[start:len(r.docIDs):len(r.docIDs)]
}

// scores is the model's discriminative reading of the prompt: a
// weighted-cosine match between the input and every option where a token's
// weight combines its length (exception names and component identifiers
// are long) with its prompt-local rarity — vocabulary shared by every
// option (telemetry boilerplate) cannot discriminate between them and so
// carries almost no weight, mirroring how attention contrasts options.
//
// Every sum runs over a document's token IDs in first-occurrence order, so
// the scores are bit-reproducible.
func (r *reading) scores() []float64 {
	// w2[id] is the squared weight of token id.
	n := float64(r.ndoc)
	w2 := make([]float64, len(r.toks))
	for id, tk := range r.toks {
		idf := math.Log(1 + n/float64(tk.df))
		w := math.Sqrt(float64(len(tk.text))) * idf * idf
		// Instance details — counters, PIDs, machine names — are unique to
		// every incident but carry no root-cause signal; a competent reader
		// discounts them rather than treating them as rare evidence.
		if tk.digit {
			w *= 0.15
		}
		w2[id] = w * w
	}
	inInput := make([]bool, len(r.toks))
	var inSq float64
	for _, id := range r.input {
		inInput[id] = true
		inSq += w2[id]
	}
	inNorm := math.Sqrt(inSq)
	scores := make([]float64, len(r.opts))
	for i, doc := range r.opts {
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

// shared returns up to n distinctive tokens appearing in both the input
// and option i, longest first, ties in byte order.
func (r *reading) shared(i, n int) []string {
	inOpt := make([]bool, len(r.toks))
	for _, id := range r.opts[i] {
		inOpt[id] = true
	}
	var out []string
	for _, id := range r.input {
		w := r.toks[id].text
		if inOpt[id] && (len(w) >= 8 || isSignalWord(w) || r.toks[id].digit && len(w) >= 4) {
			out = append(out, w)
		}
	}
	return longestFirst(out, n)
}

// inputSignals is topSignals(input, n) read from the input's tokens.
func (r *reading) inputSignals(n int) []string {
	var out []string
	for _, id := range r.input {
		if w := r.toks[id].text; len(w) >= 10 || isSignalWord(w) {
			out = append(out, w)
		}
	}
	return longestFirst(out, n)
}

// explainMatch names the shared distinctive vocabulary that drove the
// selection — the reasoning chain the CoT prompt elicits.
func explainMatch(shared []string, category string) string {
	if len(shared) == 0 {
		return fmt.Sprintf("the overall diagnostic pattern most closely matches the historical incident labelled %s.", category)
	}
	return fmt.Sprintf("both incidents exhibit %s, which points to the same underlying root cause category %s.",
		joinNaturally(shared), category)
}

// explainUnseen produces Figure-11-style reasoning for a coined category
// from the input's most distinctive signals.
func explainUnseen(signals []string, keyword string) string {
	if len(signals) == 0 {
		return fmt.Sprintf("none of the historical incidents share this diagnostic pattern, suggesting a new category %q.", keyword)
	}
	return fmt.Sprintf("the prediction of %q was made based on the occurrence of %s, which no historical incident in the options exhibits; these signals point to a previously unseen root cause.",
		keyword, joinNaturally(signals))
}

// topSignals returns the n most distinctive tokens of a text.
func topSignals(text string, n int) []string {
	seen := make(map[string]bool)
	var out []string
	for w := range tokenize.Scan(text) {
		if seen[string(w)] {
			continue
		}
		if len(w) >= 10 || isSignalWord(w) {
			s := string(w)
			seen[s] = true
			out = append(out, s)
		}
	}
	return longestFirst(out, n)
}

// longestFirst sorts distinct words longest first, ties in byte order, and
// keeps the first n.
func longestFirst(words []string, n int) []string {
	slices.SortFunc(words, func(a, b string) int {
		if len(a) != len(b) {
			return len(b) - len(a)
		}
		return strings.Compare(a, b)
	})
	if len(words) > n {
		words = words[:n]
	}
	return words
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
