// Package tokenize provides the text tokenization used across RCACopilot:
// word-level tokenization for embedding models, and a byte-pair-encoding
// (BPE) subword tokenizer used to count tokens against LLM context budgets.
//
// The paper counts prompt tokens with OpenAI's tiktoken ("we employ the
// tiktoken tokenizer to count text tokens", §4.2.3) and bounds summaries to
// 120-140 words. tiktoken is a closed vocabulary; this package substitutes
// a BPE tokenizer whose merges are learned deterministically from a corpus,
// exposing the same operations the pipeline needs: Encode, Decode and Count.
package tokenize

import (
	"iter"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Words splits text into lowercase word tokens. Letters and digits are
// kept; every other rune is a separator. Runs of digits are preserved as
// single tokens so identifiers like "11001" survive.
func Words(text string) []string {
	var out []string
	for w := range Scan(text) {
		out = append(out, string(w))
	}
	return out
}

// Scan yields the words of text exactly as Words splits and lowercases
// them, without allocating a string per word: each word is yielded in a
// buffer the next iteration overwrites, so copy it to keep it.
func Scan(text string) iter.Seq[[]byte] {
	return func(yield func([]byte) bool) {
		var buf []byte
		for _, r := range text {
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				buf = utf8.AppendRune(buf, unicode.ToLower(r))
				continue
			}
			if len(buf) > 0 {
				if !yield(buf) {
					return
				}
				buf = buf[:0]
			}
		}
		if len(buf) > 0 {
			yield(buf)
		}
	}
}

// WordCount returns the number of word tokens in text.
func WordCount(text string) int {
	n := 0
	for range Scan(text) {
		n++
	}
	return n
}

// Sentences splits text into sentence-ish units on newlines and on terminal
// punctuation followed by whitespace, so dotted identifiers ("Transport.exe",
// "System.IO.IOException") and decimals ("0.85") stay intact. Used by the
// extractive summarizer.
func Sentences(text string) []string {
	rs := []rune(text)
	var out []string
	var cur strings.Builder
	flush := func() {
		s := strings.TrimSpace(cur.String())
		if s != "" {
			out = append(out, s)
		}
		cur.Reset()
	}
	for i, r := range rs {
		switch r {
		case '\n':
			flush()
		case '.', '!', '?':
			cur.WriteRune(r)
			if i+1 == len(rs) || rs[i+1] == ' ' || rs[i+1] == '\t' || rs[i+1] == '\n' {
				flush()
			}
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return out
}

// endOfWord marks a word-final subword unit inside the BPE vocabulary.
const endOfWord = "</w>"

// pair is an adjacent symbol pair considered for merging.
type pair struct{ a, b string }

// BPE is a byte-pair-encoding subword tokenizer. Merges are learned with
// Learn; the zero value encodes every word as its characters. BPE values
// are immutable after Learn and safe for concurrent use.
type BPE struct {
	ranks map[pair]int // merge priority; lower rank merges first
}

// NewBPE returns a tokenizer with no merges (pure character fallback).
func NewBPE() *BPE { return &BPE{ranks: map[pair]int{}} }

// Learn builds a merge table from the corpus. numMerges bounds the number
// of merge rules; learning stops early when no pair occurs twice. Learning
// is deterministic: frequency ties break lexicographically.
func Learn(corpus []string, numMerges int) *BPE {
	// Word frequency table.
	wordFreq := make(map[string]int)
	for _, doc := range corpus {
		for _, w := range Words(doc) {
			wordFreq[w]++
		}
	}
	// Represent each distinct word as its current symbol sequence.
	type entry struct {
		syms []string
		freq int
	}
	entries := make([]entry, 0, len(wordFreq))
	words := make([]string, 0, len(wordFreq))
	for w := range wordFreq {
		words = append(words, w)
	}
	sort.Strings(words)
	for _, w := range words {
		syms := splitChars(w)
		entries = append(entries, entry{syms: syms, freq: wordFreq[w]})
	}

	ranks := make(map[pair]int, numMerges)
	for merge := 0; merge < numMerges; merge++ {
		counts := make(map[pair]int)
		for _, e := range entries {
			for i := 0; i+1 < len(e.syms); i++ {
				counts[pair{e.syms[i], e.syms[i+1]}] += e.freq
			}
		}
		best, bestN := pair{}, 1 // require frequency >= 2
		for p, n := range counts {
			if n > bestN || (n == bestN && bestN > 1 && lessPair(p, best)) {
				best, bestN = p, n
			}
		}
		if bestN < 2 {
			break
		}
		ranks[best] = merge
		merged := best.a + best.b
		for i := range entries {
			entries[i].syms = applyMerge(entries[i].syms, best, merged)
		}
	}
	return &BPE{ranks: ranks}
}

func lessPair(p, q pair) bool {
	if p.a != q.a {
		return p.a < q.a
	}
	return p.b < q.b
}

func splitChars(w string) []string {
	rs := []rune(w)
	syms := make([]string, len(rs))
	for i, r := range rs {
		syms[i] = string(r)
	}
	if n := len(syms); n > 0 {
		syms[n-1] += endOfWord
	}
	return syms
}

func applyMerge(syms []string, p pair, merged string) []string {
	out := syms[:0]
	for i := 0; i < len(syms); i++ {
		if i+1 < len(syms) && syms[i] == p.a && syms[i+1] == p.b {
			out = append(out, merged)
			i++
		} else {
			out = append(out, syms[i])
		}
	}
	return out
}

// EncodeWord returns the subword tokens of a single (already normalized)
// word by applying learned merges in rank order.
func (b *BPE) EncodeWord(w string) []string {
	syms := splitChars(w)
	if len(syms) < 2 {
		return syms
	}
	for {
		bestIdx, bestRank := -1, int(^uint(0)>>1)
		for i := 0; i+1 < len(syms); i++ {
			if r, ok := b.ranks[pair{syms[i], syms[i+1]}]; ok && r < bestRank {
				bestIdx, bestRank = i, r
			}
		}
		if bestIdx < 0 {
			return syms
		}
		merged := syms[bestIdx] + syms[bestIdx+1]
		syms = append(syms[:bestIdx], append([]string{merged}, syms[bestIdx+2:]...)...)
		if len(syms) < 2 {
			return syms
		}
	}
}

// Encode tokenizes text into subword tokens.
func (b *BPE) Encode(text string) []string {
	var out []string
	for _, w := range Words(text) {
		out = append(out, b.EncodeWord(w)...)
	}
	return out
}

// Decode reconstructs the normalized text (lowercased words separated by
// single spaces) from subword tokens.
func (b *BPE) Decode(tokens []string) string {
	var sb strings.Builder
	for _, t := range tokens {
		if w, ok := strings.CutSuffix(t, endOfWord); ok {
			sb.WriteString(w)
			sb.WriteByte(' ')
		} else {
			sb.WriteString(t)
		}
	}
	return strings.TrimRight(sb.String(), " ")
}

// Count returns the number of subword tokens in text. This is the unit all
// LLM context budgeting in the pipeline uses.
func (b *BPE) Count(text string) int {
	n := 0
	for _, w := range Words(text) {
		n += len(b.EncodeWord(w))
	}
	return n
}

// NumMerges reports how many merge rules the tokenizer learned.
func (b *BPE) NumMerges() int { return len(b.ranks) }

// EstimateTokens approximates a subword token count without a learned
// vocabulary, using the ~1.3 tokens/word ratio typical of English prose.
// The pipeline uses it only before a corpus-trained BPE is available.
func EstimateTokens(text string) int {
	n := 0
	for w := range Scan(text) {
		n += 1 + len(w)/6
	}
	return n
}
