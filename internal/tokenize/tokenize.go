// Package tokenize provides the text tokenization used across RCACopilot:
// word-level tokenization for embedding models and the summarizer, and a
// subword token estimate used to count tokens against LLM context budgets.
//
// The paper counts prompt tokens with OpenAI's tiktoken ("we employ the
// tiktoken tokenizer to count text tokens", §4.2.3) and bounds summaries to
// 120-140 words. tiktoken is a closed vocabulary; this package substitutes
// EstimateTokens, a length-aware per-word estimate that needs no learned
// vocabulary.
package tokenize

import (
	"iter"
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
// buffer the next iteration overwrites, so copy it to keep it. ASCII bytes
// are classified and lowercased inline; only non-ASCII runes take the
// unicode tables.
func Scan(text string) iter.Seq[[]byte] {
	return func(yield func([]byte) bool) {
		buf := make([]byte, 0, 32) // most words fit without growing
		for i := 0; i < len(text); {
			if c := text[i]; c < utf8.RuneSelf {
				i++
				if lc := asciiWordByte[c]; lc != 0 {
					buf = append(buf, lc)
					continue
				}
			} else {
				r, size := utf8.DecodeRuneInString(text[i:])
				i += size
				if unicode.IsLetter(r) || unicode.IsDigit(r) {
					buf = utf8.AppendRune(buf, unicode.ToLower(r))
					continue
				}
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

// asciiWordByte maps each ASCII byte to itself lowercased when it is a
// letter or digit and to 0 otherwise — unicode.IsLetter/IsDigit/ToLower
// restricted to bytes below utf8.RuneSelf, as one table load.
var asciiWordByte = func() (t [utf8.RuneSelf]byte) {
	for c := byte('0'); c <= '9'; c++ {
		t[c] = c
	}
	for c := byte('a'); c <= 'z'; c++ {
		t[c] = c
		t[c-'a'+'A'] = c
	}
	return t
}()

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
// extractive summarizer. Sentences are substrings of text; invalid UTF-8
// bytes come back as U+FFFD, one per byte.
func Sentences(text string) []string {
	if !utf8.ValidString(text) {
		text = string([]rune(text))
	}
	var out []string
	start := 0
	flush := func(end int) {
		if s := strings.TrimSpace(text[start:end]); s != "" {
			out = append(out, s)
		}
	}
	// Every delimiter is ASCII, and no byte of a multibyte UTF-8 sequence
	// is, so a byte walk finds exactly the boundaries a rune walk would.
	for i := 0; i < len(text); i++ {
		switch text[i] {
		case '\n':
			flush(i)
			start = i + 1
		case '.', '!', '?':
			if i+1 == len(text) || text[i+1] == ' ' || text[i+1] == '\t' || text[i+1] == '\n' {
				flush(i + 1)
				start = i + 1
			}
		}
	}
	flush(len(text))
	return out
}

// EstimateTokens approximates a subword token count without a learned
// vocabulary: one token per word plus one per six bytes of its lowercased
// form, near the ~1.3 tokens/word ratio typical of English prose. It is
// the unit all LLM context budgeting in the pipeline uses. It walks text
// as Scan does but only counts each word's lowercased byte length, so it
// builds no buffer.
func EstimateTokens(text string) int {
	n, wordLen := 0, 0
	for i := 0; i < len(text); {
		if c := text[i]; c < utf8.RuneSelf {
			i++
			if asciiWordByte[c] != 0 {
				wordLen++
				continue
			}
		} else {
			r, size := utf8.DecodeRuneInString(text[i:])
			i += size
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				wordLen += utf8.RuneLen(unicode.ToLower(r))
				continue
			}
		}
		if wordLen > 0 {
			n += 1 + wordLen/6
			wordLen = 0
		}
	}
	if wordLen > 0 {
		n += 1 + wordLen/6
	}
	return n
}

// FNV-1a 64 parameters (hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// EstimateTokensHash returns EstimateTokens(text) and the FNV-1a 64 hash
// of text's bytes from one walk, for callers that both budget a text and
// seed from it. EstimateTokens keeps its own walk: the hash's per-byte
// multiply chain makes this one about a fifth slower.
func EstimateTokensHash(text string) (tokens int, hash uint64) {
	n, wordLen := 0, 0
	h := uint64(fnvOffset64)
	for i := 0; i < len(text); {
		if c := text[i]; c < utf8.RuneSelf {
			i++
			h = (h ^ uint64(c)) * fnvPrime64
			if asciiWordByte[c] != 0 {
				wordLen++
				continue
			}
		} else {
			r, size := utf8.DecodeRuneInString(text[i:])
			for _, c := range []byte(text[i : i+size]) {
				h = (h ^ uint64(c)) * fnvPrime64
			}
			i += size
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				wordLen += utf8.RuneLen(unicode.ToLower(r))
				continue
			}
		}
		if wordLen > 0 {
			n += 1 + wordLen/6
			wordLen = 0
		}
	}
	if wordLen > 0 {
		n += 1 + wordLen/6
	}
	return n, h
}
