package tokenize

import (
	"hash/fnv"
	"reflect"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// refWords is the rune-at-a-time word split Scan's ASCII fast path must
// reproduce: every rune through unicode.IsLetter/IsDigit/ToLower.
func refWords(text string) []string {
	var out []string
	var buf []byte
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			buf = utf8.AppendRune(buf, unicode.ToLower(r))
			continue
		}
		if len(buf) > 0 {
			out = append(out, string(buf))
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		out = append(out, string(buf))
	}
	return out
}

// refEstimateTokens is EstimateTokens over the reference words.
func refEstimateTokens(text string) int {
	n := 0
	for _, w := range refWords(text) {
		n += 1 + len(w)/6
	}
	return n
}

// refSentences is the rune-buffer sentence splitter Sentences replaced.
func refSentences(text string) []string {
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

func FuzzScan(f *testing.F) {
	for _, s := range []string{
		"",
		"Total UDP socket count: 15276",
		"WinSock error: 11001! Transport.exe, 203736",
		"\xff\xfe broken \xc3 utf8 \xe2\x82",
		"Ünïcödé ÉCHEC Straße ΣΊΣΥΦΟΣ",
		"İstanbul KELVİN ẞ ǅ Ω K Å",
		// Case mappings that shrink the UTF-8 length: six Kelvin signs
		// lowercase to 6 bytes from 18, six dotted capital Is to 6 from 12.
		"\u212a\u212a\u212a\u212a\u212a\u212a İİİİİİ ẞẞẞẞẞẞ",
		"٣٤٥ digits ０１２ and ²³",
		"tab\tnew\nline. end? yes! 0.85 System.IO.IOException",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		want := refWords(text)
		var got []string
		for w := range Scan(text) {
			got = append(got, string(w))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Scan(%q) = %q, want %q", text, got, want)
		}
		if got := Words(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("Words(%q) = %q, want %q", text, got, want)
		}
		if got, want := EstimateTokens(text), refEstimateTokens(text); got != want {
			t.Fatalf("EstimateTokens(%q) = %d, want %d", text, got, want)
		}
		h := fnv.New64a()
		h.Write([]byte(text))
		if n, sum := EstimateTokensHash(text); n != EstimateTokens(text) || sum != h.Sum64() {
			t.Fatalf("EstimateTokensHash(%q) = (%d, %#x), want (%d, %#x)", text, n, sum, EstimateTokens(text), h.Sum64())
		}
		if got, want := Sentences(text), refSentences(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("Sentences(%q) = %q, want %q", text, got, want)
		}
	})
}
