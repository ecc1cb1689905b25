package tokenize

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestWordsBasics(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Total UDP socket count: 15276", []string{"total", "udp", "socket", "count", "15276"}},
		{"WinSock error: 11001!", []string{"winsock", "error", "11001"}},
		{"", nil},
		{"   \n\t ", nil},
		{"Transport.exe, 203736", []string{"transport", "exe", "203736"}},
		{"CamelCaseStaysOneWord", []string{"camelcasestaysoneword"}},
	}
	for _, tc := range cases {
		if got := Words(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Words(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestWordCount(t *testing.T) {
	if got := WordCount("a b c"); got != 3 {
		t.Fatalf("WordCount = %d, want 3", got)
	}
}

func TestScanStopsEarly(t *testing.T) {
	var got []string
	for w := range Scan("Winsock ERROR 11001, port exhausted") {
		got = append(got, string(w))
		if len(got) == 2 {
			break
		}
	}
	if want := []string{"winsock", "error"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Scan with break = %v, want %v", got, want)
	}
}

func TestSentences(t *testing.T) {
	in := "Probe failed. Host unknown!\nTotal count 15276? trailing"
	got := Sentences(in)
	want := []string{"Probe failed.", "Host unknown!", "Total count 15276?", "trailing"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Sentences = %v, want %v", got, want)
	}
}

func TestSentencesEmpty(t *testing.T) {
	if got := Sentences("  \n \n"); got != nil {
		t.Fatalf("Sentences on blank = %v, want nil", got)
	}
}

func corpus() []string {
	return []string{
		"the probe result from the backend machine is a failure",
		"the probe has failed twice on the backend machine",
		"total udp socket count by process and process id",
		"error connecting to host winsock error encountered",
		"messages queued for mailbox delivery exceeded the limit",
		"the udp hub ports on the machine had run out",
	}
}

func TestLearnProducesMerges(t *testing.T) {
	b := Learn(corpus(), 100)
	if b.NumMerges() == 0 {
		t.Fatal("expected merges to be learned from a repetitive corpus")
	}
	if b.NumMerges() > 100 {
		t.Fatalf("NumMerges = %d exceeds requested 100", b.NumMerges())
	}
}

func TestLearnDeterministic(t *testing.T) {
	a := Learn(corpus(), 64)
	b := Learn(corpus(), 64)
	text := "the probe result from the backend machine"
	if !reflect.DeepEqual(a.Encode(text), b.Encode(text)) {
		t.Fatal("two Learn runs over the same corpus must encode identically")
	}
}

func TestEncodeCompressesFrequentWords(t *testing.T) {
	b := Learn(corpus(), 200)
	// "the" is the most frequent word; it should encode to few tokens.
	if n := len(b.EncodeWord("the")); n > 2 {
		t.Errorf("EncodeWord(the) produced %d tokens, want <= 2", n)
	}
	// Count must be <= character count for in-vocabulary text.
	text := "the probe failed on the machine"
	if b.Count(text) >= len(text) {
		t.Errorf("Count(%q) = %d, expected compression below char count %d",
			text, b.Count(text), len(text))
	}
}

func TestCountMatchesEncodeLen(t *testing.T) {
	b := Learn(corpus(), 64)
	text := "udp socket count by process"
	if got, want := b.Count(text), len(b.Encode(text)); got != want {
		t.Fatalf("Count = %d, len(Encode) = %d", got, want)
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	b := Learn(corpus(), 64)
	text := "total udp socket count by process"
	if got := b.Decode(b.Encode(text)); got != text {
		t.Fatalf("Decode(Encode(%q)) = %q", text, got)
	}
}

func TestZeroMergeBPEFallsBackToChars(t *testing.T) {
	b := NewBPE()
	toks := b.EncodeWord("abc")
	want := []string{"a", "b", "c</w>"}
	if !reflect.DeepEqual(toks, want) {
		t.Fatalf("EncodeWord = %v, want %v", toks, want)
	}
	if got := b.Decode(toks); got != "abc" {
		t.Fatalf("Decode = %q, want abc", got)
	}
}

// Property: Decode∘Encode is the identity on normalized text (lowercase
// words joined by single spaces), for both trained and untrained BPE.
func TestQuickRoundTripNormalizedText(t *testing.T) {
	trained := Learn(corpus(), 128)
	empty := NewBPE()
	f := func(raw string) bool {
		normalized := strings.Join(Words(raw), " ")
		return trained.Decode(trained.Encode(normalized)) == normalized &&
			empty.Decode(empty.Encode(normalized)) == normalized
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: token counts are additive over concatenation with a separator.
func TestQuickCountAdditive(t *testing.T) {
	b := Learn(corpus(), 128)
	f := func(x, y string) bool {
		return b.Count(x+" "+y) == b.Count(x)+b.Count(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateTokensMonotoneInLength(t *testing.T) {
	short := EstimateTokens("probe failed")
	long := EstimateTokens("probe failed on the backend machine with winsock error eleven thousand one")
	if short <= 0 || long <= short {
		t.Fatalf("EstimateTokens: short=%d long=%d", short, long)
	}
}

func TestEstimateTokensLongWordsCostMore(t *testing.T) {
	if EstimateTokens("internationalization") <= EstimateTokens("cat") {
		t.Fatal("longer words should estimate to more subword tokens")
	}
}
