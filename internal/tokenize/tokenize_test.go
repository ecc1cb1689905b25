package tokenize

import (
	"reflect"
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

// Property: token estimates are additive over concatenation with a
// separator.
func TestQuickCountAdditive(t *testing.T) {
	f := func(x, y string) bool {
		return EstimateTokens(x+" "+y) == EstimateTokens(x)+EstimateTokens(y)
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
