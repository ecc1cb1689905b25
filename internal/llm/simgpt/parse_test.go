package simgpt

import (
	"math"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// refOptionLineRe and refParsePredictionPrompt are the regexp parser the
// line-prefix parser replaced, kept as the fuzz oracle.
var refOptionLineRe = regexp.MustCompile(`^([A-Z]): (.*)$`)

func refParsePredictionPrompt(prompt string) (input string, opts []option) {
	lines := strings.Split(prompt, "\n")
	var inOptions bool
	var cur *option
	var inputLines []string
	var inInput bool
	for _, line := range lines {
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
			if m := refOptionLineRe.FindStringSubmatch(line); m != nil {
				opts = append(opts, option{letter: m[1], body: m[2]})
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

func FuzzParsePredictionPrompt(f *testing.F) {
	for _, s := range []string{
		"",
		"\n",
		"Options:\nA: Unseen incident.\nB: x. category: Y.\n",
		"Context: select.\nInput: one\ntwo\nOptions:\nA: Unseen incident.\nB: body\n  more. category: CatB.\nC:no space\nc: lower\nD:  two spaces\nE: \n",
		"Options:\nZ: last\r\nA: \xff\xfe invalid\nAB: not an option\n: empty\nÄ: multibyte\n",
		"Input:Options:\nOptions:Input: x\nA: y\nContext:\nA: z",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, prompt string) {
		gotIn, gotOpts := parsePredictionPrompt(prompt)
		wantIn, wantOpts := refParsePredictionPrompt(prompt)
		if gotIn != wantIn {
			t.Fatalf("input = %q, want %q", gotIn, wantIn)
		}
		if !reflect.DeepEqual(gotOpts, wantOpts) {
			t.Fatalf("options = %+v, want %+v", gotOpts, wantOpts)
		}
	})
}

// TestScoreOptionsBitReproducible requires repeated scoring of one prompt
// to agree to the bit: the weighted sums run in token first-occurrence
// order, not map iteration order.
func TestScoreOptionsBitReproducible(t *testing.T) {
	input := "Probe failed: WinSock error 11001 connecting to host MB09. Total UDP socket count 15276 " +
		"by Transport.exe process 203736; HubPortExhaustion suspected, submission queues beyond limit, " +
		"delivery stuck and messages queued for mailbox delivery exceeded the limit on backend machine"
	opts := []option{
		{letter: "A", body: "Unseen incident."},
		{letter: "B", body: "WinSock error 11001 on MB10, UDP socket count 14002 for Transport.exe; hub ports exhausted. category: HubPortExhaustion."},
		{letter: "C", body: "Disk full on backend machine HB04, queued messages exceeded the mailbox delivery limit. category: FullDisk."},
		{letter: "D", body: "Certificate expired for submission service, probe failed with invalid credential error. category: CertExpiry."},
		{letter: "E", body: "Routing table loop between hub and backend, delivery stuck, submission queues beyond limit. category: RoutingLoop."},
	}
	want := readOptions(input, opts).scores()
	for rep := 0; rep < 200; rep++ {
		got := readOptions(input, opts).scores()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("rep %d option %s: score bits %x, first call %x", rep, opts[i].letter,
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// refRawTokens is the rune-buffer RawTokens the substring split replaced.
func refRawTokens(text string) []string {
	var out []string
	var cur strings.Builder
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur.WriteRune(r)
		} else if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

func FuzzRawTokens(f *testing.F) {
	for _, s := range []string{"", "StoreWorkerWidgetFailureException crashed", "a\xffb \xe2\x82 Ünï٣ x", "İK-ẞ_9"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if got, want := RawTokens(text), refRawTokens(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("RawTokens(%q) = %q, want %q", text, got, want)
		}
	})
}
