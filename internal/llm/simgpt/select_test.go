package simgpt

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/llm"
)

func TestParsePredictionPromptMultilineOptions(t *testing.T) {
	prompt := `Context: select the incident information that is most likely.
Input: first input line
second input line
Options:
A: Unseen incident.
B: body line one
   continuation of option B. category: CatB.
C: option c body. category: CatC.
`
	input, opts := parsePredictionPrompt(prompt)
	if !strings.Contains(input, "first input line") || !strings.Contains(input, "second input line") {
		t.Fatalf("input = %q", input)
	}
	if len(opts) != 3 {
		t.Fatalf("options = %d, want 3", len(opts))
	}
	if !strings.Contains(opts[1].body, "continuation of option B") {
		t.Fatalf("option B lost continuation: %q", opts[1].body)
	}
	if opts[1].category != "CatB" || opts[2].category != "CatC" {
		t.Fatalf("categories = %q/%q", opts[1].category, opts[2].category)
	}
}

func TestSelectWithOnlyUnseenOption(t *testing.T) {
	c := mustClient(t, GPT4, 1)
	prompt := `Context: Please select the incident information that is most likely to have the same root cause.
Input: StoreWorkerWidgetFailureException crashed many processes.
Options:
A: Unseen incident.
`
	resp, err := c.Complete(llm.Request{Messages: []llm.Message{{Role: llm.RoleUser, Content: prompt}}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Content, "Answer: A") {
		t.Fatalf("with no demonstrations the model must answer A:\n%s", resp.Content)
	}
	// The coined keyword comes from the novel exception.
	if !strings.Contains(resp.Content, "StoreWorkerWidgetFailure") {
		t.Fatalf("keyword should derive from the exception:\n%s", resp.Content)
	}
}

func TestSelectNoOptionsAtAll(t *testing.T) {
	c := mustClient(t, GPT4, 1)
	prompt := "Please select the incident information that is most likely to have the same root cause.\nInput: something\n"
	resp, err := c.Complete(llm.Request{Messages: []llm.Message{{Role: llm.RoleUser, Content: prompt}}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Content, "Answer: A") {
		t.Fatalf("degenerate prompt should still answer:\n%s", resp.Content)
	}
}

// Property: option scores are bounded cosines in [0, 1] for arbitrary texts.
func TestQuickScoreOptionsBounded(t *testing.T) {
	f := func(input, a, b string) bool {
		opts := []option{
			{letter: "A", body: "Unseen incident."},
			{letter: "B", body: a},
			{letter: "C", body: b},
		}
		for _, s := range readOptions(input, opts).scores() {
			if s < 0 || s > 1.0000001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScoreOptionsPrefersSharedRareTokens(t *testing.T) {
	input := "crash events show TenantQuotaOverflowException in QuotaService, submission queues beyond limit"
	opts := []option{
		{letter: "A", body: "Unseen incident."},
		{letter: "B", body: "crash events show TenantQuotaOverflowException in QuotaService, submission queues beyond limit"},
		{letter: "C", body: "crash events show RoutingLoopException in RoutingTable, submission queues beyond limit"},
	}
	scores := readOptions(input, opts).scores()
	if scores[1] <= scores[2] {
		t.Fatalf("exact match should outscore sibling: B=%.3f C=%.3f", scores[1], scores[2])
	}
	if scores[0] != 0 {
		t.Fatalf("unseen option must not be scored: %f", scores[0])
	}
}

func TestJoinNaturally(t *testing.T) {
	cases := map[string][]string{
		"":            nil,
		"a":           {"a"},
		"a and b":     {"a", "b"},
		"a, b, and c": {"a", "b", "c"},
	}
	for want, in := range cases {
		if got := joinNaturally(in); got != want {
			t.Errorf("joinNaturally(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestSummaryOfEmptyInput(t *testing.T) {
	c := mustClient(t, GPT4, 1)
	resp, err := c.Complete(llm.Request{Messages: []llm.Message{
		{Role: llm.RoleUser, Content: ""},
		{Role: llm.RoleUser, Content: "Please summarize the above input."},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Content == "" {
		t.Fatal("empty diagnostic input should still produce a statement")
	}
}
