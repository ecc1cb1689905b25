package simgpt

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/llm"
	"repro/internal/tokenize"
)

func mustClient(t *testing.T, model string, seed int64) *Client {
	t.Helper()
	c, err := New(model, Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidatesModel(t *testing.T) {
	if _, err := New("gpt-5-ultra", Options{}); err == nil {
		t.Fatal("unknown model should fail")
	}
	c := mustClient(t, GPT4, 1)
	if c.Name() != GPT4 {
		t.Fatalf("Name = %s", c.Name())
	}
	if c.ContextWindow() != 8192 {
		t.Fatalf("GPT-4 context window = %d, want 8192", c.ContextWindow())
	}
	if mustClient(t, GPT35, 1).ContextWindow() != 4096 {
		t.Fatal("GPT-3.5 context window should be 4096")
	}
}

const diagText = `DatacenterHubOutboundProxyProbe probe log result from NAMPR01A-FD01.
Total Probes: 2, Failed Probes: 2
Id Level Created Description
-- ----- ------- -----------
2 Error 11/21/2022 2:04:20 AM Probe result
Failed probe error: Name: No such host is known.
A WinSock error: 11001 encountered when connecting to host: smtp-relay.
Exceptions:
InformativeSocketException: No such host is known.
at TcpClientFactory.Create(...)
Total UDP socket count: 15276
Total UDP socket count by process and processId (top 5 only):
14923: Transport.exe, 203736
15: w3wp.exe, 102296
`

func summaryPrompt(body string) llm.Request {
	return llm.Request{Messages: []llm.Message{
		{Role: llm.RoleUser, Content: body},
		{Role: llm.RoleUser, Content: "Please summarize the above input. Please note that the above input is incident diagnostic information. The summary results should be about 120 words, no more than 140 words, and should cover important information as much as possible. Just return the summary without any additional output."},
	}}
}

func TestSummarizeBudgetAndSignals(t *testing.T) {
	c := mustClient(t, GPT4, 3)
	resp, err := c.Complete(summaryPrompt(diagText))
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}
	words := tokenize.WordCount(resp.Content)
	if words == 0 || words > 140 {
		t.Fatalf("summary word count = %d, want (0,140]", words)
	}
	if !strings.Contains(resp.Content, "15276") && !strings.Contains(resp.Content, "WinSock") &&
		!strings.Contains(resp.Content, "11001") {
		t.Errorf("summary lost all key signals:\n%s", resp.Content)
	}
	if strings.Contains(resp.Content, "-- -----") {
		t.Error("summary kept table separator junk")
	}
	if resp.PromptTokens <= 0 || resp.CompletionTokens <= 0 || resp.ModelLatency <= 0 {
		t.Error("token/latency accounting missing")
	}
}

func TestSummarizeDeterministic(t *testing.T) {
	a := mustClient(t, GPT4, 9)
	b := mustClient(t, GPT4, 9)
	ra, err := a.Complete(summaryPrompt(diagText))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Complete(summaryPrompt(diagText))
	if err != nil {
		t.Fatal(err)
	}
	if ra.Content != rb.Content {
		t.Fatal("same seed must summarize identically")
	}
}

func TestContextWindowEnforced(t *testing.T) {
	c := mustClient(t, GPT35, 1)
	huge := strings.Repeat("overflow the window with many tokens ", 3000)
	if _, err := c.Complete(summaryPrompt(huge)); err == nil {
		t.Fatal("over-window prompt should fail")
	}
}

func TestEmptyRequestFails(t *testing.T) {
	c := mustClient(t, GPT4, 1)
	if _, err := c.Complete(llm.Request{}); err == nil {
		t.Fatal("empty request should fail")
	}
}

func TestMaxTokensTruncates(t *testing.T) {
	c := mustClient(t, GPT4, 1)
	req := summaryPrompt(diagText)
	req.MaxTokens = 10
	resp, err := c.Complete(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.CompletionTokens > 10 {
		t.Fatalf("completion tokens = %d, want <= 10", resp.CompletionTokens)
	}
	// A field the counter splits into several words ("a-b-c-d-e-f" is six
	// tokens) must be sized as CountTokens sizes it.
	resp, err = c.Complete(llm.Request{
		Messages:  []llm.Message{{Role: llm.RoleUser, Content: "Node a-b-c-d-e-f is broken."}},
		MaxTokens: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Content != "Node" || resp.CompletionTokens != 1 {
		t.Fatalf("MaxTokens 4: content %q with %d tokens, want \"Node\" with 1", resp.Content, resp.CompletionTokens)
	}
}

// Property: truncation keeps a prefix of the text's fields within any
// budget, counted as CountTokens counts it, and is a no-op when the text
// already fits.
func TestQuickTruncateWithinBudget(t *testing.T) {
	f := func(text string, budget uint8) bool {
		b := int(budget % 64)
		got := truncateToTokens(text, b)
		if tokenize.EstimateTokens(text) <= b {
			return got == text
		}
		return tokenize.EstimateTokens(got) <= b &&
			strings.HasPrefix(strings.Join(strings.Fields(text), " "), got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Punctuated fields, where the old 1+len/6 sizing undercounted.
	g := func(parts []uint8, budget uint8) bool {
		var b strings.Builder
		for _, p := range parts {
			b.WriteString(strings.Repeat("x-", int(p%5)))
			b.WriteString("ab.c ")
		}
		return f(b.String(), budget)
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func predictionPrompt(input string, options []string) llm.Request {
	var b strings.Builder
	b.WriteString("Context: The following description shows the error log information of an incident. Please select the incident information that is most likely to have the same root cause and give your explanation (just give one answer). If not, please select the first item \"Unseen incident\".\n")
	fmt.Fprintf(&b, "Input: %s\n", input)
	b.WriteString("Options:\n")
	b.WriteString("A: Unseen incident.\n")
	for i, o := range options {
		fmt.Fprintf(&b, "%c: %s\n", 'B'+i, o)
	}
	return llm.Request{Messages: []llm.Message{{Role: llm.RoleUser, Content: b.String()}}}
}

func TestSelectsMatchingOption(t *testing.T) {
	c := mustClient(t, GPT4, 5)
	// Same-category incidents share their telemetry signature: the same
	// probe, the same exception class, the same failure phrasing — only
	// machines and counters differ (as the pipeline's summaries do).
	input := "The DatacenterHubOutboundProxyProbe failed twice on NAMPR01A-FD02 with WinSock error 11001 host unknown. InformativeSocketException: No such host is known. Total UDP socket count 15276 dominated by Transport.exe. DNS resolution FAILED."
	optB := "DatacenterHubOutboundProxyProbe failures on NAMPR03A-FD01 with WinSock error 11001, InformativeSocketException host unknown, UDP socket count 14820 dominated by Transport.exe, DNS resolution FAILED. category: HubPortExhaustion."
	optC := "Mailbox delivery queue on NAMPR02A-MB08 exceeded limit with blocked delivery threads in MailboxDeliverAgent.Deliver, delivery service hanging. category: DeliveryHang."
	resp, err := c.Complete(predictionPrompt(input, []string{optB, optC}))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Content, "Answer: B") {
		t.Fatalf("expected Answer: B, got:\n%s", resp.Content)
	}
	if !strings.Contains(resp.Content, "Category: HubPortExhaustion") {
		t.Fatalf("expected category line, got:\n%s", resp.Content)
	}
	if !strings.Contains(resp.Content, "Explanation:") {
		t.Fatalf("expected explanation, got:\n%s", resp.Content)
	}
}

func TestSelectsUnseenWhenNothingMatches(t *testing.T) {
	c := mustClient(t, GPT4, 5)
	input := "Many processes crashed throwing System.IO.IOException in DiagnosticsLog module. Volume D: is 100% full on the mailbox server."
	optB := "Probe failures with WinSock error 11001 and UDP socket exhaustion. category: HubPortExhaustion."
	optC := "Bogus tenants with suspicious connectors exceeded concurrent server connections. category: CertForBogusTenants."
	resp, err := c.Complete(predictionPrompt(input, []string{optB, optC}))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Content, "Answer: A") {
		t.Fatalf("expected unseen answer, got:\n%s", resp.Content)
	}
	if !strings.Contains(resp.Content, "Category: I/O Bottleneck") {
		t.Fatalf("expected coined I/O Bottleneck keyword (Figure 11), got:\n%s", resp.Content)
	}
}

func TestGPT4MoreReliableThanGPT35(t *testing.T) {
	// A borderline case: both options share the submission-backlog
	// phrasing with the input; option B additionally shares the exception
	// and component, so it should win — but only by a margin that scoring
	// noise occasionally flips for the weaker model.
	input := "Normal priority messages queued in submission queues beyond limit on NAMPR01A-HB05, depth 9516. Crash events show TaskCanceledException in DispatcherAgent. Component availability: authentication service unreachable, dispatcher tasks cancelled."
	optB := "Submission queues beyond limit on NAMPR04A-HB06 depth 9102, crash events show TaskCanceledException in DispatcherAgent, authentication service unreachable, dispatcher tasks cancelled. category: DispatcherTaskCancelled."
	optC := "Submission queues beyond limit on NAMPR02A-HB04 depth 10240, crash events show TenantSettingsNotFoundException in JournalingAgent, invalid value for the Transport config. category: InvalidJournaling."
	count := func(model string) int {
		correct := 0
		for seed := int64(1); seed <= 40; seed++ {
			c := mustClient(t, model, seed)
			req := predictionPrompt(input, []string{optB, optC})
			req.Temperature = 1.0
			resp, err := c.Complete(req)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(resp.Content, "Answer: B") {
				correct++
			}
		}
		return correct
	}
	g4, g35 := count(GPT4), count(GPT35)
	if g4 < g35 {
		t.Errorf("gpt-4 correct %d/40 < gpt-3.5 correct %d/40", g4, g35)
	}
	if g4 <= 20 {
		t.Errorf("gpt-4 should pick the right option more often than not: %d/40", g4)
	}
}

func TestSynthesizeCategory(t *testing.T) {
	cases := []struct {
		text string
		want string
	}{
		{"System.IO.IOException in DiagnosticsLog, disk D: full, processes crashed", "I/O Bottleneck"},
		{"WinSock error 11001, Total UDP socket count 15276", "UDP Port Exhaustion"},
		{"StoreWorkerHeapCorruptionException raised repeatedly in module StoreWorker", "StoreWorkerHeapCorruption"},
		{"spammers created bogus tenants with many connectors", "Tenant Abuse"},
		{"malicious binary blob serialized in remote PowerShell exploit", "Security Exploit"},
	}
	for _, tc := range cases {
		if got := SynthesizeCategory(tc.text); got != tc.want {
			t.Errorf("SynthesizeCategory(%.30q...) = %q, want %q", tc.text, got, tc.want)
		}
	}
	if got := SynthesizeCategory(""); got == "" {
		t.Error("empty text should still yield a fallback keyword")
	}
}

func TestRawTokensPreservesCase(t *testing.T) {
	toks := RawTokens("System.IO.IOException at TcpClientFactory.Create")
	joined := strings.Join(toks, " ")
	if !strings.Contains(joined, "IOException") || !strings.Contains(joined, "TcpClientFactory") {
		t.Fatalf("RawTokens lost case: %v", toks)
	}
}

func TestEmbedNormalizedAndDeterministic(t *testing.T) {
	c := mustClient(t, GPT4, 1)
	a, err := c.Embed("udp socket exhausted transport")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Embed("udp socket exhausted transport")
	if err != nil {
		t.Fatal(err)
	}
	var norm float64
	same := true
	for i := range a {
		norm += a[i] * a[i]
		if a[i] != b[i] {
			same = false
		}
	}
	if !same {
		t.Fatal("embedding must be deterministic")
	}
	if norm < 0.999 || norm > 1.001 {
		t.Fatalf("embedding norm² = %f, want 1", norm)
	}
	other, err := c.Embed("disk volume full io exception")
	if err != nil {
		t.Fatal(err)
	}
	if cosine(a, other) > 0.99 {
		t.Fatal("different texts should not embed identically")
	}
}

func TestFineTuneOnlyGPT35(t *testing.T) {
	g4 := mustClient(t, GPT4, 1)
	if _, _, err := g4.FineTune([]llm.Example{{Input: "x", Label: "y"}}); err == nil {
		t.Fatal("GPT-4 fine-tuning should be unavailable")
	}
	g35 := mustClient(t, GPT35, 1)
	if _, _, err := g35.FineTune(nil); err == nil {
		t.Fatal("empty example set should fail")
	}
}

func TestFineTuneClassifies(t *testing.T) {
	g35 := mustClient(t, GPT35, 1)
	var examples []llm.Example
	for i := 0; i < 10; i++ {
		examples = append(examples,
			llm.Example{Input: "udp socket exhausted winsock transport hub port", Label: "HubPortExhaustion"},
			llm.Example{Input: "disk volume full io exception crashed storage", Label: "FullDisk"},
		)
	}
	tuned, cost, err := g35.FineTune(examples)
	if err != nil {
		t.Fatal(err)
	}
	if cost < 2500*time.Second {
		t.Fatalf("fine-tune cost = %v, want >= 2500s (Table 2 shape)", cost)
	}
	if tuned.Name() != "gpt-3.5-turbo-ft" {
		t.Fatalf("tuned name = %s", tuned.Name())
	}
	resp, err := tuned.Complete(llm.Request{Messages: []llm.Message{{
		Role:    llm.RoleUser,
		Content: "Classify the root cause category of the following incident:\nwinsock errors with udp socket counts exhausted on hub transport",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Content, "Category: HubPortExhaustion") {
		t.Fatalf("tuned classification = %q", resp.Content)
	}
	// Non-classification prompts defer to the base model.
	sum, err := tuned.Complete(summaryPrompt(diagText))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Content == "" {
		t.Fatal("tuned client should delegate summarization")
	}
}

func TestZeroShotClassifyReturnsKeyword(t *testing.T) {
	c := mustClient(t, GPT4, 2)
	resp, err := c.Complete(llm.Request{Messages: []llm.Message{{
		Role:    llm.RoleUser,
		Content: "Classify the root cause category of the following incident:\nmany crashes with System.IO.IOException, disk full",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp.Content, "Category: ") {
		t.Fatalf("zero-shot classify = %q", resp.Content)
	}
}

func TestLatencyGrowsWithTokens(t *testing.T) {
	c := mustClient(t, GPT4, 1)
	small, err := c.Complete(summaryPrompt("short text. failure here."))
	if err != nil {
		t.Fatal(err)
	}
	large, err := c.Complete(summaryPrompt(strings.Repeat(diagText, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if large.ModelLatency <= small.ModelLatency {
		t.Fatalf("latency should grow with tokens: %v vs %v", small.ModelLatency, large.ModelLatency)
	}
}

func TestGenericPromptFallback(t *testing.T) {
	c := mustClient(t, GPT4, 1)
	resp, err := c.Complete(llm.Request{Messages: []llm.Message{{
		Role: llm.RoleUser, Content: "What is the weather like on the moon today?",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Content == "" {
		t.Fatal("generic prompts should still produce output")
	}
}
