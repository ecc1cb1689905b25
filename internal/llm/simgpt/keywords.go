package simgpt

import (
	"sort"
	"strings"
	"unicode"
)

// RawTokens splits text into tokens preserving case, so CamelCase exception
// names survive for keyword synthesis. Tokens are substrings of text: runs
// of letters and digits, with every other rune (invalid UTF-8 included) a
// separator.
func RawTokens(text string) []string {
	var out []string
	start := -1
	for i, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			out = append(out, text[start:i])
			start = -1
		}
	}
	if start >= 0 {
		out = append(out, text[start:])
	}
	return out
}

// curatedKeyword encodes the world knowledge a real LLM brings to naming a
// never-before-seen incident: characteristic signal combinations map to
// natural category phrasings (the paper's example: IO exceptions + crashes
// on a full disk yield "I/O Bottleneck" even though OCEs later label it
// "DiskFull").
func curatedKeyword(lower string) string {
	has := func(subs ...string) bool {
		for _, s := range subs {
			if !strings.Contains(lower, s) {
				return false
			}
		}
		return true
	}
	switch {
	case has("ioexception") || has("io exception") || (has("disk") && has("full")):
		return "I/O Bottleneck"
	case has("winsock") || (has("udp") && has("socket")):
		return "UDP Port Exhaustion"
	case has("certificate", "invalid") || has("tokens", "created"):
		return "Certificate Misconfiguration"
	case has("bogus") || has("suspicious", "tenant"):
		return "Tenant Abuse"
	case has("malicious") || has("exploit"):
		return "Security Exploit"
	case has("tenantsettingsnotfoundexception"):
		return "Invalid Tenant Config"
	case has("poisonmessage") || has("poisoned"):
		return "Poison Message Flood"
	case has("taskcanceledexception") || has("authentication service", "unreachable"):
		return "Dependency Unreachable"
	case has("delivery") && (has("blocked") || has("hang")):
		return "Delivery Pipeline Stall"
	case has("availability dropped") && has("nullreference"):
		return "Code Regression"
	}
	return ""
}

// wellKnownExceptions are the exception families a seasoned model (or
// engineer) recognizes and maps to a *conceptual* cause phrase instead of
// echoing the class name — the curatedKeyword table holds those phrasings.
// Exceptions outside this set are novel component failures, and the most
// informative keyword is the exception's own name (a new category keyword
// "to depict the new incident case", §5.3).
var wellKnownExceptions = map[string]bool{
	"IO": true, "TaskCanceled": true, "NullReference": true,
	"PoisonMessage": true, "TenantSettingsNotFound": true,
	"InformativeSocket": true, "MaliciousBlobSerialization": true,
}

// SynthesizeCategory coins a root-cause category keyword for a text whose
// category the model believes is unseen. Priority: a novel CamelCase
// exception name (suffix stripped); otherwise curated world-knowledge
// phrasings for well-known failure signatures; otherwise the most
// distinctive tokens.
func SynthesizeCategory(text string) string {
	// Exception-derived: count CamelCase *Exception tokens, ignoring
	// well-known families (those go through the curated phrasings).
	counts := make(map[string]int)
	for _, tok := range RawTokens(text) {
		if len(tok) > len("Exception") && strings.HasSuffix(tok, "Exception") {
			base := strings.TrimSuffix(tok, "Exception")
			if len(base) >= 8 && !wellKnownExceptions[base] {
				counts[base]++
			}
		}
	}
	lower := strings.ToLower(text)
	if len(counts) == 0 {
		if kw := curatedKeyword(lower); kw != "" {
			return kw
		}
	}
	if len(counts) > 0 {
		type kv struct {
			k string
			n int
		}
		var all []kv
		for k, n := range counts {
			all = append(all, kv{k, n})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].n != all[j].n {
				return all[i].n > all[j].n
			}
			return all[i].k < all[j].k
		})
		return all[0].k
	}
	// Fallback: title-case the two most distinctive tokens.
	signals := topSignals(text, 2)
	if len(signals) == 0 {
		return "UncategorizedAnomaly"
	}
	var b strings.Builder
	for _, s := range signals {
		b.WriteString(strings.ToUpper(s[:1]))
		b.WriteString(s[1:])
	}
	b.WriteString("Issue")
	return b.String()
}
