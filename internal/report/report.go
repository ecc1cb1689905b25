// Package report renders the incident notification RCACopilot sends to
// on-call engineers: the alert, the handler's collection trail, the
// summarized diagnostics, the predicted root-cause category with its
// explanation, suggested mitigations, and the feedback instructions the
// paper's deployment attaches ("we have incorporated a feedback mechanism
// in incident notification emails", §5.5).
package report

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/feedback"
	"repro/internal/handler"
	"repro/internal/incident"
)

// Options tune rendering.
type Options struct {
	// MaxEvidenceLines bounds the raw-evidence excerpt per source
	// (default 4; 0 keeps the default, negative hides raw evidence).
	MaxEvidenceLines int
	// FeedbackAddress is printed in the feedback footer.
	FeedbackAddress string
}

func (o Options) withDefaults() Options {
	if o.MaxEvidenceLines == 0 {
		o.MaxEvidenceLines = 4
	}
	if o.FeedbackAddress == "" {
		o.FeedbackAddress = "rcacopilot-feedback@transport"
	}
	return o
}

// Render produces the plain-text notification for a fully handled incident.
// The report is self-contained: an OCE reading only this text knows what
// fired, what was collected, what the system concluded and why, and how to
// respond.
func Render(inc *incident.Incident, rep *handler.RunReport, opts Options) string {
	opts = opts.withDefaults()
	var b strings.Builder

	fmt.Fprintf(&b, "INCIDENT %s  [%s]  %s\n", inc.ID, inc.Severity, inc.CreatedAt.Format("2006-01-02 15:04 MST"))
	fmt.Fprintf(&b, "%s\n", strings.Repeat("=", 72))
	fmt.Fprintf(&b, "Title:  %s\n", inc.Title)
	fmt.Fprintf(&b, "Team:   %s", inc.OwningTeam)
	if inc.OwningTenant != "" {
		fmt.Fprintf(&b, "    Tenant: %s", inc.OwningTenant)
	}
	b.WriteString("\n\n")

	b.WriteString("ALERT\n")
	fmt.Fprintf(&b, "  type=%s scope=%s monitor=%s target=%s\n",
		inc.Alert.Type, inc.Alert.Scope, inc.Alert.Monitor, inc.Alert.Target)
	fmt.Fprintf(&b, "  %s\n\n", inc.Alert.Message)

	if rep != nil {
		fmt.Fprintf(&b, "DIAGNOSTIC COLLECTION (handler %q, modelled cost %s)\n", rep.Handler, rep.VirtualCost)
		for _, s := range rep.Steps {
			fmt.Fprintf(&b, "  %-30s %-12s -> %s\n", s.Label, "["+s.Kind+"]", s.Outcome)
		}
		b.WriteString("\n")
	}

	if opts.MaxEvidenceLines > 0 && len(inc.Evidence) > 0 {
		b.WriteString("EVIDENCE (excerpts)\n")
		for _, ev := range inc.Evidence {
			fmt.Fprintf(&b, "  --- %s/%s ---\n", ev.Kind, ev.Source)
			for i, line := range strings.Split(strings.TrimSpace(ev.Body), "\n") {
				if i >= opts.MaxEvidenceLines {
					fmt.Fprintf(&b, "    … (%d more lines)\n", strings.Count(ev.Body, "\n")+1-i)
					break
				}
				fmt.Fprintf(&b, "    %s\n", line)
			}
		}
		b.WriteString("\n")
	}

	if inc.Summary != "" {
		b.WriteString("SUMMARIZED DIAGNOSTIC INFORMATION\n")
		b.WriteString(indentWrap(inc.Summary, 70, "  "))
		b.WriteString("\n\n")
	}

	if inc.Predicted != "" {
		b.WriteString("ROOT CAUSE PREDICTION\n")
		fmt.Fprintf(&b, "  category: %s\n", inc.Predicted)
		if inc.Explanation != "" {
			b.WriteString("  explanation:\n")
			b.WriteString(indentWrap(inc.Explanation, 66, "    "))
			b.WriteString("\n")
		}
		b.WriteString("\n")
	}

	if rep != nil && len(rep.Mitigations) > 0 {
		b.WriteString("SUGGESTED MITIGATIONS\n")
		for _, m := range rep.Mitigations {
			fmt.Fprintf(&b, "  * %s\n", m)
		}
		b.WriteString("\n")
	}

	b.WriteString("FEEDBACK\n")
	fmt.Fprintf(&b, "  Reply to %s with one of:\n", opts.FeedbackAddress)
	fmt.Fprintf(&b, "    confirm %s\n", inc.ID)
	fmt.Fprintf(&b, "    correct %s <category>\n", inc.ID)
	fmt.Fprintf(&b, "    reject  %s\n", inc.ID)
	return b.String()
}

// RenderLearnFailure produces the plain-text notification sent to the OCE
// whose feedback verdict could not be learned back into the incident
// history (the background ingest worker failed to re-summarize or embed
// the incident). Without this message the error would only surface to
// whoever next calls the feedback loop's Flush — which may be nobody. The
// text tells the reviewer what failed, why, and that their verdict itself
// is safely recorded; resubmitting after the underlying fault clears
// re-queues the learn.
func RenderLearnFailure(incidentID, reviewer string, learnErr error, at time.Time, opts Options) string {
	opts = opts.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "FEEDBACK LEARN FAILURE %s  %s\n", incidentID, at.Format("2006-01-02 15:04 MST"))
	fmt.Fprintf(&b, "%s\n", strings.Repeat("=", 72))
	fmt.Fprintf(&b, "To:     %s\n", reviewer)
	fmt.Fprintf(&b, "Your verdict on incident %s was recorded, but feeding it back\n", incidentID)
	b.WriteString("into the incident history failed — the incident will NOT inform\n")
	b.WriteString("future predictions until the learn succeeds.\n\n")
	b.WriteString("ERROR\n")
	b.WriteString(indentWrap(learnErr.Error(), 66, "  "))
	b.WriteString("\n\n")
	fmt.Fprintf(&b, "Resubmit your verdict to %s once the fault clears:\n", opts.FeedbackAddress)
	fmt.Fprintf(&b, "    confirm %s\n", incidentID)
	return b.String()
}

// RenderRetryQueue renders the feedback loop's owed learns (its
// Failures): each with its attempt count and next redrive time, so an OCE
// sees not just that a learn is failing but when the system will try
// again (or that it has given up and needs a resubmitted verdict). now
// anchors the "due in" column; pass the loop's clock reading.
func RenderRetryQueue(now time.Time, items []feedback.Failure, opts Options) string {
	opts = opts.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "LEARN RETRY QUEUE  %s\n", now.Format("2006-01-02 15:04 MST"))
	fmt.Fprintf(&b, "%s\n", strings.Repeat("=", 72))
	if len(items) == 0 {
		b.WriteString("  (no unresolved learn failures)\n")
		return b.String()
	}
	for _, it := range items {
		fmt.Fprintf(&b, "%s  reviewer=%s  attempts=%d\n", it.IncidentID, it.Reviewer, it.Attempts)
		switch {
		case it.Exhausted:
			fmt.Fprintf(&b, "  EXHAUSTED — resubmit the verdict to %s to requeue\n", opts.FeedbackAddress)
		case it.NextDue.IsZero():
			b.WriteString("  not scheduled (retry queue off)\n")
		case it.NextDue.After(now):
			fmt.Fprintf(&b, "  next redrive %s (in %s)\n",
				it.NextDue.Format("2006-01-02 15:04:05 MST"), it.NextDue.Sub(now).Round(time.Second))
		default:
			fmt.Fprintf(&b, "  next redrive %s (due now)\n", it.NextDue.Format("2006-01-02 15:04:05 MST"))
		}
		if it.Err != nil {
			b.WriteString(indentWrap("error: "+it.Err.Error(), 66, "  "))
			b.WriteString("\n")
		}
	}
	return b.String()
}

// indentWrap wraps text at width and prefixes every line.
func indentWrap(s string, width int, prefix string) string {
	words := strings.Fields(s)
	var b strings.Builder
	line := 0
	b.WriteString(prefix)
	for _, w := range words {
		if line+len(w)+1 > width && line > 0 {
			b.WriteString("\n" + prefix)
			line = 0
		} else if line > 0 {
			b.WriteString(" ")
			line++
		}
		b.WriteString(w)
		line += len(w)
	}
	return b.String()
}

// ParseFeedbackCommand parses an OCE reply line ("confirm INC-1",
// "correct INC-1 DiskFull", "reject INC-1") into its parts.
func ParseFeedbackCommand(line string) (verb, incidentID string, category incident.Category, err error) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) < 2 {
		return "", "", "", fmt.Errorf("report: feedback command needs a verb and incident ID: %q", line)
	}
	verb = strings.ToLower(fields[0])
	incidentID = fields[1]
	switch verb {
	case "confirm", "reject":
		if len(fields) != 2 {
			return "", "", "", fmt.Errorf("report: %s takes no category: %q", verb, line)
		}
	case "correct":
		if len(fields) != 3 {
			return "", "", "", fmt.Errorf("report: correct needs a category: %q", line)
		}
		category = incident.Category(fields[2])
	default:
		return "", "", "", fmt.Errorf("report: unknown feedback verb %q", verb)
	}
	return verb, incidentID, category, nil
}
