package rcacopilot

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// failingEmbedder errors on every Embed after attachment — the realistic
// async-learn fault (an embedding backend going down while verdicts keep
// arriving). Dim stays valid so SetEmbedder succeeds.
type failingEmbedder struct{ dim int }

func (f failingEmbedder) Embed(string) ([]float64, error) {
	return nil, fmt.Errorf("embedding backend unavailable")
}
func (f failingEmbedder) Dim() int { return f.dim }

// TestAsyncLearnFailureReachesSubmitter is the end-to-end regression test
// for the async error-surfacing satellite: with background ingest on and
// the embedder failing, a submitted verdict's learn error must reach the
// submitting OCE — through the loop's notifier and failure records, and
// renderable as a notification — without anyone calling Flush.
func TestAsyncLearnFailureReachesSubmitter(t *testing.T) {
	c := sharedCorpus(t)
	sys, err := NewSystem(c.Fleet, Config{Seed: 3, AsyncLearnQueue: 8})
	if err != nil {
		t.Fatal(err)
	}
	sys.Copilot().SetEmbedder(failingEmbedder{dim: 8})

	notified := make(chan LearnFailure, 1)
	loop := sys.Feedback()
	loop.SetNotifier(func(f LearnFailure) { notified <- f })

	inc := c.Incidents[10].Clone()
	inc.ID = "INC-ASYNC-FAIL"
	inc.Predicted = inc.Category
	// Submit returns immediately (async); the learn fails in the
	// background.
	if _, err := sys.Feedback().Submit(inc, VerdictConfirm, "", "oce-carol", ""); err != nil {
		t.Fatal(err)
	}

	var f LearnFailure
	select {
	case f = <-notified:
	case <-time.After(5 * time.Second):
		t.Fatal("async learn failure never reached the notifier")
	}
	if f.IncidentID != "INC-ASYNC-FAIL" || f.Reviewer != "oce-carol" || f.Err == nil {
		t.Fatalf("failure %+v lacks attribution", f)
	}
	if owed := loop.Failures(); len(owed) != 1 || owed[0].IncidentID != "INC-ASYNC-FAIL" {
		t.Fatalf("failure not recorded on the loop: %+v", owed)
	}

	msg := sys.RenderLearnFailure(f, ReportOptions{})
	for _, want := range []string{"INC-ASYNC-FAIL", "oce-carol", "embedding backend unavailable", "confirm INC-ASYNC-FAIL"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("notification missing %q:\n%s", want, msg)
		}
	}
}
