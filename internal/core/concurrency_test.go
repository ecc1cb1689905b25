package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/incident"
)

// TestSetEmbedderReportsDroppedEntries pins the re-attachment contract:
// swapping the embedder resets the vector store (vectors from different
// embedders are not comparable) and the call reports how many learned
// entries were discarded, so callers cannot lose history silently.
func TestSetEmbedderReportsDroppedEntries(t *testing.T) {
	e := getEnv(t)
	c := newCopilot(t, Config{})
	const n = 7
	for i := 0; i < n; i++ {
		if err := c.Learn(e.corpus.Incidents[i].Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if c.Index().Len() != n {
		t.Fatalf("db has %d entries, want %d", c.Index().Len(), n)
	}

	dropped, err := c.SetEmbedder(e.embedder)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != n {
		t.Fatalf("SetEmbedder reported %d dropped entries, want %d", dropped, n)
	}
	if c.Index().Len() != 0 {
		t.Fatalf("db still has %d entries after re-attachment", c.Index().Len())
	}
	// First attachment on a fresh copilot drops nothing.
	chat := c.Chat()
	fresh, err := New(e.corpus.Fleet, Config{Chat: chat})
	if err != nil {
		t.Fatal(err)
	}
	if d, err := fresh.SetEmbedder(e.embedder); err != nil || d != 0 {
		t.Fatalf("first attachment reported %d dropped entries, err %v", d, err)
	}
}

// TestCollectConcurrentRunsAreDeterministic drives Collect from many
// goroutines on identical incidents (pinned CreatedAt) and requires every
// run to report the same virtual cost and collect identical diagnostics —
// the per-run execution contexts make collection a pure function of the
// incident, with no cross-run interleaving.
func TestCollectConcurrentRunsAreDeterministic(t *testing.T) {
	e := getEnv(t)
	c := newCopilot(t, Config{})
	fleet := e.corpus.Fleet
	fault, err := fleet.Inject("HubPortExhaustion", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fault.Repair()
	alert, ok := fleet.FirstAlert()
	if !ok {
		t.Fatal("no alert")
	}
	at := fleet.Clock().Now()
	meterBefore := fleet.Meter().Total()

	const runs = 24
	incs := make([]*incident.Incident, runs)
	reports := make([]string, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inc := &incident.Incident{
				ID: fmt.Sprintf("INC-CC-%03d", i), Title: alert.Message,
				OwningTeam: "Transport", Severity: incident.Sev2, Alert: alert,
				CreatedAt: at,
			}
			rep, err := c.Collect(inc)
			if err != nil {
				t.Error(err)
				return
			}
			incs[i] = inc
			reports[i] = fmt.Sprintf("%v|%d", rep.VirtualCost, len(rep.Steps))
		}(i)
	}
	wg.Wait()

	for i := 1; i < runs; i++ {
		if reports[i] != reports[0] {
			t.Fatalf("run %d report diverged: %s vs %s", i, reports[i], reports[0])
		}
		if incs[i].DiagnosticText() != incs[0].DiagnosticText() {
			t.Fatalf("run %d diagnostics diverged", i)
		}
	}
	// Fleet-level accounting saw every run exactly once.
	if merged := fleet.Meter().Total() - meterBefore; merged <= 0 {
		t.Fatal("collection cost did not merge into the fleet meter")
	}
}
