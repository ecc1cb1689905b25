package rcacopilot

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/llm/simgpt"
)

// flakyChat fails every completion while down is set: a chat backend
// outage that breaks the summarization of learned incidents.
type flakyChat struct {
	llm.Client
	down atomic.Bool
}

func (c *flakyChat) Complete(req llm.Request) (llm.Response, error) {
	if c.down.Load() {
		return llm.Response{}, errors.New("chat backend unavailable")
	}
	return c.Client.Complete(req)
}

// openWALSystem boots a durable system over dir the way a restarted
// deployment does: same corpus, seed and embedding every time, ingesting
// only when recovery produced an empty store. feedbackFirst takes the
// feedback loop before the embedding (and so the durable store) exists.
func openWALSystem(t *testing.T, dir string, feedbackFirst bool) (*System, *flakyChat) {
	t.Helper()
	c := sharedCorpus(t)
	chat := &flakyChat{Client: simgpt.MustNew(ModelGPT4, simgpt.Options{Seed: 4})}
	sys, err := NewSystem(c.Fleet, Config{Seed: 4, Chat: chat, WALDir: dir, WALSyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if feedbackFirst {
		sys.Feedback()
	}
	if err := sys.TrainEmbedding(c.Incidents[:40]); err != nil {
		t.Fatal(err)
	}
	if sys.Copilot().Index().Len() == 0 {
		if err := sys.AddHistory(c.Incidents[:40]); err != nil {
			t.Fatal(err)
		}
	}
	return sys, chat
}

// checkOwedLearnSurvivesReopen drives the durable owed-learn wiring end
// to end: a confirm verdict's learn fails, and a system reopened over the
// same WAL directory owes it with its reviewer, attempts and due time; a
// successful redrive settles it, and a second reopen owes nothing.
// embedTwice swaps the embedding again before the failing verdict, so
// the owed learn must reach the reopened store, not the closed one.
func checkOwedLearnSurvivesReopen(t *testing.T, feedbackFirst, embedTwice bool) {
	dir := t.TempDir()
	t0 := time.Date(2022, 7, 1, 0, 0, 0, 0, time.UTC)
	sys, chat := openWALSystem(t, dir, feedbackFirst)
	loop := sys.Feedback()
	if embedTwice {
		// The swap closes the store the loop journals to; only the swap
		// itself can attach the loop to the reopened one.
		if err := sys.TrainEmbedding(sharedCorpus(t).Incidents[:40]); err != nil {
			t.Fatal(err)
		}
	}
	loop.SetClock(func() time.Time { return t0 })
	if err := loop.StartRetry(); err != nil {
		t.Fatal(err)
	}
	inc := sharedCorpus(t).Incidents[60].Clone()
	inc.ID, inc.Predicted, inc.Summary = "INC-OWED", inc.Category, ""
	chat.down.Store(true)
	if _, err := loop.Submit(inc, VerdictConfirm, "", "oce-dana", ""); err == nil {
		t.Fatal("learn must fail while the chat backend is down")
	}
	want := loop.Failures()
	if len(want) != 1 || want[0].Attempts != 1 || want[0].NextDue.IsZero() {
		t.Fatalf("owed before the restart = %+v, want one scheduled learn", want)
	}
	loop.Close()
	sys.Close()

	sys2, _ := openWALSystem(t, dir, feedbackFirst)
	loop2 := sys2.Feedback()
	got := loop2.Failures()
	if len(got) != 1 || got[0].IncidentID != "INC-OWED" || got[0].Reviewer != "oce-dana" ||
		got[0].Attempts != 1 || !got[0].NextDue.Equal(want[0].NextDue) {
		t.Fatalf("reopened system owes %+v, want %+v", got, want)
	}
	loop2.SetClock(func() time.Time { return t0.Add(time.Hour) })
	if err := loop2.StartRetry(); err != nil {
		t.Fatal(err)
	}
	if n := loop2.RedriveDue(); n != 1 {
		t.Fatalf("RedriveDue = %d, want the owed learn redriven", n)
	}
	if got := loop2.Failures(); len(got) != 0 {
		t.Fatalf("owed after a successful redrive = %+v", got)
	}
	if _, ok := sys2.Copilot().Index().Get("INC-OWED"); !ok {
		t.Fatal("redriven learn did not reach the store")
	}
	loop2.Close()
	sys2.Close()

	sys3, _ := openWALSystem(t, dir, feedbackFirst)
	defer sys3.Close()
	if got := sys3.Feedback().Failures(); len(got) != 0 {
		t.Fatalf("second reopen owes %+v, want nothing", got)
	}
}

// TestOwedLearnSurvivesReopen pins the System-level journal wiring: the
// feedback loop taken after the embedding, as the daemon does.
func TestOwedLearnSurvivesReopen(t *testing.T) {
	checkOwedLearnSurvivesReopen(t, false, false)
}

// TestOwedLearnSurvivesReopenFeedbackFirst: a loop taken before the
// embedding exists, and a store swapped by a second TrainEmbedding, still
// journal to the store that serves, so a restart keeps the owed learn.
func TestOwedLearnSurvivesReopenFeedbackFirst(t *testing.T) {
	checkOwedLearnSurvivesReopen(t, true, true)
}
