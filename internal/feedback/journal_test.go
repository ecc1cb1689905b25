package feedback

import (
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/incident"
)

// fakeJournal is an in-memory Journal: the records a durable store's log
// would hold, its replay on reopen and its rotation.
type fakeJournal struct {
	mu   sync.Mutex
	recs [][]byte
	snap func() [][]byte
}

func (j *fakeJournal) AppendRetry(p []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.recs = append(j.recs, append([]byte(nil), p...))
	return nil
}

func (j *fakeJournal) RetryRecords() [][]byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([][]byte(nil), j.recs...)
}

func (j *fakeJournal) SetRetrySnapshot(fn func() [][]byte) { j.snap = fn }

// reopen is the journal a restarted process sees: the records logged so
// far, replayed.
func (j *fakeJournal) reopen() *fakeJournal { return &fakeJournal{recs: j.RetryRecords()} }

// rotate stands in for a compaction: the fresh log holds exactly the
// installed snapshot.
func (j *fakeJournal) rotate() {
	recs := j.snap()
	j.mu.Lock()
	j.recs = recs
	j.mu.Unlock()
}

// transitions decodes every logged record.
func (j *fakeJournal) transitions(t *testing.T) []retryTransition {
	t.Helper()
	var out []retryTransition
	for _, p := range j.RetryRecords() {
		tr, err := decodeTransition(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	return out
}

// TestRetryJournalSurvivesRestart is the feedback half of the durability
// story: every owed-learn change reaches the journal, and a fresh loop
// attached to the replayed journal owes exactly the redrives the crashed
// one owed — same attempts, same due time — then heals normally.
func TestRetryJournalSurvivesRestart(t *testing.T) {
	learner := &flakyLearner{}
	lp, clock := retryLoop(t, learner)
	j := &fakeJournal{}
	lp.AttachJournal(j)

	if _, err := lp.Submit(predicted("INC-J1", "DiskFull"), VerdictConfirm, "", "oce-a", ""); err == nil {
		t.Fatal("Submit during the outage must surface the inline learn error")
	}
	if ts := j.transitions(t); len(ts) != 1 || ts[0].Cleared {
		t.Fatalf("failure must journal one non-cleared transition, got %+v", ts)
	}
	// One redrive fails too: attempts advance in the journal.
	clock.advance(time.Minute)
	if lp.RedriveDue() != 1 {
		t.Fatal("redrive due")
	}
	if ts := j.transitions(t); len(ts) != 2 || ts[1].Attempts != 2 {
		t.Fatalf("failed redrive must journal attempts=2, got %+v", ts)
	}
	want := lp.Failures()

	// "Crash": a brand-new loop attached to the replayed journal, retry
	// started after the attach.
	learner2 := &flakyLearner{}
	lp2 := New(nil, learner2)
	clock2 := &fakeClock{now: clock.Now()}
	lp2.SetClock(clock2.Now)
	lp2.AttachJournal(j.reopen())
	got := lp2.Failures()
	if len(got) != 1 || got[0].IncidentID != "INC-J1" || got[0].Attempts != want[0].Attempts ||
		!got[0].NextDue.Equal(want[0].NextDue) || got[0].Reviewer != "oce-a" ||
		got[0].Err.Error() != want[0].Err.Error() {
		t.Fatalf("restored owed %+v, want %+v", got, want)
	}
	if err := lp2.StartRetry(); err != nil {
		t.Fatal(err)
	}
	defer lp2.Close()
	learner2.heal()
	clock2.advance(5 * time.Minute)
	if lp2.RedriveDue() != 1 {
		t.Fatal("restored failure must redrive when due")
	}
	if learner2.learnedCount() != 1 {
		t.Fatal("restored redrive must learn the carried incident")
	}
	if len(lp2.Failures()) != 0 {
		t.Fatal("healed failure must clear")
	}
}

// TestRetryJournalClearedWins pins last-write-wins restore: a journal
// ending in a Cleared transition restores to nothing owed, so a crash
// after the heal doesn't resurrect the failure.
func TestRetryJournalClearedWins(t *testing.T) {
	learner := &flakyLearner{}
	lp, clock := retryLoop(t, learner)
	j := &fakeJournal{}
	lp.AttachJournal(j)

	if _, err := lp.Submit(predicted("INC-J2", "DiskFull"), VerdictConfirm, "", "oce-b", ""); err == nil {
		t.Fatal("Submit during the outage must surface the inline learn error")
	}
	learner.heal()
	clock.advance(time.Minute)
	if lp.RedriveDue() != 1 {
		t.Fatal("redrive due")
	}
	ts := j.transitions(t)
	if last := ts[len(ts)-1]; !last.Cleared {
		t.Fatalf("heal must journal a Cleared transition, got %+v", last)
	}

	lp2 := New(nil, &flakyLearner{})
	lp2.AttachJournal(j.reopen())
	if got := lp2.Failures(); len(got) != 0 {
		t.Fatalf("cleared journal restored owed learns: %+v", got)
	}
}

// TestRetryTransitionsSnapshot pins the rotation hook: the snapshot
// AttachJournal installs re-logs the live owed set, which a loop attached
// to the rotated log restores.
func TestRetryTransitionsSnapshot(t *testing.T) {
	learner := &flakyLearner{}
	lp, _ := retryLoop(t, learner)
	j := &fakeJournal{}
	lp.AttachJournal(j)
	for _, id := range []string{"INC-S1", "INC-S2"} {
		if _, err := lp.Submit(predicted(id, "DiskFull"), VerdictConfirm, "", "oce", ""); err == nil {
			t.Fatal("Submit during the outage must surface the inline learn error")
		}
	}
	// Attach-time and per-change records are gone after the rotation;
	// only the snapshot remains.
	j.rotate()
	if ts := j.transitions(t); len(ts) != 2 || ts[0].IncidentID != "INC-S1" || ts[1].IncidentID != "INC-S2" {
		t.Fatalf("snapshot has %+v, want INC-S1 and INC-S2 in order", ts)
	}
	lp2 := New(nil, &flakyLearner{})
	lp2.AttachJournal(j.reopen())
	want, got := lp.Failures(), lp2.Failures()
	if len(got) != len(want) {
		t.Fatalf("snapshot restored %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i].IncidentID != want[i].IncidentID || got[i].Attempts != want[i].Attempts ||
			!got[i].NextDue.Equal(want[i].NextDue) {
			t.Fatalf("snapshot round-trip item %d: %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestRetryJournalAttachKeepsLoopRecords: attaching to a journal — late,
// or again after the store behind it reopened — adopts the owed learns
// only the log holds, keeps the loop's own (newer) record where both
// hold one, and logs the loop's records so a restart finds them too.
func TestRetryJournalAttachKeepsLoopRecords(t *testing.T) {
	// The log, from an earlier process: INC-A and INC-B owed.
	old := &fakeJournal{}
	prev, _ := retryLoop(t, &flakyLearner{})
	prev.AttachJournal(old)
	for _, id := range []string{"INC-A", "INC-B"} {
		if _, err := prev.Submit(predicted(id, "DiskFull"), VerdictConfirm, "", "oce-old", ""); err == nil {
			t.Fatal("want inline learn error")
		}
	}

	// This process owes INC-A (a newer verdict) and INC-C before any
	// journal is attached.
	lp, _ := retryLoop(t, &flakyLearner{})
	for _, id := range []string{"INC-A", "INC-C"} {
		if _, err := lp.Submit(predicted(id, "DiskFull"), VerdictConfirm, "", "oce-new", ""); err == nil {
			t.Fatal("want inline learn error")
		}
	}
	j := old.reopen()
	lp.AttachJournal(j)
	reviewers := func(fs []Failure) map[string]string {
		m := make(map[string]string)
		for _, f := range fs {
			m[f.IncidentID] = f.Reviewer
		}
		return m
	}
	want := map[string]string{"INC-A": "oce-new", "INC-B": "oce-old", "INC-C": "oce-new"}
	if got := reviewers(lp.Failures()); !reflect.DeepEqual(got, want) {
		t.Fatalf("owed after attach = %v, want %v", got, want)
	}
	lp2 := New(nil, &flakyLearner{})
	lp2.AttachJournal(j.reopen())
	if got := reviewers(lp2.Failures()); !reflect.DeepEqual(got, want) {
		t.Fatalf("owed after restart = %v, want %v", got, want)
	}
}

// TestRetryJournalRestoresParentFormat: the log format holds. Journal
// records written by an earlier encoder (testdata/*.gob, checked in as
// bytes) still restore: a failed transition rebuilds its
// owed learn field for field, incident included, and a cleared transition
// after it leaves nothing owed.
func TestRetryJournalRestoresParentFormat(t *testing.T) {
	read := func(name string) []byte {
		t.Helper()
		p, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	failed, cleared := read("retry_failed.gob"), read("retry_cleared.gob")

	at := time.Date(2022, 7, 1, 9, 30, 0, 0, time.UTC)
	wantInc := &incident.Incident{
		ID: "INC-WIRE-1", Title: "Hub port exhaustion on forest NAMPR01", OwningTeam: "Transport",
		Severity: incident.Sev2,
		Alert: incident.Alert{Type: "DeliveryHang", Scope: incident.ScopeForest, Monitor: "HubPortMonitor",
			Target: "NAMPR01", Message: "outbound connections failing", RaisedAt: at.Add(-time.Hour)},
		CreatedAt:    at.Add(-time.Hour),
		Evidence:     []incident.Evidence{{Source: "HubPortProbe", Kind: incident.SourceProbe, Body: "ports in use 64000/64512", Collected: at.Add(-50 * time.Minute)}},
		ActionOutput: map[string]string{"hubPortUsage": "99%"},
		Predicted:    "HubPortExhaustion",
		Category:     "HubPortExhaustion",
	}

	lp, _ := retryLoop(t, &flakyLearner{})
	lp.AttachJournal(&fakeJournal{recs: [][]byte{failed}})
	got := lp.Failures()
	if len(got) != 1 {
		t.Fatalf("restored %+v, want one owed learn", got)
	}
	f := got[0]
	if f.IncidentID != "INC-WIRE-1" || f.Reviewer != "oce-erin" || f.Attempts != 3 ||
		!f.NextDue.Equal(at.Add(2*time.Minute+7*time.Second)) || !f.At.Equal(at) || f.Exhausted ||
		f.Err.Error() != "core: embed INC-WIRE-1: embedding backend unavailable" {
		t.Fatalf("restored owed learn %+v", f)
	}
	// The carried incident is what a redrive learns.
	lp.ingest.mu.Lock()
	inc := lp.ingest.owed["INC-WIRE-1"].inc
	lp.ingest.mu.Unlock()
	if !reflect.DeepEqual(inc, wantInc) {
		t.Fatalf("restored incident %+v, want %+v", inc, wantInc)
	}

	lp2 := New(nil, &flakyLearner{})
	lp2.AttachJournal(&fakeJournal{recs: [][]byte{failed, cleared}})
	if got := lp2.Failures(); len(got) != 0 {
		t.Fatalf("failed then cleared restored %+v, want nothing owed", got)
	}
}

// summarizingLearner stores a summary on the incident it is given, then
// fails: core.Learn writes the summary it makes before embedding, and
// the embedder is down.
type summarizingLearner struct{}

func (summarizingLearner) Learn(inc *incident.Incident) error {
	inc.Summary = "summary of " + inc.ID
	return errFail
}

// TestRedriveRacesNoRotation: log rotations encode the owed incidents
// while redrives run, so a redrive must not let the learner write to an
// owed incident. Run under -race.
func TestRedriveRacesNoRotation(t *testing.T) {
	lp, clock := retryLoop(t, summarizingLearner{})
	j := &fakeJournal{}
	lp.AttachJournal(j)
	const owed = 8
	for i := 0; i < owed; i++ {
		if _, err := lp.Submit(predicted(fmt.Sprintf("INC-R%d", i), "DiskFull"), VerdictConfirm, "", "oce", ""); err == nil {
			t.Fatal("want inline learn error")
		}
	}
	clock.advance(time.Hour)
	done := make(chan int)
	go func() { done <- lp.RedriveDue() }()
	for {
		select {
		case n := <-done:
			if n != owed {
				t.Fatalf("RedriveDue = %d, want %d", n, owed)
			}
			return
		default:
			j.rotate()
		}
	}
}
