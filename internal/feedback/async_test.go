package feedback

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/incident"
)

// blockingLearner is a concurrency-safe learner whose Learn can be gated,
// so tests control exactly when background ingest work completes.
type blockingLearner struct {
	mu      sync.Mutex
	learned []*incident.Incident
	gate    chan struct{} // non-nil: Learn blocks until it receives
	failIDs map[string]bool
}

func (b *blockingLearner) Learn(inc *incident.Incident) error {
	if b.gate != nil {
		<-b.gate
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failIDs[inc.ID] {
		return fmt.Errorf("boom for %s", inc.ID)
	}
	b.learned = append(b.learned, inc)
	return nil
}

func (b *blockingLearner) count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.learned)
}

func TestStartIngestValidation(t *testing.T) {
	if err := New(nil, nil).StartIngest(4); err == nil {
		t.Fatal("record-only loop must refuse ingest")
	}
	lp := New(nil, &blockingLearner{})
	if err := lp.StartIngest(4); err != nil {
		t.Fatal(err)
	}
	defer lp.Close()
	if err := lp.StartIngest(4); err == nil {
		t.Fatal("double StartIngest must fail")
	}
}

// TestAsyncSubmitReturnsBeforeLearn pins the hot-path contract: with the
// learner blocked, Submit still returns (the learn is queued), and Flush
// blocks until the learn lands — read-your-writes for the submitting OCE.
func TestAsyncSubmitReturnsBeforeLearn(t *testing.T) {
	gate := make(chan struct{})
	learner := &blockingLearner{gate: gate}
	lp := fixedLoop2(learner)
	if err := lp.StartIngest(8); err != nil {
		t.Fatal(err)
	}
	defer lp.Close()

	if _, err := lp.Submit(predicted("INC-A1", "X"), VerdictConfirm, "", "oce", ""); err != nil {
		t.Fatal(err)
	}
	if learner.count() != 0 {
		t.Fatal("Submit ran the learn inline despite async ingest")
	}
	// The verdict itself is recorded immediately, even before the learn.
	if _, ok := lp.Get("INC-A1"); !ok {
		t.Fatal("verdict not recorded")
	}

	flushed := make(chan error, 1)
	go func() { flushed <- lp.Flush() }()
	select {
	case err := <-flushed:
		t.Fatalf("Flush returned %v before the learn completed", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate) // let the worker learn
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if learner.count() != 1 {
		t.Fatalf("learned %d, want 1 after Flush", learner.count())
	}
}

// TestAsyncQueueFullFallsBackInline floods a size-1 queue behind a blocked
// worker: every submission must still be learned exactly once (the
// overflow learns inline on the submitter), never dropped.
func TestAsyncQueueFullFallsBackInline(t *testing.T) {
	gate := make(chan struct{})
	learner := &blockingLearner{gate: gate}
	lp := fixedLoop2(learner)
	if err := lp.StartIngest(1); err != nil {
		t.Fatal(err)
	}
	defer lp.Close()

	const n = 6
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			_, err := lp.Submit(predicted(fmt.Sprintf("INC-Q%d", i), "X"), VerdictConfirm, "", "oce", "")
			done <- err
		}(i)
	}
	// Unblock all learns (worker + inline fallbacks).
	close(gate)
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := lp.Flush(); err != nil {
		t.Fatal(err)
	}
	if learner.count() != n {
		t.Fatalf("learned %d, want %d", learner.count(), n)
	}
}

// TestAsyncFlushSurfacesLearnErrors: a failed background learn must not
// vanish — Flush reports it, then clears it.
func TestAsyncFlushSurfacesLearnErrors(t *testing.T) {
	learner := &blockingLearner{failIDs: map[string]bool{"INC-BAD": true}}
	lp := fixedLoop2(learner)
	if err := lp.StartIngest(8); err != nil {
		t.Fatal(err)
	}
	defer lp.Close()
	if _, err := lp.Submit(predicted("INC-BAD", "X"), VerdictConfirm, "", "oce", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := lp.Submit(predicted("INC-OK", "X"), VerdictConfirm, "", "oce", ""); err != nil {
		t.Fatal(err)
	}
	if err := lp.Flush(); err == nil {
		t.Fatal("Flush must surface the async learn error")
	}
	if err := lp.Flush(); err != nil {
		t.Fatalf("second Flush should be clean, got %v", err)
	}
	if learner.count() != 1 {
		t.Fatalf("learned %d, want 1", learner.count())
	}
}

// TestCloseDrainsAndRestoresSync: Close waits out queued learns, and
// submissions after Close learn synchronously again.
func TestCloseDrainsAndRestoresSync(t *testing.T) {
	learner := &blockingLearner{}
	lp := fixedLoop2(learner)
	if err := lp.StartIngest(8); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := lp.Submit(predicted(fmt.Sprintf("INC-C%d", i), "X"), VerdictConfirm, "", "oce", ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := lp.Close(); err != nil {
		t.Fatal(err)
	}
	if learner.count() != 5 {
		t.Fatalf("Close left %d learned, want 5", learner.count())
	}
	if err := lp.Close(); err != nil {
		t.Fatalf("second Close should be a no-op, got %v", err)
	}
	if _, err := lp.Submit(predicted("INC-AFTER", "X"), VerdictConfirm, "", "oce", ""); err != nil {
		t.Fatal(err)
	}
	if learner.count() != 6 {
		t.Fatal("post-Close Submit must learn synchronously")
	}
	// Ingest can be restarted after Close.
	if err := lp.StartIngest(4); err != nil {
		t.Fatalf("StartIngest after Close: %v", err)
	}
	if _, err := lp.Submit(predicted("INC-RESTART", "X"), VerdictConfirm, "", "oce", ""); err != nil {
		t.Fatal(err)
	}
	if err := lp.Close(); err != nil {
		t.Fatal(err)
	}
	if learner.count() != 7 {
		t.Fatalf("restarted ingest learned %d, want 7", learner.count())
	}
}

// TestAsyncConcurrentSubmitFlush hammers concurrent submitters against
// concurrent flushers; run under -race this proves the ingest locking.
func TestAsyncConcurrentSubmitFlush(t *testing.T) {
	learner := &blockingLearner{}
	lp := fixedLoop2(learner)
	if err := lp.StartIngest(4); err != nil {
		t.Fatal(err)
	}
	const writers, perW = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if _, err := lp.Submit(predicted(fmt.Sprintf("INC-H%d-%d", w, i), "X"), VerdictConfirm, "", "oce", ""); err != nil {
					t.Error(err)
					return
				}
				if i%10 == 0 {
					if err := lp.Flush(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := lp.Close(); err != nil {
		t.Fatal(err)
	}
	if learner.count() != writers*perW {
		t.Fatalf("learned %d, want %d", learner.count(), writers*perW)
	}
}

// fixedLoop2 mirrors fixedLoop for the async learner type.
func fixedLoop2(l Learner) *Loop {
	lp := New(nil, l)
	t0 := time.Date(2022, 7, 1, 0, 0, 0, 0, time.UTC)
	var mu sync.Mutex
	n := 0
	lp.SetClock(func() time.Time { mu.Lock(); n++; d := n; mu.Unlock(); return t0.Add(time.Duration(d) * time.Minute) })
	return lp
}

// TestAsyncFailureSurfacesWithoutFlush is the regression test for the
// async error-surfacing satellite: a failed background learn must become
// visible — through the notifier and Failures — without anyone calling
// Flush.
func TestAsyncFailureSurfacesWithoutFlush(t *testing.T) {
	learner := &blockingLearner{failIDs: map[string]bool{"INC-BAD": true}}
	lp := fixedLoop2(learner)
	notified := make(chan Failure, 1)
	lp.SetNotifier(func(f Failure) { notified <- f })
	if err := lp.StartIngest(8); err != nil {
		t.Fatal(err)
	}
	defer lp.Close()

	if _, err := lp.Submit(predicted("INC-BAD", "X"), VerdictConfirm, "", "oce-alice", "note"); err != nil {
		t.Fatal(err)
	}
	// No Flush anywhere: the notifier is the delivery path.
	var f Failure
	select {
	case f = <-notified:
	case <-time.After(5 * time.Second):
		t.Fatal("notifier never fired for the failed background learn")
	}
	if f.IncidentID != "INC-BAD" || f.Reviewer != "oce-alice" || f.Err == nil {
		t.Fatalf("notified failure %+v lacks attribution", f)
	}
	if f.At.IsZero() {
		t.Fatal("failure has no timestamp")
	}
	if all := lp.Failures(); len(all) != 1 || all[0].IncidentID != "INC-BAD" ||
		all[0].Reviewer != "oce-alice" || all[0].Attempts != 1 {
		t.Fatalf("Failures = %+v, want exactly the one failure", all)
	}

	// Flush clears the aggregate error but NOT the per-incident record.
	if err := lp.Flush(); err == nil {
		t.Fatal("Flush must still aggregate the async error")
	}
	if _, ok := owedFor(lp, "INC-BAD"); !ok {
		t.Fatal("Flush cleared the per-incident failure record")
	}

	// A later successful learn for the same incident resolves the failure.
	learner.mu.Lock()
	learner.failIDs = nil
	learner.mu.Unlock()
	if _, err := lp.Submit(predicted("INC-BAD", "X"), VerdictConfirm, "", "oce-alice", "retry"); err != nil {
		t.Fatal(err)
	}
	if err := lp.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(lp.Failures()) != 0 {
		t.Fatalf("Failures = %+v after recovery, want none", lp.Failures())
	}
}

// TestInlineFailureAlsoRecorded: with ingest off, the learn error returns
// straight to the submitter AND lands in the failure record, so the
// dashboard view is complete either way.
func TestInlineFailureAlsoRecorded(t *testing.T) {
	learner := &blockingLearner{failIDs: map[string]bool{"INC-SYNC": true}}
	lp := fixedLoop2(learner)
	if _, err := lp.Submit(predicted("INC-SYNC", "X"), VerdictConfirm, "", "oce-bob", ""); err == nil {
		t.Fatal("inline learn failure must return to the submitter")
	}
	f, ok := owedFor(lp, "INC-SYNC")
	if !ok || f.Reviewer != "oce-bob" {
		t.Fatalf("inline failure not recorded: %+v/%v", f, ok)
	}
}
