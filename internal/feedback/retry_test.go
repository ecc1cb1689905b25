package feedback

import (
	"sync"
	"testing"
	"time"

	"repro/internal/incident"
)

// flakyLearner fails until healed — the transient-embedder-outage shape
// the retry queue exists for. Concurrency-safe.
type flakyLearner struct {
	mu      sync.Mutex
	healthy bool
	learned []*incident.Incident
	calls   int
}

func (f *flakyLearner) Learn(inc *incident.Incident) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if !f.healthy {
		return errFail
	}
	f.learned = append(f.learned, inc)
	return nil
}

func (f *flakyLearner) heal() {
	f.mu.Lock()
	f.healthy = true
	f.mu.Unlock()
}

func (f *flakyLearner) learnedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.learned)
}

// fakeClock is a SetClock-driven manual clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// retryLoop builds a loop over a flaky learner with a manual clock and
// retrying on; tests pump RedriveDue directly rather than relying on the
// worker's poll cadence.
func retryLoop(t *testing.T, learner Learner) (*Loop, *fakeClock) {
	t.Helper()
	lp := New(nil, learner)
	clock := &fakeClock{now: time.Date(2022, 7, 1, 0, 0, 0, 0, time.UTC)}
	lp.SetClock(clock.Now)
	if err := lp.StartRetry(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lp.Close() })
	return lp, clock
}

// owedFor returns the loop's owed learn for one incident.
func owedFor(lp *Loop, incidentID string) (Failure, bool) {
	for _, f := range lp.Failures() {
		if f.IncidentID == incidentID {
			return f, true
		}
	}
	return Failure{}, false
}

// scheduled counts the owed learns awaiting a redrive: the daemon's
// retry backlog.
func scheduled(lp *Loop) int {
	n := 0
	for _, f := range lp.Failures() {
		if !f.NextDue.IsZero() {
			n++
		}
	}
	return n
}

// exhaust spends every redrive one owed learn has left (the original
// failed learn was attempt 1), an hour apart: past any capped backoff.
func exhaust(t *testing.T, lp *Loop, clock *fakeClock) {
	t.Helper()
	for i := 1; i < retryMaxAttempts; i++ {
		clock.advance(time.Hour)
		if n := lp.RedriveDue(); n != 1 {
			t.Fatalf("redrive %d: RedriveDue = %d, want 1", i, n)
		}
	}
}

func TestStartRetryValidation(t *testing.T) {
	if err := New(nil, nil).StartRetry(); err == nil {
		t.Fatal("StartRetry on a record-only loop must fail")
	}
	lp := New(nil, &flakyLearner{})
	if err := lp.StartRetry(); err != nil {
		t.Fatal(err)
	}
	defer lp.Close()
	if err := lp.StartRetry(); err == nil {
		t.Fatal("double StartRetry must fail")
	}
}

// TestRetryHealsTransientOutage: a failed learn redrives on the backoff
// schedule and succeeds once the embedder recovers — without the OCE
// resubmitting. Success deletes the owed learn exactly like a
// resubmitted learn.
func TestRetryHealsTransientOutage(t *testing.T) {
	learner := &flakyLearner{}
	lp, clock := retryLoop(t, learner)

	if _, err := lp.Submit(predicted("INC-1", "DiskFull"), VerdictConfirm, "", "oce", ""); err == nil {
		t.Fatal("Submit during the outage must surface the inline learn error")
	}
	if _, ok := owedFor(lp, "INC-1"); !ok {
		t.Fatal("failed learn must be recorded")
	}
	if got := scheduled(lp); got != 1 {
		t.Fatalf("scheduled = %d, want 1", got)
	}

	// Before the backoff elapses nothing redrives.
	if n := lp.RedriveDue(); n != 0 {
		t.Fatalf("RedriveDue before backoff = %d, want 0", n)
	}

	// First redrive: embedder still down — attempts climb, failure stays.
	clock.advance(time.Minute) // past base + max 25% jitter
	if n := lp.RedriveDue(); n != 1 {
		t.Fatalf("RedriveDue after backoff = %d, want 1", n)
	}
	if _, ok := owedFor(lp, "INC-1"); !ok {
		t.Fatal("failure must persist while the outage lasts")
	}

	// Outage ends; the next due redrive self-heals.
	learner.heal()
	clock.advance(2 * time.Minute) // past the doubled backoff + jitter
	if n := lp.RedriveDue(); n != 1 {
		t.Fatalf("RedriveDue after heal = %d, want 1", n)
	}
	if len(lp.Failures()) != 0 {
		t.Fatalf("successful redrive must clear the failure, owed %+v", lp.Failures())
	}
	if got := learner.learnedCount(); got != 1 {
		t.Fatalf("learned %d incidents, want 1", got)
	}
	// Nothing left to redrive.
	clock.advance(time.Hour)
	if n := lp.RedriveDue(); n != 0 {
		t.Fatalf("RedriveDue on empty backlog = %d, want 0", n)
	}
}

// TestRetryBackoffDoublesAndCaps: the gap between consecutive redrives
// doubles from 30 s and never exceeds 10 min (+25% jitter), driven
// entirely by the injected clock.
func TestRetryBackoffDoublesAndCaps(t *testing.T) {
	learner := &flakyLearner{}
	lp, clock := retryLoop(t, learner)

	if _, err := lp.Submit(predicted("INC-1", "DiskFull"), VerdictConfirm, "", "oce", ""); err == nil {
		t.Fatal("want inline learn error")
	}
	// Attempt n has backoff min(30s·2^(n-1), 10min) plus < 25% jitter.
	// Advancing by exactly the un-jittered delay must NOT trigger;
	// advancing by 1.25x must. Six redrives (attempts 2–7) reach the cap
	// before the eighth attempt exhausts the record.
	delays := []time.Duration{
		30 * time.Second, time.Minute, 2 * time.Minute, 4 * time.Minute, 8 * time.Minute, 10 * time.Minute,
	}
	for i, delay := range delays {
		clock.advance(delay)
		if n := lp.RedriveDue(); n != 0 {
			t.Fatalf("redrive %d: redrove before jitter elapsed", i+1)
		}
		clock.advance(delay / 4)
		if n := lp.RedriveDue(); n != 1 {
			t.Fatalf("redrive %d: RedriveDue = %d after full backoff window, want 1", i+1, n)
		}
	}
}

// TestRetryExhaustsAttempts: after 8 total learn attempts the queue stops
// redriving but the owed learn stands for the OCE.
func TestRetryExhaustsAttempts(t *testing.T) {
	learner := &flakyLearner{}
	lp, clock := retryLoop(t, learner)

	if _, err := lp.Submit(predicted("INC-1", "DiskFull"), VerdictConfirm, "", "oce", ""); err == nil {
		t.Fatal("want inline learn error")
	}
	exhaust(t, lp, clock)
	if got := scheduled(lp); got != 0 {
		t.Fatalf("scheduled after exhaustion = %d, want 0", got)
	}
	clock.advance(time.Hour)
	if n := lp.RedriveDue(); n != 0 {
		t.Fatalf("exhausted failure redrove anyway (%d)", n)
	}
	learner.mu.Lock()
	calls := learner.calls
	learner.mu.Unlock()
	if calls != retryMaxAttempts {
		t.Fatalf("learner called %d times, want %d attempts", calls, retryMaxAttempts)
	}
	if _, ok := owedFor(lp, "INC-1"); !ok {
		t.Fatal("exhausted failure record must stand until resubmitted")
	}
	// A resubmitted verdict still heals it the manual way.
	learner.heal()
	if _, err := lp.Submit(predicted("INC-1", "DiskFull"), VerdictConfirm, "", "oce", ""); err != nil {
		t.Fatal(err)
	}
	if _, ok := owedFor(lp, "INC-1"); ok {
		t.Fatal("resubmitted learn must clear the failure")
	}
}

// TestRetryCoversPreexistingFailures: failures recorded before StartRetry
// get scheduled when the queue starts (the deployment-restart shape).
func TestRetryCoversPreexistingFailures(t *testing.T) {
	learner := &flakyLearner{}
	lp := New(nil, learner)
	clock := &fakeClock{now: time.Date(2022, 7, 1, 0, 0, 0, 0, time.UTC)}
	lp.SetClock(clock.Now)

	if _, err := lp.Submit(predicted("INC-1", "DiskFull"), VerdictConfirm, "", "oce", ""); err == nil {
		t.Fatal("want inline learn error")
	}
	if f, _ := owedFor(lp, "INC-1"); !f.NextDue.IsZero() {
		t.Fatalf("owed learn scheduled before StartRetry: %+v", f)
	}
	if err := lp.StartRetry(); err != nil {
		t.Fatal(err)
	}
	defer lp.Close()
	if got := scheduled(lp); got != 1 {
		t.Fatalf("scheduled = %d after StartRetry, want the pre-existing failure scheduled", got)
	}
	learner.heal()
	clock.advance(time.Minute)
	if n := lp.RedriveDue(); n != 1 {
		t.Fatalf("RedriveDue = %d, want 1", n)
	}
	if _, ok := owedFor(lp, "INC-1"); ok {
		t.Fatal("pre-existing failure must heal via the retry queue")
	}
}

// scriptedLearner drives a precise interleaving: call 1 (the original
// submit) fails; call 2 (the redrive) signals started, parks on the gate,
// then succeeds; later calls fail.
type scriptedLearner struct {
	mu      sync.Mutex
	calls   int
	started chan struct{}
	gate    chan struct{}
}

func (s *scriptedLearner) Learn(inc *incident.Incident) error {
	s.mu.Lock()
	s.calls++
	n := s.calls
	s.mu.Unlock()
	switch n {
	case 1:
		return errFail
	case 2:
		s.started <- struct{}{}
		<-s.gate
		return nil
	default:
		return errFail
	}
}

// TestRedriveDoesNotClobberNewerVerdict: a verdict resubmitted while a
// redrive for the incident's OLD verdict is in flight owns the failure
// record — the stale redrive's success must not erase the new verdict's
// Failure or its retry schedule.
func TestRedriveDoesNotClobberNewerVerdict(t *testing.T) {
	learner := &scriptedLearner{started: make(chan struct{}), gate: make(chan struct{})}
	lp := New(nil, learner)
	clock := &fakeClock{now: time.Date(2022, 7, 1, 0, 0, 0, 0, time.UTC)}
	lp.SetClock(clock.Now)
	if err := lp.StartRetry(); err != nil {
		t.Fatal(err)
	}
	defer func() { lp.Close() }()

	// Original verdict fails inline (learner call 1) and schedules.
	if _, err := lp.Submit(predicted("INC-1", "DiskFull"), VerdictConfirm, "", "oce-1", ""); err == nil {
		t.Fatal("want inline learn error")
	}
	clock.advance(2 * time.Minute)

	// The redrive (learner call 2) parks mid-Learn...
	done := make(chan int)
	go func() { done <- lp.RedriveDue() }()
	<-learner.started

	// ...while the OCE resubmits an updated verdict, which fails too
	// (learner call 3) and replaces the incident's failure + schedule.
	if _, err := lp.Submit(predicted("INC-1", "NetworkDropIssue"), VerdictConfirm, "", "oce-2", ""); err == nil {
		t.Fatal("want inline learn error on the resubmit")
	}

	// The stale redrive now completes successfully: it must NOT clear the
	// newer verdict's record.
	close(learner.gate)
	if n := <-done; n != 1 {
		t.Fatalf("RedriveDue = %d, want 1", n)
	}
	f, ok := owedFor(lp, "INC-1")
	if !ok {
		t.Fatal("stale redrive success erased the newer verdict's failure record")
	}
	if f.Reviewer != "oce-2" {
		t.Fatalf("surviving failure belongs to %q, want the resubmitting oce-2", f.Reviewer)
	}
	if got := scheduled(lp); got != 1 {
		t.Fatalf("scheduled = %d, want the newer verdict still scheduled", got)
	}
}

// TestRetryWithAsyncIngest: the retry queue composes with the background
// ingest worker — deferred failures join the schedule and heal without
// any Flush or resubmit.
func TestRetryWithAsyncIngest(t *testing.T) {
	learner := &flakyLearner{}
	lp := New(nil, learner)
	clock := &fakeClock{now: time.Date(2022, 7, 1, 0, 0, 0, 0, time.UTC)}
	lp.SetClock(clock.Now)
	if err := lp.StartIngest(4); err != nil {
		t.Fatal(err)
	}
	if err := lp.StartRetry(); err != nil {
		t.Fatal(err)
	}
	defer lp.Close()

	if _, err := lp.Submit(predicted("INC-1", "DiskFull"), VerdictConfirm, "", "oce", ""); err != nil {
		t.Fatal(err) // deferred: Submit itself succeeds
	}
	// Drain the deferred learn (it fails and records).
	if err := lp.Flush(); err == nil {
		t.Fatal("Flush must surface the deferred learn error")
	}
	if got := scheduled(lp); got != 1 {
		t.Fatalf("scheduled = %d, want 1", got)
	}
	learner.heal()
	clock.advance(time.Minute)
	if n := lp.RedriveDue(); n != 1 {
		t.Fatalf("RedriveDue = %d, want 1", n)
	}
	if _, ok := owedFor(lp, "INC-1"); ok {
		t.Fatal("deferred failure must heal via the retry queue")
	}
	if got := learner.learnedCount(); got != 1 {
		t.Fatalf("learned %d, want 1", got)
	}
}

// TestRetryScheduleObservability: Failures must expose each owed learn's
// attempt count, next-due time and exhaustion — the state the serving
// daemon's /metrics and report.RenderRetryQueue render.
func TestRetryScheduleObservability(t *testing.T) {
	learner := &flakyLearner{}
	lp, clock := retryLoop(t, learner)

	if _, err := lp.Submit(predicted("INC-1", "DiskFull"), VerdictConfirm, "", "oce-a", ""); err == nil {
		t.Fatal("Submit during the outage must surface the inline learn error")
	}
	items := lp.Failures()
	if len(items) != 1 {
		t.Fatalf("owed = %+v, want 1 item", items)
	}
	it := items[0]
	if it.IncidentID != "INC-1" || it.Reviewer != "oce-a" {
		t.Fatalf("item = %+v", it)
	}
	if it.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (the failed inline learn)", it.Attempts)
	}
	if it.NextDue.IsZero() || !it.NextDue.After(clock.Now()) {
		t.Fatalf("NextDue = %v, want a future redrive", it.NextDue)
	}
	if it.Exhausted || it.Err == nil {
		t.Fatalf("item = %+v, want live failure with its error", it)
	}

	// Exhaust the budget. The record must survive as exhausted with no
	// schedule, not disappear.
	exhaust(t, lp, clock)
	items = lp.Failures()
	if len(items) != 1 {
		t.Fatalf("owed after exhaustion = %+v, want the exhausted record", items)
	}
	it = items[0]
	if !it.Exhausted || it.Attempts != retryMaxAttempts || !it.NextDue.IsZero() {
		t.Fatalf("exhausted item = %+v", it)
	}
	if got := scheduled(lp); got != 0 {
		t.Fatalf("scheduled counts exhausted items: %d", got)
	}
	// No further redrives are spent on it.
	clock.advance(time.Hour)
	if n := lp.RedriveDue(); n != 0 {
		t.Fatalf("RedriveDue on exhausted backlog = %d, want 0", n)
	}

	// A resubmitted verdict requeues it; success clears the record.
	learner.heal()
	if _, err := lp.Submit(predicted("INC-1", "DiskFull"), VerdictConfirm, "", "oce-a", ""); err != nil {
		t.Fatalf("resubmit after heal: %v", err)
	}
	if items := lp.Failures(); len(items) != 0 {
		t.Fatalf("owed after successful resubmit = %+v, want empty", items)
	}
}
