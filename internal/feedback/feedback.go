// Package feedback implements the OCE feedback loop the paper deploys with
// RCACopilot (§5.5): every prediction is presented to on-call engineers for
// review, incident notification emails carry a feedback mechanism, and
// confirmed labels flow back into the incident history so the system
// "adapt[s] to new and evolving types of incidents, learning from previous
// data to improve future predictions" (§1).
//
// The loop closes three ways:
//
//   - Confirm: the OCE agrees with the predicted category; the incident is
//     learned into the vector store under that label.
//   - Correct: the OCE assigns a different (possibly brand-new) category;
//     the incident is learned under the corrected label — this is how a
//     coined keyword like "I/O Bottleneck" becomes the canonical "DiskFull"
//     after post-investigation (§5.3).
//   - Reject: the prediction is recorded as wrong without a replacement
//     label (e.g. investigation still open); nothing is learned yet.
//
// The store keeps per-category accuracy so teams can watch prediction
// quality per root cause, mirroring the satisfaction tracking the paper
// reports from its deployment.
//
// # Asynchronous learning
//
// Learning an incident re-summarizes and embeds it — LLM work that by
// default runs inline in Submit, on the OCE's hot path. StartIngest moves
// it onto a background worker behind a bounded queue: Submit records the
// verdict and returns immediately, the worker drains the queue, and a full
// queue degrades gracefully by learning inline (backpressure, never
// unbounded memory). The worker draws its slot from the shared
// internal/parallel budget so feedback ingest and batch evaluation share
// one process-wide concurrency bound. Flush is the read-your-writes
// barrier: it blocks until everything submitted so far is learned (and
// surfaces any async learn errors), so a submitting OCE who wants their
// confirmation reflected in the next retrieval calls Flush first.
//
// # Owed learns
//
// A confirm or correct verdict whose learn fails leaves the loop owing
// that learn. The loop keeps one record per owed learn, a Failure
// (incident, reviewer, error, time, attempts, next redrive, exhaustion),
// and Failures is its one view: it needs no Flush, and a record stands
// until the same incident learns successfully. A deferred (async) failure
// is also pushed through the optional SetNotifier hook the moment it
// happens, the path a deployment wires to the email channel incident
// reports use (report.RenderLearnFailure renders the body); an inline
// failure returns to the submitter as Submit's error. Flush still
// aggregates and clears the async errors for read-your-writes callers.
//
// StartRetry redrives owed learns without the OCE resubmitting, so a
// transient embedder outage heals once the dependency recovers. The first
// redrive is due 30 s after the failure, each further one doubles the
// delay up to a 10 min cap, and each delay gains up to 25% deterministic
// per-incident jitter so one outage's failures do not redrive in
// lockstep. After 8 attempts (the original learn counts as the first) the
// record is exhausted: it stands, but no further redrives are spent on it
// until a resubmitted verdict replaces it. A background worker polls the
// schedule every 15 s off the loop's injectable clock (SetClock);
// RedriveDue is the explicit pump for tests and simulations.
//
// AttachJournal makes owed learns durable: every change to an owed learn
// is logged to a Journal (the durable vector store's WAL sidecar), a
// restarted loop adopts what the log owes, and a log rotation re-logs the
// live set.
package feedback

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"repro/internal/incident"
	"repro/internal/kvstore"
	"repro/internal/parallel"
)

// Verdict is the OCE's judgement on one prediction.
type Verdict string

// Verdicts.
const (
	VerdictConfirm Verdict = "confirm"
	VerdictCorrect Verdict = "correct"
	VerdictReject  Verdict = "reject"
)

// Entry is one recorded piece of feedback.
type Entry struct {
	IncidentID string            `json:"incidentId"`
	Predicted  incident.Category `json:"predicted"`
	Verdict    Verdict           `json:"verdict"`
	// Corrected is the OCE-assigned label for VerdictCorrect.
	Corrected incident.Category `json:"corrected,omitempty"`
	Reviewer  string            `json:"reviewer"`
	At        time.Time         `json:"at"`
	Note      string            `json:"note,omitempty"`
}

// Learner is the slice of the pipeline the loop feeds back into —
// *core.Copilot satisfies it.
type Learner interface {
	Learn(inc *incident.Incident) error
}

// Failure is one owed learn: a confirm or correct verdict whose learn
// into the incident history failed and has not succeeded since. It
// carries enough for a notification to reach the OCE who submitted the
// verdict, and the redrive schedule a dashboard shows beside it.
type Failure struct {
	// IncidentID identifies the incident whose learn failed.
	IncidentID string
	// Reviewer is the OCE who submitted the verdict that queued the learn.
	Reviewer string
	// Err is the most recent learn error.
	Err error
	// At is when the failure was last recorded.
	At time.Time
	// Attempts counts learn attempts so far; the original failed learn
	// is attempt 1.
	Attempts int
	// NextDue is when the next redrive fires per the loop's clock; zero
	// while retrying is off (StartRetry) or once exhausted.
	NextDue time.Time
	// Exhausted reports that the attempts ran out: the record stands
	// until the OCE resubmits, and no further redrives are spent on it.
	Exhausted bool
}

// The owed-learn redrive schedule (StartRetry).
const (
	// retryBase is the delay before the first redrive; each further
	// redrive doubles it.
	retryBase = 30 * time.Second
	// retryCap bounds the doubled delay.
	retryCap = 10 * time.Minute
	// retryMaxAttempts bounds learn attempts per owed learn, the original
	// failed learn included.
	retryMaxAttempts = 8
	// retryPoll is how often the background worker checks for due
	// redrives.
	retryPoll = 15 * time.Second
)

// learnTask is one queued background learn, carrying the submitting
// reviewer so a failure can be attributed back to them.
type learnTask struct {
	inc      *incident.Incident
	reviewer string
}

// owedLearn is the loop's record of one owed learn: its public Failure
// and the labelled incident a redrive learns.
type owedLearn struct {
	Failure
	inc *incident.Incident
	// inflight marks a redrive in progress, so overlapping RedriveDue
	// calls never double-learn one incident.
	inflight bool
}

// Loop records feedback and feeds confirmed/corrected incidents back into
// the learner. Safe for concurrent use.
type Loop struct {
	mu      sync.Mutex
	store   *kvstore.Store
	learner Learner

	// clockMu guards clock: the ingest worker timestamps failures off the
	// Submit goroutine, so SetClock must not race a background read.
	clockMu sync.Mutex
	clock   func() time.Time

	// ingest guards the async-learning state; nil queue = synchronous.
	ingest struct {
		mu      sync.Mutex
		cond    *sync.Cond
		queue   chan learnTask
		done    chan struct{}
		closed  bool
		pending int
		errs    []error
		granted int
		// owed holds the owed learn per incident; a later successful
		// learn for the incident deletes it.
		owed   map[string]*owedLearn
		notify func(Failure)
		// retryOn is set between StartRetry and Close.
		retryOn   bool
		retryStop chan struct{}
		retryDone chan struct{}
		// journal, when attached (AttachJournal), logs every owed-learn
		// change; appended to outside ig.mu.
		journal Journal
	}
}

// backoffDelay returns the delay before attempt n+1 given n attempts so
// far: retryBase doubled per extra attempt, capped at retryCap, plus up
// to 25% of deterministic jitter derived from (incident, attempt), so a
// burst of failures from one embedder outage doesn't redrive in lockstep
// and tests get reproducible schedules.
func backoffDelay(incidentID string, attempts int) time.Duration {
	d := retryBase
	for i := 1; i < attempts && d < retryCap; i++ {
		d *= 2
	}
	if d > retryCap {
		d = retryCap
	}
	h := fnv.New32a()
	fmt.Fprintf(h, "%s/%d", incidentID, attempts)
	jitter := time.Duration(uint64(d) / 4 * uint64(h.Sum32()%1000) / 1000)
	return d + jitter
}

// New returns a Loop persisting entries to the given store (a fresh
// in-memory store when nil) and feeding the learner (which may be nil for
// record-only use).
func New(store *kvstore.Store, learner Learner) *Loop {
	if store == nil {
		store = kvstore.New()
	}
	l := &Loop{store: store, learner: learner, clock: time.Now}
	l.ingest.owed = make(map[string]*owedLearn)
	return l
}

// SetClock overrides the timestamp source (tests, simulations). The
// clock function itself must be safe for concurrent calls when ingest is
// running.
func (l *Loop) SetClock(now func() time.Time) {
	l.clockMu.Lock()
	l.clock = now
	l.clockMu.Unlock()
}

// now reads the clock under its own lock, callable from any goroutine.
func (l *Loop) now() time.Time {
	l.clockMu.Lock()
	clock := l.clock
	l.clockMu.Unlock()
	return clock()
}

func entryKey(incidentID string) string { return "feedback/" + incidentID }

// Submit records a verdict for a predicted incident and, for confirm and
// correct verdicts, learns the incident under its final label. The
// incident must carry a prediction.
func (l *Loop) Submit(inc *incident.Incident, verdict Verdict, corrected incident.Category, reviewer, note string) (*Entry, error) {
	if inc == nil || inc.ID == "" {
		return nil, fmt.Errorf("feedback: incident required")
	}
	if inc.Predicted == "" {
		return nil, fmt.Errorf("feedback: incident %s has no prediction to review", inc.ID)
	}
	var final incident.Category
	switch verdict {
	case VerdictConfirm:
		final = inc.Predicted
	case VerdictCorrect:
		if corrected == "" {
			return nil, fmt.Errorf("feedback: correct verdict for %s needs a corrected category", inc.ID)
		}
		final = corrected
	case VerdictReject:
		if corrected != "" {
			return nil, fmt.Errorf("feedback: reject verdict for %s must not carry a corrected category", inc.ID)
		}
	default:
		return nil, fmt.Errorf("feedback: unknown verdict %q", verdict)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	e := &Entry{
		IncidentID: inc.ID,
		Predicted:  inc.Predicted,
		Verdict:    verdict,
		Corrected:  corrected,
		Reviewer:   reviewer,
		At:         l.now(),
		Note:       note,
	}
	data, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("feedback: encode: %w", err)
	}
	l.store.Put(entryKey(inc.ID), data)

	if final != "" && l.learner != nil {
		learned := inc.Clone()
		learned.Category = final
		if err := l.learnOrEnqueue(learnTask{inc: learned, reviewer: reviewer}); err != nil {
			return nil, fmt.Errorf("feedback: learn %s: %w", inc.ID, err)
		}
	}
	return e, nil
}

// learnOrEnqueue hands a labelled incident to the background ingest worker
// when one is running, falling back to an inline learn when the queue is
// full (backpressure) or ingest is off/closed (the synchronous default).
// Inline learns report their error straight back to the submitter; only
// deferred ones need the Failure record.
func (l *Loop) learnOrEnqueue(task learnTask) error {
	ig := &l.ingest
	ig.mu.Lock()
	if ig.queue == nil || ig.closed {
		ig.mu.Unlock()
		return l.learnAndRecord(task, false)
	}
	ig.pending++
	select {
	case ig.queue <- task:
		ig.mu.Unlock()
		return nil
	default:
		// Queue full: the submitter pays for this one inline, which is
		// exactly the pre-async behaviour — bounded memory, no lost learns.
		ig.pending--
		ig.mu.Unlock()
		return l.learnAndRecord(task, false)
	}
}

// learnAndRecord runs one learn and maintains the incident's owed-learn
// record: a failure records (or replaces) it, journals it and, for
// deferred learns, pushes it through the notifier (inline failures
// already reach the submitter as a return value); success deletes any
// record for the incident.
func (l *Loop) learnAndRecord(task learnTask, deferred bool) error {
	err := l.learner.Learn(task.inc)
	ig := &l.ingest
	id := task.inc.ID
	ig.mu.Lock()
	if err == nil {
		// Only a learn that settles an owed one is worth journaling; the
		// common clean-success path is not.
		_, wasOwed := ig.owed[id]
		if !wasOwed {
			ig.mu.Unlock()
			return nil
		}
		delete(ig.owed, id)
		t, j := clearedTransition(id, task.reviewer, l.now()), ig.journal
		ig.mu.Unlock()
		appendTransition(j, t)
		return nil
	}
	o := &owedLearn{
		Failure: Failure{IncidentID: id, Reviewer: task.reviewer, Err: err, At: l.now(), Attempts: 1},
		inc:     task.inc,
	}
	if ig.retryOn {
		o.NextDue = o.At.Add(backoffDelay(id, o.Attempts))
	}
	ig.owed[id] = o
	f, t, j, notify := o.Failure, o.transition(), ig.journal, ig.notify
	ig.mu.Unlock()
	appendTransition(j, t)
	if deferred && notify != nil {
		notify(f)
	}
	return err
}

// StartIngest starts the background learn worker with the given queue
// capacity (default 64 when <= 0). It fails if the loop has no learner or
// ingest is already running; after a Close it starts a fresh worker. The
// worker holds at most one slot of the shared internal/parallel budget,
// released on Close.
func (l *Loop) StartIngest(queueSize int) error {
	if l.learner == nil {
		return fmt.Errorf("feedback: StartIngest on a record-only loop (no learner)")
	}
	if queueSize <= 0 {
		queueSize = 64
	}
	ig := &l.ingest
	ig.mu.Lock()
	defer ig.mu.Unlock()
	if ig.queue != nil && !ig.closed {
		return fmt.Errorf("feedback: ingest already started")
	}
	ig.cond = sync.NewCond(&ig.mu)
	ig.queue = make(chan learnTask, queueSize)
	ig.done = make(chan struct{})
	ig.closed = false
	ig.granted = parallel.Reserve(1)
	go l.ingestWorker(ig.queue, ig.done)
	return nil
}

// ingestWorker drains queued learns until the queue closes. Failures are
// recorded per incident and pushed through the notifier immediately (see
// learnAndRecord) in addition to feeding the Flush error aggregate.
func (l *Loop) ingestWorker(queue <-chan learnTask, done chan<- struct{}) {
	defer close(done)
	ig := &l.ingest
	for task := range queue {
		err := l.learnAndRecord(task, true)
		ig.mu.Lock()
		ig.pending--
		if err != nil {
			ig.errs = append(ig.errs, fmt.Errorf("feedback: learn %s: %w", task.inc.ID, err))
		}
		ig.cond.Broadcast()
		ig.mu.Unlock()
	}
}

// SetNotifier installs the delivery hook for failed background learns:
// it is invoked once per deferred failure, as the failure happens, from
// the ingest worker (keep it fast or hand off). This is how a deployment
// routes the failure back to the submitting OCE — typically by sending
// report.RenderLearnFailure's text through the same channel that carries
// incident notifications. A nil notifier (the default) leaves failures
// queryable via Failures only.
func (l *Loop) SetNotifier(fn func(Failure)) {
	ig := &l.ingest
	ig.mu.Lock()
	ig.notify = fn
	ig.mu.Unlock()
}

// Failures returns every owed learn, ordered by incident ID. Unlike
// Flush's error aggregate this does not clear: a record stands until the
// same incident learns successfully, by redrive or resubmitted verdict.
func (l *Loop) Failures() []Failure {
	ig := &l.ingest
	ig.mu.Lock()
	out := make([]Failure, 0, len(ig.owed))
	for _, o := range ig.owed {
		out = append(out, o.Failure)
	}
	ig.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].IncidentID < out[j].IncidentID })
	return out
}

// StartRetry starts redriving owed learns, those recorded before the call
// included, on the schedule the package doc states, so a transient
// embedder outage heals without every OCE resubmitting their verdict. A
// background worker polls the schedule; deployments driving a simulated
// clock (SetClock) can call RedriveDue directly instead. Stopped by
// Close.
func (l *Loop) StartRetry() error {
	if l.learner == nil {
		return fmt.Errorf("feedback: StartRetry on a record-only loop (no learner)")
	}
	ig := &l.ingest
	ig.mu.Lock()
	if ig.retryOn {
		ig.mu.Unlock()
		return fmt.Errorf("feedback: retry already started")
	}
	ig.retryOn = true
	// Owed learns recorded before retry was on have no schedule yet: the
	// first redrive is due one backoff from now. Journal the due times so
	// they survive a crash before the next change.
	ts := l.scheduleLocked(l.now())
	ig.retryStop = make(chan struct{})
	ig.retryDone = make(chan struct{})
	stop, done, j := ig.retryStop, ig.retryDone, ig.journal
	ig.mu.Unlock()
	for _, t := range ts {
		appendTransition(j, t)
	}
	go l.retryWorker(stop, done)
	return nil
}

// scheduleLocked gives every unscheduled, unexhausted owed learn its next
// redrive from now and returns their transitions. Caller holds ig.mu
// with retrying on.
func (l *Loop) scheduleLocked(now time.Time) []retryTransition {
	var ts []retryTransition
	for id, o := range l.ingest.owed {
		if o.NextDue.IsZero() && !o.Exhausted {
			o.NextDue = now.Add(backoffDelay(id, o.Attempts))
			ts = append(ts, o.transition())
		}
	}
	return ts
}

// retryWorker polls the redrive schedule until Close.
func (l *Loop) retryWorker(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(retryPoll)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			l.RedriveDue()
		}
	}
}

// RedriveDue redrives every owed learn whose backoff has elapsed per the
// loop's clock and returns how many learns were attempted. On another
// failure the record's attempts, error and time update and the next
// redrive backs off further (no notification — the OCE was told when the
// failure was recorded); on success the record is deleted exactly as a
// resubmitted learn would delete it. The StartRetry worker calls this on
// its poll cadence; tests drive it directly against SetClock.
func (l *Loop) RedriveDue() int {
	ig := &l.ingest
	now := l.now()
	ig.mu.Lock()
	if !ig.retryOn {
		ig.mu.Unlock()
		return 0
	}
	var due []*owedLearn
	for _, o := range ig.owed {
		if !o.inflight && !o.NextDue.IsZero() && !o.NextDue.After(now) {
			o.inflight = true
			due = append(due, o)
		}
	}
	ig.mu.Unlock()
	// Deterministic redrive order for tests and logs.
	sort.Slice(due, func(i, j int) bool { return due[i].IncidentID < due[j].IncidentID })

	for _, o := range due {
		// Learn a copy: the learner may write to its incident (core.Learn
		// stores the summary it makes), while the journal encodes o.inc
		// outside ig.mu.
		err := l.learner.Learn(o.inc.Clone())
		id := o.IncidentID
		ig.mu.Lock()
		o.inflight = false
		if ig.owed[id] != o {
			// While this redrive ran, a concurrent Submit for the same
			// incident recorded a newer verdict's failure (replacing the
			// record) or learned successfully (deleting it). The newer
			// outcome owns the incident — this redrive's stale result
			// must not clobber or clear it.
			ig.mu.Unlock()
			continue
		}
		var t retryTransition
		if err == nil {
			delete(ig.owed, id)
			t = clearedTransition(id, o.Reviewer, l.now())
		} else {
			o.Attempts++
			o.Err, o.At = err, l.now()
			if o.Attempts >= retryMaxAttempts {
				// Exhausted: the record stands so dashboards still see
				// it, but no further learner calls are spent on it; a
				// resubmitted verdict replaces it with a fresh record.
				o.NextDue = time.Time{}
				o.Exhausted = true
			} else {
				o.NextDue = o.At.Add(backoffDelay(id, o.Attempts))
			}
			t = o.transition()
		}
		j := ig.journal
		ig.mu.Unlock()
		appendTransition(j, t)
	}
	return len(due)
}

// Flush blocks until every learn submitted before the call has been
// applied — the read-your-writes barrier for a submitting OCE — and
// returns (and clears) any errors the background learns accumulated. With
// ingest off it returns nil immediately: the synchronous path has no
// deferred work. The owed-learn records survive a Flush; only the
// aggregate clears.
func (l *Loop) Flush() error {
	ig := &l.ingest
	ig.mu.Lock()
	defer ig.mu.Unlock()
	for ig.pending > 0 {
		ig.cond.Wait()
	}
	err := errors.Join(ig.errs...)
	ig.errs = nil
	return err
}

// Close stops the retry worker and the ingest worker (after draining the
// queue), returns the ingest slot to the shared budget, and reports any
// remaining async learn errors. Submissions after Close learn
// synchronously again; Close on a loop that never started either worker
// is a no-op.
func (l *Loop) Close() error {
	ig := &l.ingest
	ig.mu.Lock()
	if ig.retryOn {
		ig.retryOn = false
		close(ig.retryStop)
		retryDone := ig.retryDone
		ig.mu.Unlock()
		<-retryDone
		ig.mu.Lock()
	}
	if ig.queue == nil || ig.closed {
		ig.mu.Unlock()
		return nil
	}
	ig.closed = true
	close(ig.queue)
	done, granted := ig.done, ig.granted
	ig.granted = 0
	ig.mu.Unlock()

	<-done
	parallel.Release(granted)
	return l.Flush()
}

// Get returns the latest feedback for an incident.
func (l *Loop) Get(incidentID string) (*Entry, bool) {
	data, ok := l.store.Get(entryKey(incidentID))
	if !ok {
		return nil, false
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, false
	}
	return &e, true
}

// History returns every feedback revision for an incident, oldest first
// (an incident may be re-reviewed after post-mortem).
func (l *Loop) History(incidentID string) []Entry {
	var out []Entry
	for _, v := range l.store.History(entryKey(incidentID)) {
		var e Entry
		if err := json.Unmarshal(v.Value, &e); err == nil {
			out = append(out, e)
		}
	}
	return out
}

// Stats aggregates prediction quality from the recorded feedback.
type Stats struct {
	Total     int
	Confirmed int
	Corrected int
	Rejected  int
	// ByPredicted counts verdicts per predicted category.
	ByPredicted map[incident.Category]CategoryStats
}

// CategoryStats is the per-category breakdown.
type CategoryStats struct {
	Confirmed int
	Corrected int
	Rejected  int
}

// Accuracy is the confirmed share of reviewed predictions.
func (s Stats) Accuracy() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Confirmed) / float64(s.Total)
}

// ComputeStats scans all feedback (latest verdict per incident).
func (l *Loop) ComputeStats() Stats {
	s := Stats{ByPredicted: make(map[incident.Category]CategoryStats)}
	for _, key := range l.store.Keys("feedback/") {
		data, ok := l.store.Get(key)
		if !ok {
			continue
		}
		var e Entry
		if err := json.Unmarshal(data, &e); err != nil {
			continue
		}
		s.Total++
		cs := s.ByPredicted[e.Predicted]
		switch e.Verdict {
		case VerdictConfirm:
			s.Confirmed++
			cs.Confirmed++
		case VerdictCorrect:
			s.Corrected++
			cs.Corrected++
		case VerdictReject:
			s.Rejected++
			cs.Rejected++
		}
		s.ByPredicted[e.Predicted] = cs
	}
	return s
}

// CorrectionTable returns the observed coined-keyword → canonical-label
// corrections, most frequent first — the data from which a synonym table
// like EXPERIMENTS.md's scoring protocol is curated.
func (l *Loop) CorrectionTable() []Correction {
	counts := make(map[Correction]int)
	for _, key := range l.store.Keys("feedback/") {
		data, ok := l.store.Get(key)
		if !ok {
			continue
		}
		var e Entry
		if err := json.Unmarshal(data, &e); err != nil || e.Verdict != VerdictCorrect {
			continue
		}
		counts[Correction{From: e.Predicted, To: e.Corrected}]++
	}
	out := make([]Correction, 0, len(counts))
	for c := range counts {
		c.Count = counts[c]
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].From < out[j].From
	})
	return out
}

// Correction is one observed predicted→canonical mapping.
type Correction struct {
	From  incident.Category
	To    incident.Category
	Count int
}
