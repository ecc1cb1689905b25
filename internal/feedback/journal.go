package feedback

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/incident"
)

// Journal is the durable log owed learns ride on: opaque sidecar records
// in a write-ahead log. *vectordb.Durable satisfies it.
type Journal interface {
	// AppendRetry logs one encoded owed-learn change.
	AppendRetry(payload []byte) error
	// RetryRecords returns the changes replayed when the log was opened,
	// in log order.
	RetryRecords() [][]byte
	// SetRetrySnapshot installs what a log rotation re-logs into the
	// fresh log: one record per live owed learn.
	SetRetrySnapshot(fn func() [][]byte)
}

// AttachJournal makes j the loop's durable record of owed learns. It
// adopts the owed learns j's log replayed (applied in log order, last
// change per incident wins), except those the loop already owes: the
// loop's own record is newer. It then logs every owed learn the loop
// held, so the log agrees with the loop, logs every later change as it
// happens, and has j's log rotation re-log the live set. Attach again
// when the store behind j is reopened (an embedder swap reopens it): the
// loop keeps its owed learns across the swap, and a restart finds them.
//
// Changes are appended outside the loop's locks (an append may take the
// log's own locks), so changes to different incidents may reach the log
// slightly out of order; per incident the redrive's inflight guard
// serializes them, so last-change-wins restore holds either way. A failed
// append leaves the in-memory record authoritative; the log reports its
// own health (vectordb.Durable's Stats().Err).
func (l *Loop) AttachJournal(j Journal) {
	logged := make(map[string]*owedLearn)
	for _, p := range j.RetryRecords() {
		t, err := decodeTransition(p)
		if err != nil {
			// The frame checksum verified, so this is a schema drift
			// across versions, not crash damage; dropping one owed learn
			// only costs a resubmit.
			continue
		}
		switch {
		case t.Cleared:
			delete(logged, t.IncidentID)
		case t.Incident != nil && t.IncidentID != "":
			logged[t.IncidentID] = t.owed()
		}
	}
	ig := &l.ingest
	ig.mu.Lock()
	ts := l.transitionsLocked()
	for id, o := range logged {
		if _, ok := ig.owed[id]; !ok {
			ig.owed[id] = o
		}
	}
	if ig.retryOn {
		ts = append(ts, l.scheduleLocked(l.now())...)
	}
	ig.journal = j
	ig.mu.Unlock()
	for _, t := range ts {
		appendTransition(j, t)
	}
	j.SetRetrySnapshot(l.snapshot)
}

// snapshot encodes one transition per owed learn, ordered by incident ID:
// what a log rotation re-logs so it never forgets the owed set.
func (l *Loop) snapshot() [][]byte {
	l.ingest.mu.Lock()
	ts := l.transitionsLocked()
	l.ingest.mu.Unlock()
	sort.Slice(ts, func(i, j int) bool { return ts[i].IncidentID < ts[j].IncidentID })
	out := make([][]byte, 0, len(ts))
	for _, t := range ts {
		if p, err := t.encode(); err == nil {
			out = append(out, p)
		}
	}
	return out
}

// transitionsLocked returns one transition per owed learn. Caller holds
// ig.mu.
func (l *Loop) transitionsLocked() []retryTransition {
	ts := make([]retryTransition, 0, len(l.ingest.owed))
	for _, o := range l.ingest.owed {
		ts = append(ts, o.transition())
	}
	return ts
}

// appendTransition logs t to j; a nil j (no journal attached) logs
// nothing.
func appendTransition(j Journal, t retryTransition) {
	if j == nil {
		return
	}
	if p, err := t.encode(); err == nil {
		_ = j.AppendRetry(p)
	}
}

// retryTransition is the wire form of one owed-learn change, gob-encoded
// into the journal. Its field names and types are the log format: logs
// already written restore only while they stay as they are. Two shapes:
//
//   - Cleared: the incident's learn succeeded (redrive or resubmit); a
//     restore drops any owed learn for it.
//   - Not cleared: the incident's learn failed (again); the carried
//     Incident, attempts and due time rebuild the owed learn on restore.
type retryTransition struct {
	IncidentID string
	Reviewer   string
	Attempts   int
	// NextDue is zero when exhausted, cleared, or retrying is off.
	NextDue   time.Time
	Exhausted bool
	Cleared   bool
	// Err is the learn error's text (errors don't gob-encode; the
	// restored Failure wraps this string).
	Err string
	At  time.Time
	// Incident is the labelled incident the owed learn redrives; nil on
	// Cleared transitions.
	Incident *incident.Incident
}

func (t retryTransition) encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&t); err != nil {
		return nil, fmt.Errorf("feedback: encode owed learn: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeTransition(p []byte) (retryTransition, error) {
	var t retryTransition
	if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&t); err != nil {
		return retryTransition{}, fmt.Errorf("feedback: decode owed learn: %w", err)
	}
	return t, nil
}

// clearedTransition is the journal record of a successful learn.
func clearedTransition(incidentID, reviewer string, at time.Time) retryTransition {
	return retryTransition{IncidentID: incidentID, Reviewer: reviewer, Cleared: true, At: at}
}

// transition is the journal record of o's current state. Caller holds
// ig.mu.
func (o *owedLearn) transition() retryTransition {
	return retryTransition{
		IncidentID: o.IncidentID,
		Reviewer:   o.Reviewer,
		Attempts:   o.Attempts,
		NextDue:    o.NextDue,
		Exhausted:  o.Exhausted,
		Err:        o.Err.Error(),
		At:         o.At,
		Incident:   o.inc,
	}
}

// owed rebuilds the owed learn a failed transition records. Restored due
// times in the past fire on the first RedriveDue: the right catch-up
// after downtime.
func (t retryTransition) owed() *owedLearn {
	return &owedLearn{
		Failure: Failure{
			IncidentID: t.IncidentID,
			Reviewer:   t.Reviewer,
			Err:        errors.New(t.Err),
			At:         t.At,
			Attempts:   t.Attempts,
			NextDue:    t.NextDue,
			Exhausted:  t.Exhausted,
		},
		inc: t.Incident,
	}
}
