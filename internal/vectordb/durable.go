package vectordb

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/incident"
	"repro/internal/wal"
)

// WAL record types of the durable layer. The payloads are self-contained
// gob streams except walRecRetry, which is opaque to this package (the
// feedback loop's retry-schedule journal rides the same log).
const (
	// walRecEntry is one entry add, namespace tag included.
	walRecEntry byte = 1
	// walRecRetrain is one IVF retrain event: the trained centroids and
	// their training distortion, enough to reinstall routing on replay
	// without the original training vectors.
	walRecRetrain byte = 2
	// walRecTunerState is a serving-state update — the same versioned
	// payload as the v2 snapshot trailer (tunerState), adopted as a
	// record type so the converged probe budgets survive crashes between
	// compactions.
	walRecTunerState byte = 3
	// walRecRetry is an opaque sidecar record for the feedback loop's
	// retry-schedule transitions; replayed payloads are handed back via
	// RetryRecords.
	walRecRetry byte = 4
)

// ivfEvent is the gob payload of a walRecRetrain record.
type ivfEvent struct {
	Centroids  [][]float64
	Distortion float64
}

// Log file names inside a Durable's directory.
const (
	walLogName  = "wal.log"
	walSnapName = "snapshot.gob"
)

// DurableOptions parameterizes the durable layer's group commit and
// compaction.
type DurableOptions struct {
	// SyncEvery is the group-commit size boundary: the append that fills
	// the batch to this many records flushes and fsyncs it. Default 64;
	// 1 makes every add durable before Add returns.
	SyncEvery int
	// SyncInterval is the group-commit goroutine's flush cadence for
	// under-filled batches, and the housekeeping cadence for tuner-state
	// journaling and the compaction check. Default 50ms.
	SyncInterval time.Duration
	// CompactBytes is the log size that triggers an automatic compaction
	// (snapshot checkpoint + log rotation): the append whose group commit
	// takes the log past it wakes the background loop, which compacts off
	// the appender's goroutine. 0 defaults to 4 MiB; negative disables
	// automatic compaction (Compact can still be called).
	CompactBytes int64
}

func (o DurableOptions) withDefaults() DurableOptions {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 64
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 50 * time.Millisecond
	}
	if o.CompactBytes == 0 {
		o.CompactBytes = 4 << 20
	}
	return o
}

// DurableStats is the durable layer's observable state — the daemon's
// /metrics durability gauges.
type DurableStats struct {
	// AppendedRecords counts records accepted into the group-commit
	// batch since open (rotations reset the underlying log, not these).
	AppendedRecords int64
	// SyncedRecords counts records an fsync has made durable since open.
	SyncedRecords int64
	// ReplayedRecords counts records replayed from the log at open.
	ReplayedRecords int64
	// LogBytes is the current log file's durable size.
	LogBytes int64
	// LastCompaction is when the last snapshot checkpoint + rotation
	// completed; zero if none this process.
	LastCompaction time.Time
	// Err is the sticky log write/fsync error, "" while healthy.
	Err string
}

// Durable is the write-ahead-logged Index decorator: every Add is
// journaled to an append-only, group-committed log (internal/wal) before
// the next crash, IVF retrains and serving-state changes are journaled as
// events, and periodic compaction checkpoints the store into the existing
// gob snapshot format (v2 serving-state trailer included) and rotates the
// log via temp-file + rename. OpenDurable replays last-snapshot + WAL
// suffix into a staging store and swaps it in atomically, truncating the
// log at the first torn frame — so a SIGKILL'd process reopens with
// exactly the committed prefix of its history.
//
// The durability boundary is the group commit: an Add is durable once a
// size- or interval-triggered fsync covers its record (SyncEvery = 1
// makes Add itself the barrier; Sync forces one explicitly). Queries are
// served lock-free from the current store and never stall behind a
// compaction; Adds briefly serialize with rotation.
type Durable struct {
	dir      string
	logPath  string
	snapPath string
	factory  func() Index
	opts     DurableOptions
	walOpts  wal.Options

	// cur is the serving store (atomic so queries never block on
	// compaction); mu additionally serializes Add/AppendRetry against
	// Compact/Load, which swap the writer and snapshot the store.
	cur atomic.Pointer[snapshotter]
	mu  sync.RWMutex
	w   *wal.Writer

	replayed    atomic.Int64
	lastCompact atomic.Int64 // unix nanos; 0 = never
	closed      atomic.Bool

	// retryRecs holds walRecRetry payloads replayed at open, for the
	// owner (the feedback wiring) to consume; retrySnap, when installed,
	// re-journals the live retry schedule into a freshly rotated log so
	// compaction never forgets it.
	retryRecs [][]byte
	retrySnap atomic.Pointer[func() [][]byte]

	// lastState is the last journaled serving state, so housekeeping
	// appends a tuner-state record only on change.
	stateMu   sync.Mutex
	lastState tunerState

	// outgrew wakes housekeep once an append has taken the log past
	// CompactBytes; one pending wake covers any number of appends.
	outgrew chan struct{}
	stop    chan struct{}
	done    chan struct{}
}

var _ snapshotter = (*Durable)(nil)

// OpenDurable opens (or creates) the durable store rooted at dir. The
// factory builds a fresh, fully configured inner store (NewIndex with the
// deployment's options; the store must have this package's Save and Load,
// or OpenDurable fails); recovery loads the snapshot — if present —
// into that staging store, replays the WAL suffix on top, truncates the
// log at the first torn or corrupt frame, and only then swaps the
// staging store in as the serving one: a corrupt tail can never leave a
// live store half-replayed. Replayed entry records whose ID the snapshot
// already holds are skipped — the idempotency that makes a crash between
// snapshot rename and log rotation harmless. A semantically invalid
// record (undecodable payload, dimension mismatch, unknown type) fails
// the open with a descriptive error: that is not crash damage (the
// checksum verified) but a wrong or foreign log, and serving from half
// of it would be silent data loss.
func OpenDurable(dir string, factory func() Index, opts DurableOptions) (*Durable, error) {
	if factory == nil {
		return nil, errors.New("vectordb: OpenDurable needs an index factory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("vectordb: wal dir: %w", err)
	}
	opts = opts.withDefaults()
	d := &Durable{
		dir:      dir,
		logPath:  filepath.Join(dir, walLogName),
		snapPath: filepath.Join(dir, walSnapName),
		factory:  factory,
		opts:     opts,
		walOpts:  wal.Options{SyncEvery: opts.SyncEvery, SyncInterval: opts.SyncInterval},
		outgrew:  make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}

	staging, err := d.stage()
	if err != nil {
		return nil, err
	}
	if f, err := os.Open(d.snapPath); err == nil {
		lerr := staging.Load(f)
		f.Close()
		if lerr != nil {
			return nil, fmt.Errorf("vectordb: wal snapshot: %w", lerr)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("vectordb: wal snapshot: %w", err)
	}

	data, err := os.ReadFile(d.logPath)
	switch {
	case errors.Is(err, fs.ErrNotExist), err == nil && len(data) == 0:
		// No log yet — or a crash during creation left an empty file
		// before the header fsync. Either way, start fresh.
		w, cerr := wal.Create(d.logPath, d.walOpts)
		if cerr != nil {
			return nil, cerr
		}
		d.w = w
	case err != nil:
		return nil, fmt.Errorf("vectordb: wal log: %w", err)
	default:
		n, good, rerr := wal.Replay(data, func(r wal.Record) error { return d.applyRecord(staging, r) })
		if rerr != nil && !errors.Is(rerr, wal.ErrTorn) {
			return nil, fmt.Errorf("vectordb: wal replay: %w", rerr)
		}
		d.replayed.Store(int64(n))
		w, oerr := wal.OpenAt(d.logPath, good, d.walOpts)
		if oerr != nil {
			return nil, oerr
		}
		d.w = w
	}

	if s, ok := AsSharded(staging); ok {
		s.OnRetrain(d.logRetrain)
		d.lastState = s.servingState()
	}
	d.cur.Store(&staging)
	go d.housekeep()
	return d, nil
}

// stage builds a fresh staging store from the factory.
func (d *Durable) stage() (snapshotter, error) {
	idx := d.factory()
	st, ok := idx.(snapshotter)
	if !ok {
		return nil, fmt.Errorf("vectordb: OpenDurable factory returned %T, which cannot Save and Load snapshots", idx)
	}
	return st, nil
}

// applyRecord replays one committed WAL record into the staging store.
func (d *Durable) applyRecord(staging Index, r wal.Record) error {
	switch r.Type {
	case walRecEntry:
		var e Entry
		if err := gob.NewDecoder(bytes.NewReader(r.Payload)).Decode(&e); err != nil {
			return fmt.Errorf("entry record: %w", err)
		}
		if _, ok := staging.Get(e.ID); ok {
			// Already in the snapshot: a crash landed between the snapshot
			// rename and the log rotation, so the log's prefix re-describes
			// checkpointed state. Skipping keeps replay idempotent.
			return nil
		}
		if err := staging.Add(e); err != nil {
			return fmt.Errorf("entry record %s: %w", e.ID, err)
		}
		return nil
	case walRecRetrain:
		var ev ivfEvent
		if err := gob.NewDecoder(bytes.NewReader(r.Payload)).Decode(&ev); err != nil {
			return fmt.Errorf("retrain record: %w", err)
		}
		s, ok := AsSharded(staging)
		if !ok {
			// A flat store has no routing to restore; placement is
			// irrelevant to its results.
			return nil
		}
		p, err := IVFFromCentroids(ev.Centroids, ev.Distortion)
		if err != nil {
			return fmt.Errorf("retrain record: %w", err)
		}
		if err := s.Rebalance(p); err != nil {
			return fmt.Errorf("retrain record: %w", err)
		}
		return nil
	case walRecTunerState:
		var st tunerState
		if err := gob.NewDecoder(bytes.NewReader(r.Payload)).Decode(&st); err != nil {
			return fmt.Errorf("tuner-state record: %w", err)
		}
		if err := st.validate(); err != nil {
			return fmt.Errorf("tuner-state record: %w", err)
		}
		if s, ok := AsSharded(staging); ok {
			s.applyServingState(&st)
		}
		return nil
	case walRecRetry:
		d.retryRecs = append(d.retryRecs, append([]byte(nil), r.Payload...))
		return nil
	default:
		return fmt.Errorf("unknown WAL record type %d", r.Type)
	}
}

// load returns the serving store.
func (d *Durable) load() snapshotter { return *d.cur.Load() }

// Unwrap exposes the serving store to AsSharded and friends.
func (d *Durable) Unwrap() Index { return d.load() }

// appendRecord gob-encodes payload (unless it is already raw bytes) and
// appends one record under the read lock that excludes rotation.
func (d *Durable) appendRecord(typ byte, payload any) error {
	var buf bytes.Buffer
	if raw, ok := payload.([]byte); ok {
		buf.Write(raw)
	} else if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
		return fmt.Errorf("vectordb: wal encode: %w", err)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.append(wal.Record{Type: typ, Payload: buf.Bytes()})
}

// append writes one record to the log and, once the log has outgrown
// CompactBytes, wakes housekeep to compact it without blocking the
// appender. The caller holds d.mu for reading.
func (d *Durable) append(r wal.Record) error {
	if err := d.w.Append(r); err != nil {
		return err
	}
	if d.outgrown() {
		select {
		case d.outgrew <- struct{}{}:
		default:
		}
	}
	return nil
}

// outgrown reports whether the log's durable size has passed
// CompactBytes. The caller holds d.mu.
func (d *Durable) outgrown() bool {
	return d.opts.CompactBytes > 0 && d.w.Bytes() > d.opts.CompactBytes
}

// logRetrain is the Sharded.OnRetrain observer: it journals the trained
// geometry so replay reinstalls routing (and with it probe-limited
// serving) without retraining.
func (d *Durable) logRetrain(p *IVF) {
	if d.closed.Load() {
		return
	}
	// Best effort off the rebalance path: a sticky log error surfaces
	// through Stats/Err and the next Add.
	_ = d.appendRecord(walRecRetrain, &ivfEvent{Centroids: p.Centroids(), Distortion: p.Distortion()})
}

// Add applies the entry to the serving store and journals it. The record
// is durable after the next group commit (immediately when SyncEvery is
// 1); a log append error is returned so callers know durability — not
// serving — is broken: the entry remains queryable in memory.
func (d *Durable) Add(e Entry) error {
	d.mu.RLock()
	if err := d.load().Add(e); err != nil {
		d.mu.RUnlock()
		return err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&e); err != nil {
		d.mu.RUnlock()
		return fmt.Errorf("vectordb: wal encode: %w", err)
	}
	err := d.append(wal.Record{Type: walRecEntry, Payload: buf.Bytes()})
	d.mu.RUnlock()
	return err
}

// Sync forces a group commit: every record appended before the call is
// durable when it returns — the explicit barrier (tests, shutdown).
func (d *Durable) Sync() error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.w.Sync()
}

// Compact checkpoints the serving store into the snapshot (gob + v2
// serving-state trailer, temp-file + rename) and rotates the log to a
// fresh one, re-journaling the live retry-schedule sidecar so rotation
// never forgets it. Adds are held for the duration; queries keep
// flowing. Crash-safe at every step: before the snapshot rename the old
// snapshot+log pair is authoritative; between the rename and the
// rotation the log's records re-describe checkpointed state (replay
// skips them); after the rotation the fresh pair is authoritative.
func (d *Durable) Compact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.compactLocked()
}

func (d *Durable) compactLocked() error {
	// Flush the batch first: if any later step fails, the old log must
	// already cover everything the store serves.
	if err := d.w.Sync(); err != nil {
		return err
	}
	idx := d.load()
	tmp := d.snapPath + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("vectordb: compact: %w", err)
	}
	if err := idx.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("vectordb: compact: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("vectordb: compact: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("vectordb: compact: %w", err)
	}
	if err := os.Rename(tmp, d.snapPath); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("vectordb: compact: %w", err)
	}
	syncDir(d.dir)
	next, err := wal.Create(d.logPath, d.walOpts)
	if err != nil {
		// The snapshot advanced but the old log is still in place —
		// replay stays correct (records past the snapshot are skipped as
		// duplicates), just uncompacted.
		return fmt.Errorf("vectordb: compact: rotate: %w", err)
	}
	old := d.w
	d.w = next
	old.Close()
	if fn := d.retrySnap.Load(); fn != nil {
		for _, p := range (*fn)() {
			if err := d.w.Append(wal.Record{Type: walRecRetry, Payload: p}); err != nil {
				return err
			}
		}
		if err := d.w.Sync(); err != nil {
			return err
		}
	}
	d.lastCompact.Store(time.Now().UnixNano())
	return nil
}

// housekeep is the durable layer's background loop: on every
// SyncInterval tick it journals serving-state changes (the tuner's
// converged budgets move without touching Add) and compacts a log that
// outgrew CompactBytes; an append that takes the log past CompactBytes
// wakes it to compact at once rather than on the next tick.
func (d *Durable) housekeep() {
	defer close(d.done)
	ticker := time.NewTicker(d.opts.SyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-ticker.C:
			d.journalTunerState()
		case <-d.outgrew:
		}
		d.mu.RLock()
		due := d.outgrown()
		d.mu.RUnlock()
		if due {
			_ = d.Compact()
		}
	}
}

// journalTunerState appends a serving-state record when the state moved
// since the last one (or the last compaction's trailer).
func (d *Durable) journalTunerState() {
	s, ok := AsSharded(d.load())
	if !ok {
		return
	}
	st := s.servingState()
	d.stateMu.Lock()
	if reflect.DeepEqual(st, d.lastState) {
		d.stateMu.Unlock()
		return
	}
	d.lastState = st
	d.stateMu.Unlock()
	_ = d.appendRecord(walRecTunerState, &st)
}

// AppendRetry journals one opaque retry-schedule transition (the
// feedback loop's gob-encoded owed-learn change) as a sidecar record.
func (d *Durable) AppendRetry(payload []byte) error {
	return d.appendRecord(walRecRetry, payload)
}

// RetryRecords returns the sidecar payloads replayed at open, in log
// order — the feedback wiring decodes these to restore its retry
// schedule after a crash.
func (d *Durable) RetryRecords() [][]byte {
	out := make([][]byte, len(d.retryRecs))
	for i, p := range d.retryRecs {
		out[i] = append([]byte(nil), p...)
	}
	return out
}

// SetRetrySnapshot installs the sidecar snapshotter compaction calls to
// re-journal the live retry schedule into a freshly rotated log. The
// function runs with the durable layer's rotation lock held and must not
// call back into this store.
func (d *Durable) SetRetrySnapshot(fn func() [][]byte) {
	if fn == nil {
		d.retrySnap.Store(nil)
		return
	}
	d.retrySnap.Store(&fn)
}

// Stats returns the durability gauges.
func (d *Durable) Stats() DurableStats {
	st := DurableStats{ReplayedRecords: d.replayed.Load()}
	d.mu.RLock()
	st.AppendedRecords = d.w.Appended()
	st.SyncedRecords = d.w.Synced()
	st.LogBytes = d.w.Bytes()
	if err := d.w.Err(); err != nil {
		st.Err = err.Error()
	}
	d.mu.RUnlock()
	if ns := d.lastCompact.Load(); ns != 0 {
		st.LastCompaction = time.Unix(0, ns)
	}
	return st
}

// Close journals a final serving-state record, flushes the log and stops
// the background loop. The store keeps serving queries after Close; only
// durability stops.
func (d *Durable) Close() error {
	if d.closed.Swap(true) {
		return nil
	}
	close(d.stop)
	<-d.done
	d.journalTunerState()
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.w.Close()
}

// syncDir fsyncs a directory so renames in it are durable; best effort.
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		_ = f.Sync()
		f.Close()
	}
}

// Dim implements Index.
func (d *Durable) Dim() int { return d.load().Dim() }

// Len implements Index.
func (d *Durable) Len() int { return d.load().Len() }

// Get implements Index.
func (d *Durable) Get(id string) (Entry, bool) { return d.load().Get(id) }

// Categories implements Index.
func (d *Durable) Categories() []incident.Category { return d.load().Categories() }

// TopK implements Index, lock-free against compaction.
func (d *Durable) TopK(query []float64, qt time.Time, k int, alpha float64) ([]Scored, error) {
	return d.load().TopK(query, qt, k, alpha)
}

// TopKDiverse implements Index.
func (d *Durable) TopKDiverse(query []float64, qt time.Time, k int, alpha float64) ([]Scored, error) {
	return d.load().TopKDiverse(query, qt, k, alpha)
}

// TopKBatch implements Index.
func (d *Durable) TopKBatch(queries []BatchQuery) ([][]Scored, error) {
	return d.load().TopKBatch(queries)
}

// search and tally implement root over the serving store.
func (d *Durable) search(q BatchQuery) ([]Scored, error) { return d.load().search(q) }

func (d *Durable) tally(sc scope, cats map[incident.Category]int) int {
	return d.load().tally(sc, cats)
}

// Namespace returns the durable view of one tenant namespace: Add tags
// and journals (namespace included in the entry record), reads scope
// through the serving store.
func (d *Durable) Namespace(ns string) Index { return view{d, ns} }

// Save writes the serving store's snapshot (plus the serving-state
// trailer when sharded).
func (d *Durable) Save(w io.Writer) error { return d.load().Save(w) }

// Load replaces the store contents with a snapshot, durably: the
// snapshot loads into a staging store built by the factory — the live
// store is untouched on any validation error, mirroring decodeSnapshot's
// never-clobber contract — then swaps in and is immediately checkpointed
// (Compact), so the WAL directory reflects the loaded contents rather
// than resurrecting the pre-Load history on the next open.
func (d *Durable) Load(r io.Reader) error {
	staging, err := d.stage()
	if err != nil {
		return err
	}
	if err := staging.Load(r); err != nil {
		return err
	}
	if s, ok := AsSharded(staging); ok {
		s.OnRetrain(d.logRetrain)
		d.stateMu.Lock()
		d.lastState = s.servingState()
		d.stateMu.Unlock()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cur.Store(&staging)
	return d.compactLocked()
}
