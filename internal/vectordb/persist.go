package vectordb

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// snapshot is the gob wire format, shared by every Index implementation:
// a flat entry list plus its dimensionality. The flat DB saves entries in
// insertion order; the Sharded store saves them sorted by ID (its
// insertion order is not deterministic under concurrent ingest). Either
// implementation loads either ordering, so stores round-trip freely
// between flat and sharded deployments.
type snapshot struct {
	Dim     int
	Entries []Entry
}

// tunerState is the versioned serving-state trailer Sharded.Save appends
// after the snapshot on the same gob stream: the converged probe budget,
// the controller's hysteresis floor and retrain clock, and the lifetime
// recall aggregate — so a redeploy resumes at the converged SLO instead
// of re-learning it from cold. The trailer is strictly additive to the
// PR-0 wire format: a flat DB.Save file simply ends after the snapshot
// (Load treats the clean EOF as "no trailer"), and DB.Load never reads
// past the snapshot, so files round-trip freely across implementations
// and versions.
type tunerState struct {
	Version     int
	Probes      int
	LastBad     int
	LastRetrain time.Time
	RecallSum   float64
	RecallN     int
	// Namespaces carries each non-default namespace's serving state
	// (trailer v2). v1 files simply have no map — they load as a store
	// whose namespaces start from serving defaults — and gob drops the
	// field when an old reader loads a v2 file, so the trailer stays
	// compatible in both directions.
	Namespaces map[string]nsTunerState
}

// nsTunerState is one namespace's slice of the serving-state trailer:
// its converged probe budget and overfetch factor plus its controller's
// long-lived state.
type nsTunerState struct {
	Probes      int
	Overfetch   int
	LastBad     int
	LastRetrain time.Time
	RecallSum   float64
	RecallN     int
}

// tunerStateVersion is the current trailer version; Load accepts any
// version >= 1 (gob ignores unknown future fields, and fields absent
// from old files decode to zero values).
const tunerStateVersion = 2

// decodeSnapshot reads and fully validates a snapshot against the
// receiving store's dimensionality BEFORE any store state changes, so a
// mismatched or corrupt file is rejected with a descriptive error instead
// of corrupting the store: the store keeps its previous contents on every
// error path.
func decodeSnapshot(r io.Reader, dim int) (snapshot, error) {
	return decodeSnapshotFrom(gob.NewDecoder(r), dim)
}

// decodeSnapshotFrom is decodeSnapshot over a caller-owned decoder, so
// Sharded.Load can keep reading the optional serving-state trailer from
// the same gob stream.
func decodeSnapshotFrom(dec *gob.Decoder, dim int) (snapshot, error) {
	var snap snapshot
	if err := dec.Decode(&snap); err != nil {
		return snapshot{}, fmt.Errorf("vectordb: load: %w", err)
	}
	if snap.Dim != dim {
		return snapshot{}, fmt.Errorf("vectordb: load: snapshot dim %d does not match store dim %d", snap.Dim, dim)
	}
	seen := make(map[string]bool, len(snap.Entries))
	for i, e := range snap.Entries {
		if e.ID == "" {
			return snapshot{}, fmt.Errorf("vectordb: load: snapshot entry %d has empty ID", i)
		}
		if len(e.Vector) != snap.Dim {
			return snapshot{}, fmt.Errorf("vectordb: load: snapshot entry %d (%s) has dim %d, snapshot declares %d",
				i, e.ID, len(e.Vector), snap.Dim)
		}
		if j := nonFinite(e.Vector); j >= 0 {
			return snapshot{}, fmt.Errorf("vectordb: load: snapshot entry %d (%s) has non-finite component %d (%v)",
				i, e.ID, j, e.Vector[j])
		}
		if seen[e.ID] {
			return snapshot{}, fmt.Errorf("vectordb: load: snapshot has duplicate ID %s", e.ID)
		}
		seen[e.ID] = true
	}
	return snap, nil
}

// Save serializes the store to w, so a trained incident history survives
// restarts of the on-call service.
func (db *DB) Save(w io.Writer) error {
	db.mu.RLock()
	snap := snapshot{Dim: db.dim, Entries: make([]Entry, len(db.entries))}
	copy(snap.Entries, db.entries)
	// The columnar store keeps vectors out of the entries; the wire format
	// carries them inline, so materialize each row into the copies.
	for i := range snap.Entries {
		snap.Entries[i].Vector = append([]float64(nil), db.row(i)...)
	}
	db.mu.RUnlock()
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("vectordb: save: %w", err)
	}
	return nil
}

// Load replaces the store contents with a snapshot written by any Index
// implementation's Save. The snapshot's dimensionality must match the
// store's; on any validation error the store is left unchanged.
func (db *DB) Load(r io.Reader) error {
	snap, err := decodeSnapshot(r, db.dim)
	if err != nil {
		return err
	}
	byID := make(map[string]int, len(snap.Entries))
	vecs := make([]float64, 0, len(snap.Entries)*db.dim)
	for i := range snap.Entries {
		byID[snap.Entries[i].ID] = i
		vecs = append(vecs, snap.Entries[i].Vector...)
		snap.Entries[i].Vector = nil
	}
	nsCount := make(map[string]int)
	for i := range snap.Entries {
		nsCount[snap.Entries[i].Namespace]++
	}
	db.mu.Lock()
	db.entries = snap.Entries
	db.vecs = vecs
	db.byID = byID
	db.nsCount = nsCount
	db.mu.Unlock()
	return nil
}

// Save serializes the sharded store in the same flat snapshot format the
// flat DB writes, entries sorted by ID for determinism, so a sharded
// deployment's history loads into a flat store and vice versa. Safe to
// call mid-rebalance: the snapshot deduplicates entries that are briefly
// visible in both generations. After the snapshot, Save appends the
// versioned serving-state trailer (probe budget, tuner hysteresis and
// retrain clock, lifetime recall aggregate); flat loaders never read that
// far, so the wire format stays PR-0 compatible in both directions.
func (s *Sharded) Save(w io.Writer) error {
	snap := snapshot{Dim: s.dim, Entries: s.snapshotSortedByID()}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(snap); err != nil {
		return fmt.Errorf("vectordb: save: %w", err)
	}
	if err := enc.Encode(s.servingState()); err != nil {
		return fmt.Errorf("vectordb: save: serving-state trailer: %w", err)
	}
	return nil
}

// servingState snapshots the persistable serving state: the effective
// probe budget plus — when a tuner is installed — its hysteresis floor,
// retrain clock, and lifetime recall aggregate; trailer v2 additionally
// carries every non-default namespace's serving state.
func (s *Sharded) servingState() tunerState {
	st := tunerState{Version: tunerStateVersion, Probes: s.Probes()}
	if t := s.tuner.Load(); t != nil {
		t.mu.Lock()
		st.LastBad = t.lastBad
		st.LastRetrain = t.lastRetrain
		st.RecallSum, st.RecallN = t.recallSum, t.recallN
		t.mu.Unlock()
	}
	s.nss.Range(func(_, v any) bool {
		n := v.(*nsState)
		row := nsTunerState{
			Probes:    int(n.probes.Load()),
			Overfetch: int(n.overfetch.Load()),
		}
		if t := n.tuner.Load(); t != nil {
			t.mu.Lock()
			row.LastBad = t.lastBad
			row.LastRetrain = t.lastRetrain
			row.RecallSum, row.RecallN = t.recallSum, t.recallN
			t.mu.Unlock()
		}
		if st.Namespaces == nil {
			st.Namespaces = make(map[string]nsTunerState)
		}
		st.Namespaces[n.ns] = row
		return true
	})
	return st
}

// decodeTunerState reads the optional serving-state trailer following a
// snapshot on the same gob stream. A clean EOF means a PR-0 file with no
// trailer (nil, nil); a malformed trailer is an error so Load can reject
// the file before touching store state.
func decodeTunerState(dec *gob.Decoder) (*tunerState, error) {
	var st tunerState
	switch err := dec.Decode(&st); {
	case errors.Is(err, io.EOF):
		return nil, nil
	case err != nil:
		return nil, fmt.Errorf("vectordb: load: serving-state trailer: %w", err)
	}
	if err := st.validate(); err != nil {
		return nil, fmt.Errorf("vectordb: load: %w", err)
	}
	return &st, nil
}

// validate checks a decoded serving state — shared by the snapshot
// trailer (decodeTunerState) and the WAL's tuner-state record, which
// adopts the same payload.
func (st *tunerState) validate() error {
	if st.Version < 1 {
		return fmt.Errorf("serving-state trailer version %d, want >= 1", st.Version)
	}
	if st.Probes < 0 {
		return fmt.Errorf("serving-state trailer has negative probe budget %d", st.Probes)
	}
	for ns, row := range st.Namespaces {
		if ns == "" {
			return errors.New("serving-state trailer names the default namespace (its state is the root fields)")
		}
		if row.Probes < 0 || row.Overfetch < 0 {
			return fmt.Errorf("serving-state trailer has negative budget for namespace %q", ns)
		}
	}
	return nil
}

// Load replaces the sharded store contents with a snapshot written by any
// Index implementation's Save, routing every entry through the current
// partitioner. On any validation error the store is left unchanged. Load
// serializes against rebalances and is the one remaining operation that
// holds the store-wide lock exclusively for its full duration (a wholesale
// content replacement has no incremental form worth having).
//
// A serving-state trailer (written by Sharded.Save) restores the saved
// probe budget and rehydrates the tuner's hysteresis floor, retrain
// clock, and recall aggregate — into the installed tuner if one exists,
// or stashed for the next EnableAdaptive. Quantized sidecars are derived
// state and are rebuilt from the loaded contents, never read from the
// file.
func (s *Sharded) Load(r io.Reader) error {
	dec := gob.NewDecoder(r)
	snap, err := decodeSnapshotFrom(dec, s.dim)
	if err != nil {
		return err
	}
	st, err := decodeTunerState(dec)
	if err != nil {
		return err
	}
	s.rebMu.Lock()
	defer s.rebMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.gen.parts
	next := &generation{parts: p, shard: newShards(p.Shards(), s.dim)}
	byID := &sync.Map{}
	for _, e := range snap.Entries {
		dst, err := routeTo(p, e)
		if err != nil {
			return fmt.Errorf("vectordb: load: %w", err)
		}
		sh := next.shard[dst]
		sh.add(e)
		byID.Store(e.ID, sh)
	}
	if s.quantized.Load() {
		for _, sh := range next.shard {
			sh.quant = buildSidecar(sh.dim, sh.entries, sh.vecs)
		}
	}
	s.gen, s.old, s.byID = next, nil, byID
	s.count.Store(int64(len(snap.Entries)))
	// Namespace tallies are derived from the loaded contents: zero any
	// pre-existing per-namespace counts (a namespace absent from the file
	// now holds nothing), then recount.
	var defCount int64
	nsCounts := make(map[string]int64)
	for i := range snap.Entries {
		if ns := snap.Entries[i].Namespace; ns == "" {
			defCount++
		} else {
			nsCounts[ns]++
		}
	}
	s.defCount.Store(defCount)
	s.nss.Range(func(_, v any) bool {
		n := v.(*nsState)
		n.count.Store(nsCounts[n.ns])
		return true
	})
	for ns, c := range nsCounts {
		s.nsStateFor(ns).count.Store(c)
	}
	s.epoch.Add(2)
	if st != nil {
		s.applyServingState(st)
	}
	return nil
}

// applyServingState installs a validated serving state: the probe budget,
// the root tuner's long-lived state (or a stash for the next
// EnableAdaptive), and every named namespace's budget and controller
// state. Shared by Load's trailer path and the durable layer's replay of
// WAL tuner-state records, which adopt the same payload.
func (s *Sharded) applyServingState(st *tunerState) {
	s.probes.Store(int64(st.Probes))
	if t := s.tuner.Load(); t != nil {
		t.restore(*st)
	} else {
		// No controller yet: stash for the next EnableAdaptive, which
		// consumes it exactly once.
		s.savedState.Store(st)
	}
	for ns, row := range st.Namespaces {
		n := s.nsStateFor(ns)
		n.probes.Store(int64(row.Probes))
		n.overfetch.Store(int64(row.Overfetch))
		sub := tunerState{
			Probes:      row.Probes,
			LastBad:     row.LastBad,
			LastRetrain: row.LastRetrain,
			RecallSum:   row.RecallSum,
			RecallN:     row.RecallN,
		}
		if t := n.tuner.Load(); t != nil {
			t.restore(sub)
		} else {
			n.saved.Store(&sub)
		}
	}
}
