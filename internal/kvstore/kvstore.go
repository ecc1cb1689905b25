// Package kvstore implements the embedded versioned store RCACopilot uses
// for incident handlers and incident records.
//
// The paper keeps handler definitions in a database and "maintain[s] the
// versions of the handlers in the database, which can be used to track their
// historical changes" (§4.1.1). This store provides exactly that: every Put
// appends a new immutable version; reads default to the latest version but
// any historical version remains addressable. The store also supports
// prefix scans (for listing handlers per team) and gob snapshots for
// persistence, all with stdlib only.
package kvstore

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Version is one immutable revision of a key's value.
type Version struct {
	Seq   int       // 1-based, monotonically increasing per key
	Value []byte    // stored payload
	At    time.Time // write timestamp
}

// Store is a concurrency-safe, versioned key-value store. The zero value is
// not ready; use New.
type Store struct {
	mu    sync.RWMutex
	data  map[string][]Version
	clock func() time.Time
	// rev counts mutations; written under mu, read lock-free by Revision.
	rev atomic.Uint64
}

// New returns an empty store stamping versions with time.Now.
func New() *Store { return NewWithClock(time.Now) }

// NewWithClock returns an empty store using the given time source, which
// lets simulations produce deterministic version timestamps.
func NewWithClock(now func() time.Time) *Store {
	return &Store{data: make(map[string][]Version), clock: now}
}

// Put appends a new version of key holding a copy of value, and returns the
// new version's sequence number.
func (s *Store) Put(key string, value []byte) int {
	cp := append([]byte(nil), value...)
	s.mu.Lock()
	defer s.mu.Unlock()
	vs := s.data[key]
	seq := len(vs) + 1
	s.data[key] = append(vs, Version{Seq: seq, Value: cp, At: s.clock()})
	s.rev.Add(1)
	return seq
}

// Revision returns a store-wide counter that changes on every Put, every
// Delete that removes a key, and every Load. A reader that derives state
// from the store (a decoded value, say) can tag it with the Revision read
// before the underlying Get and keep using it while Revision is unchanged:
// it cannot be stale.
func (s *Store) Revision() uint64 { return s.rev.Load() }

// Get returns a copy of the latest version of key.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vs := s.data[key]
	if len(vs) == 0 {
		return nil, false
	}
	return append([]byte(nil), vs[len(vs)-1].Value...), true
}

// GetVersion returns a copy of version seq of key.
func (s *Store) GetVersion(key string, seq int) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vs := s.data[key]
	if seq < 1 || seq > len(vs) {
		return nil, false
	}
	return append([]byte(nil), vs[seq-1].Value...), true
}

// History returns copies of every version of key, oldest first.
func (s *Store) History(key string) []Version {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vs := s.data[key]
	out := make([]Version, len(vs))
	for i, v := range vs {
		out[i] = Version{Seq: v.Seq, Value: append([]byte(nil), v.Value...), At: v.At}
	}
	return out
}

// Versions returns the number of stored versions of key (0 if absent).
func (s *Store) Versions(key string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data[key])
}

// Delete removes key and its entire history. It reports whether the key
// existed.
func (s *Store) Delete(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.data[key]
	if ok {
		delete(s.data, key)
		s.rev.Add(1)
	}
	return ok
}

// Keys returns all keys with the given prefix, sorted.
func (s *Store) Keys(prefix string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for k := range s.data {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// snapshot is the gob wire format.
type snapshot struct {
	Data map[string][]Version
}

// Save serializes the full store (all versions) to w.
func (s *Store) Save(w io.Writer) error {
	s.mu.RLock()
	snap := snapshot{Data: make(map[string][]Version, len(s.data))}
	for k, vs := range s.data {
		cp := make([]Version, len(vs))
		for i, v := range vs {
			cp[i] = Version{Seq: v.Seq, Value: append([]byte(nil), v.Value...), At: v.At}
		}
		snap.Data[k] = cp
	}
	s.mu.RUnlock()
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("kvstore: save: %w", err)
	}
	return nil
}

// Load replaces the store contents with a snapshot previously written by
// Save.
func (s *Store) Load(r io.Reader) error {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("kvstore: load: %w", err)
	}
	s.mu.Lock()
	s.data = snap.Data
	if s.data == nil {
		s.data = make(map[string][]Version)
	}
	s.rev.Add(1)
	s.mu.Unlock()
	return nil
}

// Clone returns a deep copy of the store sharing no state with s.
func (s *Store) Clone() *Store {
	var buf bytes.Buffer
	// Save/Load already deep-copy; reuse them to avoid a third copy path.
	if err := s.Save(&buf); err != nil {
		// Save into a bytes.Buffer cannot fail for gob-encodable data.
		panic(fmt.Sprintf("kvstore: clone: %v", err))
	}
	out := NewWithClock(s.clock)
	if err := out.Load(&buf); err != nil {
		panic(fmt.Sprintf("kvstore: clone: %v", err))
	}
	return out
}
