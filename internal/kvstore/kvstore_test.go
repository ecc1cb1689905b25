package kvstore

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func fixedClock() func() time.Time {
	t0 := time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Minute)
	}
}

func TestPutGetLatest(t *testing.T) {
	s := New()
	if _, ok := s.Get("k"); ok {
		t.Fatal("Get on empty store should miss")
	}
	if seq := s.Put("k", []byte("v1")); seq != 1 {
		t.Fatalf("first Put seq = %d, want 1", seq)
	}
	if seq := s.Put("k", []byte("v2")); seq != 2 {
		t.Fatalf("second Put seq = %d, want 2", seq)
	}
	got, ok := s.Get("k")
	if !ok || string(got) != "v2" {
		t.Fatalf("Get = %q/%v, want v2/true", got, ok)
	}
}

func TestVersioningHistory(t *testing.T) {
	s := NewWithClock(fixedClock())
	s.Put("h", []byte("a"))
	s.Put("h", []byte("b"))
	s.Put("h", []byte("c"))

	if n := s.Versions("h"); n != 3 {
		t.Fatalf("Versions = %d, want 3", n)
	}
	for seq, want := range map[int]string{1: "a", 2: "b", 3: "c"} {
		got, ok := s.GetVersion("h", seq)
		if !ok || string(got) != want {
			t.Fatalf("GetVersion(%d) = %q/%v, want %q", seq, got, ok, want)
		}
	}
	if _, ok := s.GetVersion("h", 0); ok {
		t.Fatal("version 0 should not exist")
	}
	if _, ok := s.GetVersion("h", 4); ok {
		t.Fatal("version 4 should not exist")
	}
	hist := s.History("h")
	if len(hist) != 3 {
		t.Fatalf("History len = %d, want 3", len(hist))
	}
	for i := 1; i < len(hist); i++ {
		if !hist[i].At.After(hist[i-1].At) {
			t.Fatal("history timestamps must be increasing with the injected clock")
		}
		if hist[i].Seq != hist[i-1].Seq+1 {
			t.Fatal("history sequence numbers must be consecutive")
		}
	}
}

func TestValueIsolation(t *testing.T) {
	s := New()
	buf := []byte("original")
	s.Put("k", buf)
	buf[0] = 'X' // caller mutates after Put
	got, _ := s.Get("k")
	if string(got) != "original" {
		t.Fatal("Put must copy the value")
	}
	got[0] = 'Y' // caller mutates result of Get
	again, _ := s.Get("k")
	if string(again) != "original" {
		t.Fatal("Get must return a copy")
	}
}

func TestDeleteRemovesAllHistory(t *testing.T) {
	s := New()
	s.Put("k", []byte("a"))
	s.Put("k", []byte("b"))
	if !s.Delete("k") {
		t.Fatal("Delete existing key should report true")
	}
	if s.Delete("k") {
		t.Fatal("Delete absent key should report false")
	}
	if s.Versions("k") != 0 {
		t.Fatal("history should be gone after Delete")
	}
}

func TestKeysPrefixSorted(t *testing.T) {
	s := New()
	for _, k := range []string{"handler/teamB/x", "handler/teamA/y", "incident/1", "handler/teamA/a"} {
		s.Put(k, []byte("v"))
	}
	got := s.Keys("handler/")
	want := []string{"handler/teamA/a", "handler/teamA/y", "handler/teamB/x"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
	if n := s.Len(); n != 4 {
		t.Fatalf("Len = %d, want 4", n)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := NewWithClock(fixedClock())
	s.Put("a", []byte("1"))
	s.Put("a", []byte("2"))
	s.Put("b", []byte("3"))

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	s2 := New()
	if err := s2.Load(&buf); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if v, _ := s2.Get("a"); string(v) != "2" {
		t.Fatalf("loaded latest a = %q, want 2", v)
	}
	if v, _ := s2.GetVersion("a", 1); string(v) != "1" {
		t.Fatalf("loaded a@1 = %q, want 1", v)
	}
	if v, _ := s2.Get("b"); string(v) != "3" {
		t.Fatalf("loaded b = %q, want 3", v)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	s := New()
	if err := s.Load(bytes.NewReader([]byte("not gob"))); err == nil {
		t.Fatal("Load should fail on malformed input")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New()
	s.Put("k", []byte("v"))
	c := s.Clone()
	c.Put("k", []byte("v2"))
	c.Put("new", []byte("x"))

	if v, _ := s.Get("k"); string(v) != "v" {
		t.Fatal("clone writes leaked into original")
	}
	if _, ok := s.Get("new"); ok {
		t.Fatal("clone keys leaked into original")
	}
	if v, _ := c.Get("k"); string(v) != "v2" {
		t.Fatal("clone lost its own write")
	}
}

func TestConcurrentWriters(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	const writers, per = 8, 50
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Put(fmt.Sprintf("key-%d", w), []byte{byte(i)})
				s.Get(fmt.Sprintf("key-%d", (w+1)%writers))
				s.Keys("key-")
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < writers; w++ {
		if n := s.Versions(fmt.Sprintf("key-%d", w)); n != per {
			t.Fatalf("key-%d versions = %d, want %d", w, n, per)
		}
	}
}

// Property: for any write sequence, Get returns the last Put value and
// Versions equals the number of Puts.
func TestQuickLastWriteWins(t *testing.T) {
	f := func(values [][]byte) bool {
		s := New()
		for _, v := range values {
			s.Put("k", v)
		}
		if len(values) == 0 {
			_, ok := s.Get("k")
			return !ok
		}
		got, ok := s.Get("k")
		return ok && bytes.Equal(got, values[len(values)-1]) && s.Versions("k") == len(values)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Save/Load preserves every version of every key.
func TestQuickSnapshotRoundTrip(t *testing.T) {
	f := func(keys []string, payload []byte) bool {
		s := New()
		for i, k := range keys {
			end := i % (len(payload) + 1)
			s.Put("k/"+k, payload[:end])
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			return false
		}
		s2 := New()
		if err := s2.Load(&buf); err != nil {
			return false
		}
		if s2.Len() != s.Len() {
			return false
		}
		for _, k := range s.Keys("") {
			a, _ := s.Get(k)
			b, ok := s2.Get(k)
			if !ok || !bytes.Equal(a, b) || s.Versions(k) != s2.Versions(k) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRevisionChangesOnEveryMutation(t *testing.T) {
	s := New()
	r0 := s.Revision()
	s.Put("a", []byte("1"))
	r1 := s.Revision()
	if r1 == r0 {
		t.Fatal("Put did not change the revision")
	}
	s.Get("a")
	s.Keys("")
	if s.Revision() != r1 {
		t.Fatal("a read changed the revision")
	}
	if s.Delete("missing"); s.Revision() != r1 {
		t.Fatal("deleting a missing key changed the revision")
	}
	s.Delete("a")
	r2 := s.Revision()
	if r2 == r1 {
		t.Fatal("Delete did not change the revision")
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if s.Revision() == r2 {
		t.Fatal("Load did not change the revision")
	}
}
