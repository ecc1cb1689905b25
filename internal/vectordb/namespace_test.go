package vectordb

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/incident"
)

// nsTestCorpus fills flat, sharded and per-tenant dedicated stores with
// one deterministic corpus spread over the default namespace and two
// tenants.
func nsTestCorpus(t *testing.T, shards int) (*DB, *Sharded, map[string]*DB, []Entry) {
	t.Helper()
	const n, dim, clusters = 90, 4, 3
	entries, _ := clusteredCorpus(17, n, dim, clusters)
	tenants := []string{"", "tenant-a", "tenant-b"}
	flat := New(dim)
	sh := NewSharded(dim, shards, nil)
	dedicated := map[string]*DB{"": New(dim), "tenant-a": New(dim), "tenant-b": New(dim)}
	for i, e := range entries {
		e.Namespace = tenants[i%len(tenants)]
		entries[i] = e
		must(t, flat.Add(e))
		must(t, sh.Add(e))
		must(t, dedicated[e.Namespace].Add(e))
	}
	return flat, sh, dedicated, entries
}

// TestNamespaceDefaultView pins the default-view contract: the empty
// namespace is the view of untagged entries, and on a store that only
// holds untagged entries it is indistinguishable from the root store.
func TestNamespaceDefaultView(t *testing.T) {
	const dim = 4
	entries, queries := clusteredCorpus(3, 60, dim, 3)
	qt := entries[0].Time
	flat := New(dim)
	sh := NewSharded(dim, 5, nil)
	for _, e := range entries {
		must(t, flat.Add(e))
		must(t, sh.Add(e))
	}
	for name, root := range map[string]Index{"flat": flat, "sharded": sh} {
		view := root.Namespace("")
		if view.Len() != root.Len() {
			t.Fatalf("%s: default view Len %d != root %d", name, view.Len(), root.Len())
		}
		for i, q := range queries[:10] {
			want, err := root.TopK(q, qt, 5, 0.3)
			must(t, err)
			got, err := view.TopK(q, qt, 5, 0.3)
			must(t, err)
			sameScored(t, fmt.Sprintf("%s default view query %d", name, i), got, want)
		}
	}

	// On a mixed store the default view sees exactly the untagged slice.
	flat2, sh2, dedicated, _ := nsTestCorpus(t, 5)
	want := dedicated[""].Len()
	for name, root := range map[string]Index{"flat": flat2, "sharded": sh2} {
		if got := root.Namespace("").Len(); got != want {
			t.Fatalf("%s: mixed-store default view Len %d, want %d untagged entries", name, got, want)
		}
	}
}

// TestNamespaceUnknown pins the unknown-tenant contract: a namespace no
// entry carries serves zero hits without error.
func TestNamespaceUnknown(t *testing.T) {
	flat, sh, _, entries := nsTestCorpus(t, 5)
	qt := entries[0].Time
	q := entries[0].Vector
	for name, root := range map[string]Index{"flat": flat, "sharded": sh} {
		view := root.Namespace("nobody")
		if view.Len() != 0 {
			t.Fatalf("%s: unknown namespace Len = %d, want 0", name, view.Len())
		}
		hits, err := view.TopK(q, qt, 5, 0.3)
		if err != nil {
			t.Fatalf("%s: unknown namespace TopK: %v", name, err)
		}
		if len(hits) != 0 {
			t.Fatalf("%s: unknown namespace served %d hits, want 0", name, len(hits))
		}
		hits, err = view.TopKDiverse(q, qt, 5, 0.3)
		if err != nil {
			t.Fatalf("%s: unknown namespace TopKDiverse: %v", name, err)
		}
		if len(hits) != 0 {
			t.Fatalf("%s: unknown namespace served %d diverse hits, want 0", name, len(hits))
		}
		if _, ok := view.Get(entries[0].ID); ok {
			t.Fatalf("%s: unknown namespace Get leaked a default-namespace entry", name)
		}
		if cats := view.Categories(); len(cats) != 0 {
			t.Fatalf("%s: unknown namespace Categories = %v, want none", name, cats)
		}
	}
}

// TestNamespaceViewEquivalence holds every tenant view bit-identical to a
// dedicated flat store of just that tenant's entries, on every read a view
// serves (TopK, TopKDiverse, TopKBatch, Len, Get, Categories) and on every
// root: flat, sharded, a durable store over each (filled through its
// views, so the WAL journals the tags), and a batcher over the sharded
// store. An unknown namespace is held to an empty dedicated store.
func TestNamespaceViewEquivalence(t *testing.T) {
	for _, shards := range []int{1, 2, 7} {
		flat, sh, dedicated, entries := nsTestCorpus(t, shards)
		dedicated["nobody"] = New(flat.Dim())
		roots := map[string]Index{"flat": flat, "sharded": sh}
		for name, fresh := range map[string]func() Index{
			"durable-flat":    func() Index { return New(flat.Dim()) },
			"durable-sharded": func() Index { return NewSharded(flat.Dim(), shards, nil) },
		} {
			d, err := OpenDurable(t.TempDir(), fresh, durTestOpts())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			for _, e := range entries {
				must(t, d.Namespace(e.Namespace).Add(e))
			}
			roots[name] = d
		}
		b, err := NewBatcher(sh, 4, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.Close)
		roots["batcher-sharded"] = b

		qt := entries[0].Time
		queries := make([][]float64, 8)
		for i := range queries {
			queries[i] = entries[i*7].Vector
		}
		batch := mixedBatch(queries, qt, 6)
		for ns, d := range dedicated {
			wantBatch := sequentialBatch(t, d, batch)
			for name, root := range roots {
				view := root.Namespace(ns)
				at := fmt.Sprintf("shards=%d %s ns=%q", shards, name, ns)
				for i, q := range queries {
					want, err := d.TopK(q, qt, 5, 0.3)
					must(t, err)
					got, err := view.TopK(q, qt, 5, 0.3)
					must(t, err)
					sameScored(t, fmt.Sprintf("%s TopK query %d", at, i), got, want)
					want, err = d.TopKDiverse(q, qt, 3, 0.3)
					must(t, err)
					got, err = view.TopKDiverse(q, qt, 3, 0.3)
					must(t, err)
					sameScored(t, fmt.Sprintf("%s TopKDiverse query %d", at, i), got, want)
				}
				gotBatch, err := view.TopKBatch(batch)
				must(t, err)
				for i := range batch {
					sameScored(t, fmt.Sprintf("%s TopKBatch member %d", at, i), gotBatch[i], wantBatch[i])
				}
				if got := view.Len(); got != d.Len() {
					t.Fatalf("%s: Len %d != dedicated %d", at, got, d.Len())
				}
				for _, e := range entries {
					got, gok := view.Get(e.ID)
					want, wok := d.Get(e.ID)
					if gok != wok || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Get(%s) = %+v, %v; dedicated %+v, %v", at, e.ID, got, gok, want, wok)
					}
				}
				if got, want := view.Categories(), d.Categories(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Categories %v != dedicated %v", at, got, want)
				}
			}
		}
	}
}

// TestNamespaceConcurrentHammer races cross-namespace writers against
// scoped and unscoped readers on one sharded pool; under `go test -race`
// this proves the namespace bookkeeping (per-tenant counts, serving state
// creation, scoped scans) shares the store's locking discipline. Final
// per-namespace counts must reconcile.
func TestNamespaceConcurrentHammer(t *testing.T) {
	const writers, readers, perG = 4, 4, 120
	sh := NewSharded(4, 7, nil)
	at := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	tenants := []string{"", "tenant-a", "tenant-b", "tenant-c"}
	for i := 0; i < 8; i++ {
		must(t, sh.Add(Entry{
			ID:       fmt.Sprintf("SEED-%d", i),
			Vector:   []float64{float64(i), 1, 2, 3},
			Category: incident.Category(fmt.Sprintf("c%d", i%3)),
			Time:     at,
		}))
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			view := sh.Namespace(tenants[w%len(tenants)])
			for i := 0; i < perG; i++ {
				err := view.Add(Entry{
					ID:       fmt.Sprintf("W%d-%04d", w, i),
					Vector:   []float64{float64(i % 7), float64(w), 0, 1},
					Category: incident.Category(fmt.Sprintf("c%d", i%5)),
					Time:     at.AddDate(0, 0, i%30),
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			q := []float64{float64(r), 1, 1, 1}
			view := sh.Namespace(tenants[(r+1)%len(tenants)])
			for i := 0; i < perG; i++ {
				if _, err := view.TopK(q, at.AddDate(0, 0, i%30), 5, 0.3); err != nil {
					t.Error(err)
					return
				}
				if _, err := sh.TopK(q, at, 3, 0.3); err != nil {
					t.Error(err)
					return
				}
				if i%20 == 0 {
					sh.NamespaceStats()
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Reconcile: every writer's namespace holds seed + its writes.
	counts := map[string]int{"": 8}
	for w := 0; w < writers; w++ {
		counts[tenants[w%len(tenants)]] += perG
	}
	total := 0
	for ns, want := range counts {
		total += want
		if got := sh.Namespace(ns).Len(); got != want {
			t.Fatalf("namespace %q Len = %d, want %d", ns, got, want)
		}
	}
	if sh.Len() != total {
		t.Fatalf("root Len = %d, want %d", sh.Len(), total)
	}
}

// TestNamespacePersistence round-trips a multi-tenant sharded store
// through Save/Load: per-namespace entry counts, probe budgets, escalated
// overfetch and controller aggregates must all survive, and a loaded
// store must serve every view bit-identically to the original.
func TestNamespacePersistence(t *testing.T) {
	_, sh, dedicated, entries := nsTestCorpus(t, 5)
	qt := entries[0].Time
	must(t, sh.TrainIVF(0))
	must(t, sh.SetProbes(2))
	must(t, sh.SetNamespaceProbes("tenant-a", 3))

	var buf bytes.Buffer
	must(t, sh.Save(&buf))

	// Load into a store with stale namespace state: counts must be rebuilt
	// from the snapshot, not accumulated on top of the old population.
	loaded := NewSharded(4, 5, nil)
	stale := entries[0]
	stale.ID, stale.Namespace = "STALE-0", "tenant-stale"
	must(t, loaded.Namespace("tenant-stale").Add(stale))
	must(t, loaded.Load(bytes.NewReader(buf.Bytes())))

	if got, want := loaded.Len(), sh.Len(); got != want {
		t.Fatalf("loaded Len = %d, want %d", got, want)
	}
	if got := loaded.Namespace("tenant-stale").Len(); got != 0 {
		t.Fatalf("stale namespace survived Load with Len %d, want 0", got)
	}
	for ns, d := range dedicated {
		if got := loaded.Namespace(ns).Len(); got != d.Len() {
			t.Fatalf("loaded namespace %q Len = %d, want %d", ns, got, d.Len())
		}
	}
	if got := loaded.Probes(); got != 2 {
		t.Fatalf("loaded root probe budget = %d, want 2", got)
	}
	if got := loaded.NamespaceProbes("tenant-a"); got != 3 {
		t.Fatalf("loaded tenant-a probe budget = %d, want 3", got)
	}
	if got := loaded.NamespaceProbes("tenant-b"); got != 0 {
		t.Fatalf("loaded tenant-b probe budget = %d, want 0 (exact)", got)
	}
	// Every view serves bit-identically to the original store's view.
	for _, ns := range []string{"", "tenant-a", "tenant-b"} {
		for i := 0; i < 6; i++ {
			q := entries[i*11].Vector
			want, err := sh.Namespace(ns).TopK(q, qt, 5, 0.3)
			must(t, err)
			got, err := loaded.Namespace(ns).TopK(q, qt, 5, 0.3)
			must(t, err)
			sameScored(t, fmt.Sprintf("loaded ns=%q query %d", ns, i), got, want)
		}
	}
}

// TestNamespaceReadsCreateNoState pins that a view is side-effect free:
// on an adaptive sharded store — bare, under a Durable and under a
// Batcher — reading through views of namespaces nobody wrote (Len, Get,
// Categories, TopK, TopKDiverse, TopKBatch) leaves NamespaceStats at the
// default row alone and the saved serving-state trailer without them.
func TestNamespaceReadsCreateNoState(t *testing.T) {
	const dim = 4
	entries, queries := clusteredCorpus(5, 60, dim, 3)
	qt := entries[0].Time
	adaptive := func(t *testing.T) *Sharded {
		sh := NewSharded(dim, 4, nil)
		if _, err := sh.EnableAdaptive(AutoConfig{RecallTarget: 0.9}); err != nil {
			t.Fatal(err)
		}
		return sh
	}
	stores := map[string]func(t *testing.T) (Index, func(io.Writer) error){
		"sharded": func(t *testing.T) (Index, func(io.Writer) error) {
			sh := adaptive(t)
			return sh, sh.Save
		},
		"durable": func(t *testing.T) (Index, func(io.Writer) error) {
			d, err := OpenDurable(t.TempDir(), func() Index { return adaptive(t) }, durTestOpts())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return d, d.Save
		},
		"batcher": func(t *testing.T) (Index, func(io.Writer) error) {
			sh := adaptive(t)
			b, err := NewBatcher(sh, 4, time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(b.Close)
			return b, sh.Save
		},
	}
	for name, open := range stores {
		t.Run(name, func(t *testing.T) {
			idx, save := open(t)
			for _, e := range entries {
				must(t, idx.Add(e))
			}
			for _, ns := range []string{"ghost-a", "ghost-b", "ghost-c"} {
				view := idx.Namespace(ns)
				if n := view.Len(); n != 0 {
					t.Fatalf("ghost view Len = %d", n)
				}
				if _, ok := view.Get(entries[0].ID); ok {
					t.Fatal("ghost view Get found a default-namespace entry")
				}
				if cats := view.Categories(); len(cats) != 0 {
					t.Fatalf("ghost view Categories = %v", cats)
				}
				for _, read := range []func() ([]Scored, error){
					func() ([]Scored, error) { return view.TopK(queries[0], qt, 5, 0.3) },
					func() ([]Scored, error) { return view.TopKDiverse(queries[0], qt, 5, 0.3) },
				} {
					if hits, err := read(); err != nil || len(hits) != 0 {
						t.Fatalf("ghost view read = %d hits, %v", len(hits), err)
					}
				}
				out, err := view.TopKBatch(mixedBatch(queries, qt, 4))
				must(t, err)
				for i, hits := range out {
					if len(hits) != 0 {
						t.Fatalf("ghost view batch member %d served %d hits", i, len(hits))
					}
				}
			}
			sh, _ := AsSharded(idx)
			if rows := sh.NamespaceStats(); len(rows) != 1 {
				t.Fatalf("reads created tenant state: NamespaceStats has %d rows %+v", len(rows), rows)
			}
			var buf bytes.Buffer
			must(t, save(&buf))
			dec := gob.NewDecoder(&buf)
			if _, err := decodeSnapshotFrom(dec, dim); err != nil {
				t.Fatal(err)
			}
			st, err := decodeTunerState(dec)
			must(t, err)
			if st == nil || len(st.Namespaces) != 0 {
				t.Fatalf("saved serving-state trailer = %+v, want one without namespaces", st)
			}
		})
	}
}
