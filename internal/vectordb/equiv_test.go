package vectordb

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/incident"
)

// buildDB fills a store with deterministic pseudo-random entries. Vectors
// and times are drawn from small discrete sets so exact similarity ties
// (same vector, same day, different IDs and categories) occur frequently —
// the case where the ID tie-break decides the ranking.
func buildDB(t *testing.T, seed int64, n, dim, numCats int) *DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := New(dim)
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		v := make([]float64, dim)
		for j := range v {
			v[j] = float64(rng.Intn(4)) // coarse grid -> many exact ties
		}
		err := db.Add(Entry{
			ID:       fmt.Sprintf("INC-%06d", i),
			Vector:   v,
			Category: incident.Category(fmt.Sprintf("cat-%02d", rng.Intn(numCats))),
			Time:     base.AddDate(0, 0, rng.Intn(10)),
			Summary:  fmt.Sprintf("summary %d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func sameScored(t *testing.T, name string, got, want []Scored) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i].Entry.ID != want[i].Entry.ID {
			t.Fatalf("%s: rank %d: %s != %s (sim %v vs %v)",
				name, i, got[i].Entry.ID, want[i].Entry.ID, got[i].Similarity, want[i].Similarity)
		}
		if got[i].Similarity != want[i].Similarity || got[i].Distance != want[i].Distance {
			t.Fatalf("%s: rank %d: score mismatch %+v vs %+v", name, i, got[i], want[i])
		}
	}
}

// TestHeapMatchesSortReference holds the streaming-heap TopK/TopKDiverse to
// the retained full-sort reference across store sizes, k values (including
// k > categories and k > n), alphas, and tie-heavy vector grids.
func TestHeapMatchesSortReference(t *testing.T) {
	qt := time.Date(2022, 1, 6, 0, 0, 0, 0, time.UTC)
	cases := []struct {
		name            string
		seed            int64
		n, dim, numCats int
	}{
		{"small-many-ties", 1, 40, 3, 4},
		{"medium", 2, 400, 8, 20},
		{"more-cats-than-k", 3, 200, 6, 60},
		{"single-category", 4, 100, 4, 1},
		{"tiny", 5, 3, 2, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := buildDB(t, tc.seed, tc.n, tc.dim, tc.numCats)
			rng := rand.New(rand.NewSource(tc.seed * 97))
			for _, k := range []int{1, 2, 5, 15, tc.n + 10} {
				for _, alpha := range []float64{0, 0.001, 0.3, 0.8} {
					q := make([]float64, tc.dim)
					for j := range q {
						q[j] = float64(rng.Intn(4))
					}
					heapK, err := db.TopK(q, qt, k, alpha)
					if err != nil {
						t.Fatal(err)
					}
					sortK, err := db.sortTopK(q, qt, k, alpha)
					if err != nil {
						t.Fatal(err)
					}
					sameScored(t, fmt.Sprintf("TopK k=%d a=%v", k, alpha), heapK, sortK)

					heapD, err := db.TopKDiverse(q, qt, k, alpha)
					if err != nil {
						t.Fatal(err)
					}
					sortD, err := db.sortTopKDiverse(q, qt, k, alpha)
					if err != nil {
						t.Fatal(err)
					}
					sameScored(t, fmt.Sprintf("TopKDiverse k=%d a=%v", k, alpha), heapD, sortD)
				}
			}
		})
	}
}

// TestTieBreakByIDExact pins the tie contract directly: identical vectors
// and timestamps must rank by ascending ID, in both implementations.
func TestTieBreakByIDExact(t *testing.T) {
	db := New(2)
	at := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	// Insert in shuffled ID order so store order != ID order.
	for _, id := range []string{"INC-C", "INC-A", "INC-D", "INC-B"} {
		if err := db.Add(Entry{ID: id, Vector: []float64{1, 1}, Category: incident.Category("cat-" + id), Time: at}); err != nil {
			t.Fatal(err)
		}
	}
	q := []float64{0, 0}
	for _, fn := range []struct {
		name string
		call func() ([]Scored, error)
	}{
		{"TopK", func() ([]Scored, error) { return db.TopK(q, at, 3, 0.3) }},
		{"TopKDiverse", func() ([]Scored, error) { return db.TopKDiverse(q, at, 3, 0.3) }},
		{"sortTopK", func() ([]Scored, error) { return db.sortTopK(q, at, 3, 0.3) }},
		{"sortTopKDiverse", func() ([]Scored, error) { return db.sortTopKDiverse(q, at, 3, 0.3) }},
	} {
		got, err := fn.call()
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"INC-A", "INC-B", "INC-C"}
		if len(got) != 3 {
			t.Fatalf("%s: len = %d", fn.name, len(got))
		}
		for i, id := range want {
			if got[i].Entry.ID != id {
				t.Fatalf("%s: rank %d = %s, want %s", fn.name, i, got[i].Entry.ID, id)
			}
		}
	}
}

// TestDiverseTieAcrossCategories: two categories whose best entries tie
// exactly — the representative picked inside each category and the order
// between categories must both follow the ID tie-break.
func TestDiverseTieAcrossCategories(t *testing.T) {
	db := New(1)
	at := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	add := func(id, cat string) {
		t.Helper()
		if err := db.Add(Entry{ID: id, Vector: []float64{2}, Category: incident.Category(cat), Time: at}); err != nil {
			t.Fatal(err)
		}
	}
	add("INC-9", "alpha") // ties with INC-1 within alpha: INC-1 must represent
	add("INC-1", "alpha")
	add("INC-5", "beta")
	got, err := db.TopKDiverse([]float64{2}, at, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := db.sortTopKDiverse([]float64{2}, at, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	sameScored(t, "diverse-tie", got, ref)
	if got[0].Entry.ID != "INC-1" || got[1].Entry.ID != "INC-5" {
		t.Fatalf("got %s,%s want INC-1,INC-5", got[0].Entry.ID, got[1].Entry.ID)
	}
}

// TestConcurrentAddAndQuery hammers the store with mixed writers and
// readers; run under `go test -race` this proves the locking discipline.
func TestConcurrentAddAndQuery(t *testing.T) {
	db := New(4)
	at := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	// Seed a few entries so early queries have work to do.
	for i := 0; i < 8; i++ {
		if err := db.Add(Entry{
			ID:       fmt.Sprintf("SEED-%d", i),
			Vector:   []float64{float64(i), 1, 2, 3},
			Category: incident.Category(fmt.Sprintf("c%d", i%3)),
			Time:     at,
		}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	const writers, readers, perG = 4, 4, 200
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				err := db.Add(Entry{
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
			for i := 0; i < perG; i++ {
				if _, err := db.TopKDiverse(q, at.AddDate(0, 0, i%30), 5, 0.3); err != nil {
					t.Error(err)
					return
				}
				if _, err := db.TopK(q, at, 3, 0.3); err != nil {
					t.Error(err)
					return
				}
				db.Len()
				db.Categories()
			}
		}(r)
	}
	wg.Wait()
	if got, want := db.Len(), 8+writers*perG; got != want {
		t.Fatalf("len = %d, want %d", got, want)
	}
}

// sortTopK is the retained full-sort reference implementation of TopK; the
// equivalence tests hold the heap path to it.
func (db *DB) sortTopK(query []float64, qt time.Time, k int, alpha float64) ([]Scored, error) {
	if err := db.checkQuery(query, k); err != nil {
		return nil, err
	}
	scored := db.scoreAllSorted(query, qt, alpha)
	if len(scored) > k {
		scored = scored[:k]
	}
	return scored, nil
}

// sortTopKDiverse is the retained full-sort reference implementation of
// TopKDiverse: sort everything, then greedily take the first occurrence of
// each category.
func (db *DB) sortTopKDiverse(query []float64, qt time.Time, k int, alpha float64) ([]Scored, error) {
	if err := db.checkQuery(query, k); err != nil {
		return nil, err
	}
	scored := db.scoreAllSorted(query, qt, alpha)
	seen := make(map[incident.Category]bool)
	out := make([]Scored, 0, k)
	for _, s := range scored {
		if seen[s.Entry.Category] {
			continue
		}
		seen[s.Entry.Category] = true
		out = append(out, s)
		if len(out) == k {
			break
		}
	}
	return out, nil
}

// scoreAllSorted scores every entry, vectors materialized, in retrieval
// order — the full-sort reference the equivalence tests hold the
// streaming paths to.
func (db *DB) scoreAllSorted(query []float64, qt time.Time, alpha float64) []Scored {
	db.mu.RLock()
	scored := make([]Scored, 0, len(db.entries))
	for i := range db.entries {
		d, s := similarityAt(query, qt, db.row(i), db.entries[i].Time, alpha)
		e := db.entries[i]
		e.Vector = append([]float64(nil), db.row(i)...)
		scored = append(scored, Scored{Entry: e, Distance: d, Similarity: s})
	}
	db.mu.RUnlock()
	sort.Slice(scored, func(i, j int) bool { return ranksAfter(scored[j], scored[i]) })
	return scored
}
