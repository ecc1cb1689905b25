package vectordb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/incident"
)

// shardCounts is the equivalence grid from the acceptance criteria.
var shardCounts = []int{1, 2, 7, 16}

// fillIndex inserts the same deterministic pseudo-random entries buildDB
// generates into any Index implementation.
func fillIndex(t *testing.T, idx Index, seed int64, n, dim, numCats int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		v := make([]float64, dim)
		for j := range v {
			v[j] = float64(rng.Intn(4))
		}
		err := idx.Add(Entry{
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
}

// queryGrid compares TopK and TopKDiverse between a reference and a
// candidate index over a grid of queries, ks and alphas.
func queryGrid(t *testing.T, name string, ref, got Index, seed int64, n, dim int) {
	t.Helper()
	qt := time.Date(2022, 1, 6, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(seed * 131))
	for _, k := range []int{1, 2, 5, 15, n + 10} {
		for _, alpha := range []float64{0, 0.3, 0.8} {
			q := make([]float64, dim)
			for j := range q {
				q[j] = float64(rng.Intn(4))
			}
			wantK, err := ref.TopK(q, qt, k, alpha)
			if err != nil {
				t.Fatal(err)
			}
			gotK, err := got.TopK(q, qt, k, alpha)
			if err != nil {
				t.Fatal(err)
			}
			sameScored(t, fmt.Sprintf("%s TopK k=%d a=%v", name, k, alpha), gotK, wantK)

			wantD, err := ref.TopKDiverse(q, qt, k, alpha)
			if err != nil {
				t.Fatal(err)
			}
			gotD, err := got.TopKDiverse(q, qt, k, alpha)
			if err != nil {
				t.Fatal(err)
			}
			sameScored(t, fmt.Sprintf("%s TopKDiverse k=%d a=%v", name, k, alpha), gotD, wantD)
		}
	}
}

// TestShardedMatchesFlat is the tentpole golden: for every tested shard
// count — including counts far above the entry count, so most shards are
// empty — the sharded store's TopK/TopKDiverse are bit-identical to the
// flat reference on tie-heavy data.
func TestShardedMatchesFlat(t *testing.T) {
	cases := []struct {
		name            string
		seed            int64
		n, dim, numCats int
	}{
		{"small-many-ties", 1, 40, 3, 4},
		{"medium", 2, 400, 8, 20},
		{"more-cats-than-k", 3, 200, 6, 60},
		{"single-category", 4, 100, 4, 1},
		{"shorter-than-shards", 5, 5, 2, 3},
		{"tiny", 6, 3, 2, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			flat := New(tc.dim)
			fillIndex(t, flat, tc.seed, tc.n, tc.dim, tc.numCats)
			for _, shards := range shardCounts {
				sh := NewSharded(tc.dim, shards, nil)
				fillIndex(t, sh, tc.seed, tc.n, tc.dim, tc.numCats)
				if sh.Len() != flat.Len() {
					t.Fatalf("shards=%d: len %d != %d", shards, sh.Len(), flat.Len())
				}
				queryGrid(t, fmt.Sprintf("shards=%d", shards), flat, sh, tc.seed, tc.n, tc.dim)
			}
		})
	}
}

// TestShardedIVFMatchesFlat trains the IVF coarse quantizer from the
// stored vectors, checks the rebalanced store still matches the flat
// reference exactly, and keeps matching as post-training inserts route
// through the trained centroids.
func TestShardedIVFMatchesFlat(t *testing.T) {
	const seed, n, dim, numCats = 7, 300, 6, 12
	for _, shards := range []int{2, 7, 16} {
		flat := New(dim)
		fillIndex(t, flat, seed, n, dim, numCats)
		sh := NewSharded(dim, shards, nil)
		fillIndex(t, sh, seed, n, dim, numCats)
		if err := sh.TrainIVF(0); err != nil {
			t.Fatal(err)
		}
		if _, ok := sh.Partitioner().(*IVF); !ok {
			t.Fatalf("shards=%d: partitioner is %T after TrainIVF", shards, sh.Partitioner())
		}
		if sh.Len() != n {
			t.Fatalf("shards=%d: rebalance lost entries: %d != %d", shards, sh.Len(), n)
		}
		queryGrid(t, fmt.Sprintf("ivf-shards=%d", shards), flat, sh, seed, n, dim)

		// Inserts after training route through the centroids and stay
		// visible to queries.
		post := Entry{ID: "INC-POST", Vector: make([]float64, dim), Category: "cat-post",
			Time: time.Date(2022, 1, 5, 0, 0, 0, 0, time.UTC)}
		if err := sh.Add(post); err != nil {
			t.Fatal(err)
		}
		if err := flat.Add(post); err != nil {
			t.Fatal(err)
		}
		queryGrid(t, fmt.Sprintf("ivf-post-add-shards=%d", shards), flat, sh, seed+1, n, dim)
	}
}

// TestTrainIVFDeterministic pins quantizer determinism: identical vectors
// in identical order train identical centroids.
func TestTrainIVFDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vecs := make([][]float64, 64)
	for i := range vecs {
		vecs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	a, err := TrainIVF(vecs, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainIVF(vecs, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Centroids(), b.Centroids()) {
		t.Fatal("TrainIVF is not deterministic for identical input")
	}
}

// TestTrainIVFValidation covers the error paths.
func TestTrainIVFValidation(t *testing.T) {
	if _, err := TrainIVF(nil, 4, 0); err == nil {
		t.Fatal("no vectors should fail")
	}
	if _, err := TrainIVF([][]float64{{1}}, 1, 0); err == nil {
		t.Fatal("shards < 2 should fail")
	}
	if _, err := TrainIVF([][]float64{{1, 2}, {1}}, 2, 0); err == nil {
		t.Fatal("ragged vectors should fail")
	}
	// Fewer vectors than shards is allowed.
	if _, err := TrainIVF([][]float64{{1, 2}}, 4, 0); err != nil {
		t.Fatal(err)
	}
	s := NewSharded(2, 4, nil)
	if err := s.TrainIVF(0); err == nil {
		t.Fatal("TrainIVF on an empty store should fail")
	}
}

// TestNewShardedRejectsShardlessPartitioner: a partitioner reporting no
// shards must not produce a store that panics on first Add.
func TestNewShardedRejectsShardlessPartitioner(t *testing.T) {
	for _, p := range []Partitioner{CategoryHash{N: 0}, &IVF{}} {
		sh := NewSharded(2, 5, p)
		if sh.NumShards() < 1 {
			t.Fatalf("%T: store built with %d shards", p, sh.NumShards())
		}
		if err := sh.Add(entry("a", "X", []float64{1, 2}, 0)); err != nil {
			t.Fatalf("%T: %v", p, err)
		}
	}
}

// TestCategoryHashRoutesInRange sanity-checks the default partitioner.
func TestCategoryHashRoutesInRange(t *testing.T) {
	p := CategoryHash{N: 7}
	seen := make(map[int]bool)
	for i := 0; i < 100; i++ {
		e := Entry{Category: incident.Category(fmt.Sprintf("cat-%d", i))}
		dst := p.Route(e)
		if dst < 0 || dst >= 7 {
			t.Fatalf("route %d out of range", dst)
		}
		seen[dst] = true
	}
	if len(seen) < 2 {
		t.Fatal("category hash routed every category to one shard")
	}
}

// TestShardedTieBreakByIDExact mirrors the flat-store tie contract on the
// sharded implementation: identical vectors and timestamps rank by
// ascending ID even when the tied entries live in different shards.
func TestShardedTieBreakByIDExact(t *testing.T) {
	at := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	for _, shards := range shardCounts {
		sh := NewSharded(2, shards, nil)
		// Distinct categories spread the tied entries across shards.
		for _, id := range []string{"INC-C", "INC-A", "INC-D", "INC-B"} {
			if err := sh.Add(Entry{ID: id, Vector: []float64{1, 1}, Category: incident.Category("cat-" + id), Time: at}); err != nil {
				t.Fatal(err)
			}
		}
		q := []float64{0, 0}
		for _, fn := range []struct {
			name string
			call func() ([]Scored, error)
		}{
			{"TopK", func() ([]Scored, error) { return sh.TopK(q, at, 3, 0.3) }},
			{"TopKDiverse", func() ([]Scored, error) { return sh.TopKDiverse(q, at, 3, 0.3) }},
		} {
			got, err := fn.call()
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"INC-A", "INC-B", "INC-C"}
			if len(got) != 3 {
				t.Fatalf("shards=%d %s: len = %d", shards, fn.name, len(got))
			}
			for i, id := range want {
				if got[i].Entry.ID != id {
					t.Fatalf("shards=%d %s: rank %d = %s, want %s", shards, fn.name, i, got[i].Entry.ID, id)
				}
			}
		}
	}
}

// TestShardedValidation mirrors the flat store's rejection behaviour,
// including duplicates whose copies would route to different shards.
func TestShardedValidation(t *testing.T) {
	sh := NewSharded(2, 4, nil)
	if err := sh.Add(Entry{ID: "a", Vector: []float64{1}, Category: "X"}); err == nil {
		t.Fatal("dim mismatch should fail")
	}
	if err := sh.Add(Entry{ID: "", Vector: []float64{1, 2}, Category: "X"}); err == nil {
		t.Fatal("empty ID should fail")
	}
	if err := sh.Add(Entry{ID: "a", Vector: []float64{1, 2}, Category: "X", Time: t0}); err != nil {
		t.Fatal(err)
	}
	// Same ID, different category: routes to a different shard, must still
	// be rejected as a duplicate.
	if err := sh.Add(Entry{ID: "a", Vector: []float64{1, 2}, Category: "Y", Time: t0}); err == nil {
		t.Fatal("duplicate ID across shards should fail")
	}
	if sh.Len() != 1 {
		t.Fatalf("len = %d after rejected adds", sh.Len())
	}
	if _, err := sh.TopK([]float64{1}, t0, 1, 0.3); err == nil {
		t.Fatal("query dim mismatch should fail")
	}
	if _, err := sh.TopKDiverse([]float64{1, 2}, t0, 0, 0.3); err == nil {
		t.Fatal("k=0 should fail")
	}
}

// TestShardedGetCategoriesCounts covers the lookup and inventory views.
func TestShardedGetCategoriesCounts(t *testing.T) {
	sh := NewSharded(1, 4, nil)
	must(t, sh.Add(entry("a", "B", []float64{1}, 0)))
	must(t, sh.Add(entry("b", "A", []float64{2}, 0)))
	must(t, sh.Add(entry("c", "B", []float64{3}, 0)))
	got, ok := sh.Get("b")
	if !ok || got.Category != "A" {
		t.Fatalf("Get = %+v/%v", got, ok)
	}
	if _, ok := sh.Get("missing"); ok {
		t.Fatal("Get on missing ID should miss")
	}
	cats := sh.Categories()
	if len(cats) != 2 || cats[0] != "A" || cats[1] != "B" {
		t.Fatalf("Categories = %v", cats)
	}
	counts := countByCategory(sh)
	if counts["B"] != 2 || counts["A"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	// The vector is copied on Add.
	v := []float64{9}
	must(t, sh.Add(Entry{ID: "iso", Category: "C", Vector: v, Time: t0}))
	v[0] = 0
	if e, _ := sh.Get("iso"); e.Vector[0] != 9 {
		t.Fatal("Add must copy the vector")
	}
}

// TestShardedRebalancePreservesResults rebalances between partitioners and
// requires identical query results before and after — placement is
// invisible to exact fan-out search.
func TestShardedRebalancePreservesResults(t *testing.T) {
	const seed, n, dim, numCats = 9, 120, 4, 8
	sh := NewSharded(dim, 7, nil)
	fillIndex(t, sh, seed, n, dim, numCats)
	qt := time.Date(2022, 1, 6, 0, 0, 0, 0, time.UTC)
	q := []float64{1, 2, 0, 3}
	before, err := sh.TopK(q, qt, 10, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Rebalance(CategoryHash{N: 3}); err != nil {
		t.Fatal(err)
	}
	if sh.NumShards() != 3 {
		t.Fatalf("NumShards = %d after rebalance", sh.NumShards())
	}
	after, err := sh.TopK(q, qt, 10, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	sameScored(t, "rebalance", after, before)
	total := 0
	for _, l := range sh.ShardLens() {
		total += l
	}
	if total != n {
		t.Fatalf("shard lens sum to %d, want %d", total, n)
	}
	if err := sh.Rebalance(nil); err == nil {
		t.Fatal("nil partitioner should fail")
	}
}

// TestShardedConcurrentAddQuery hammers the sharded store with concurrent
// writers, readers, and a mid-flight IVF retrain; run under `go test
// -race` this proves the per-shard locking discipline and the
// stop-the-world rebalance. The final store must match a flat reference
// filled with the same entries.
func TestShardedConcurrentAddQuery(t *testing.T) {
	const writers, readers, perG = 4, 4, 150
	sh := NewSharded(4, 7, nil)
	at := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
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
			for i := 0; i < perG; i++ {
				err := sh.Add(Entry{
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
				if _, err := sh.TopKDiverse(q, at.AddDate(0, 0, i%30), 5, 0.3); err != nil {
					t.Error(err)
					return
				}
				if _, err := sh.TopK(q, at, 3, 0.3); err != nil {
					t.Error(err)
					return
				}
				sh.Len()
				sh.Categories()
				sh.Get(fmt.Sprintf("W%d-%04d", r, i))
				if i%50 == 25 {
					if err := sh.TrainIVF(2); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if got, want := sh.Len(), 8+writers*perG; got != want {
		t.Fatalf("len = %d, want %d", got, want)
	}

	// After the storm: still bit-identical to a flat store with the same
	// contents.
	flat := New(4)
	for _, e := range sh.snapshotSortedByID() {
		must(t, flat.Add(e))
	}
	queryGrid(t, "post-hammer", flat, sh, 17, sh.Len(), 4)
}
