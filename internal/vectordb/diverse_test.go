package vectordb

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/incident"
)

// idRoute spreads entries over shards by a hash of their ID, so every
// category spans every shard and the diverse merge has real work to do.
type idRoute struct{ n int }

func (p idRoute) Shards() int { return p.n }

func (p idRoute) Route(e Entry) int {
	h := fnv.New32a()
	h.Write([]byte(e.ID))
	return int(h.Sum32() % uint32(p.n))
}

// diverseFixture fills a flat store and a 4-shard ID-routed store with the
// same n entries over numCats categories and three namespaces. Vectors
// and times come from a coarse grid, so many entries tie exactly on
// similarity and the ID tie-break decides.
func diverseFixture(t *testing.T, n, numCats int) (*DB, *Sharded) {
	t.Helper()
	const dim = 4
	rng := rand.New(rand.NewSource(int64(n*1000 + numCats)))
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	flat, sh := New(dim), NewSharded(dim, 0, idRoute{4})
	for i := 0; i < n; i++ {
		v := make([]float64, dim)
		for j := range v {
			v[j] = float64(rng.Intn(3))
		}
		e := Entry{
			ID:        fmt.Sprintf("INC-%06d", i),
			Vector:    v,
			Category:  incident.Category(fmt.Sprintf("cat-%03d", rng.Intn(numCats))),
			Time:      base.AddDate(0, 0, rng.Intn(3)),
			Summary:   fmt.Sprintf("summary %d", i),
			Namespace: []string{"", "team-a", "team-b"}[i%3],
		}
		must(t, flat.Add(e))
		must(t, sh.Add(e))
	}
	return flat, sh
}

// TestDiverseScanEquivalence holds the k-only diverse scans to one
// answer: the inline slot scan, the per-shard fan-out with its merge, the
// public sharded and flat TopKDiverse (unscoped and through namespace
// views), and the full-sort reference must return identical []Scored,
// vectors included, for k below and above the category count. The large
// store sits above diverseInlineMax, so its public path is the fan-out.
func TestDiverseScanEquivalence(t *testing.T) {
	qt := time.Date(2022, 1, 2, 0, 0, 0, 0, time.UTC)
	for _, n := range []int{600, diverseInlineMax + 300} {
		const numCats = 40
		flat, sh := diverseFixture(t, n, numCats)
		rng := rand.New(rand.NewSource(int64(n)))
		for qn := 0; qn < 6; qn++ {
			q := make([]float64, 4)
			for j := range q {
				q[j] = float64(rng.Intn(3))
			}
			for _, k := range []int{1, 5, numCats, numCats + 7} {
				for _, sc := range []scope{{}, {on: true, ns: "team-a"}, {on: true, ns: ""}} {
					name := fmt.Sprintf("n=%d q=%d k=%d scope=%+v", n, qn, k, sc)
					want, err := flat.topKDiverseScoped(q, qt, k, 0.3, sc)
					must(t, err)
					if !sc.on {
						ref, err := flat.sortTopKDiverse(q, qt, k, 0.3)
						must(t, err)
						sameDiverse(t, name+" flat vs sort reference", want, ref)
					}
					sh.mu.RLock()
					_, current := sh.liveShards()
					inline := sh.categoryBestInline(current, q, qt, k, 0.3, sc)
					parts, err := fanCategoryBest(current, q, qt, k, 0.3, sc)
					sh.mu.RUnlock()
					must(t, err)
					sameDiverse(t, name+" inline", inline, want)
					sameDiverse(t, name+" fan-out", mergeDiverse(parts, k), want)
					got, err := sh.topKDiverse(q, qt, k, 0.3, false, sc)
					must(t, err)
					sameDiverse(t, name+" sharded", got, want)
				}
				got, err := sh.Namespace("team-b").TopKDiverse(q, qt, k, 0.3)
				must(t, err)
				want, err := flat.Namespace("team-b").TopKDiverse(q, qt, k, 0.3)
				must(t, err)
				sameDiverse(t, fmt.Sprintf("n=%d q=%d k=%d team-b views", n, qn, k), got, want)
			}
		}
	}
}

func sameDiverse(t *testing.T, name string, got, want []Scored) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("%s: empty reference", name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\n got %+v\nwant %+v", name, got, want)
	}
}

// TestDiverseScanAllocatesPerWinner requires the inline scan to allocate
// for the k winners it returns, not for every category it tracks: 300
// categories and k = 5 stay within a small constant of k. The slot map
// and slice grow a few times; a scan that copied an Entry per category
// would allocate at least once per category.
func TestDiverseScanAllocatesPerWinner(t *testing.T) {
	_, sh := diverseFixture(t, 2000, 300)
	q := []float64{1, 0, 2, 1}
	qt := time.Date(2022, 1, 2, 0, 0, 0, 0, time.UTC)
	const k = 5
	allocs := testing.AllocsPerRun(20, func() {
		if out, _ := sh.TopKDiverse(q, qt, k, 0.3); len(out) != k {
			t.Fatalf("got %d results, want %d", len(out), k)
		}
	})
	if allocs > k+16 {
		t.Fatalf("inline diverse scan: %.0f allocs/op over 300 categories, want at most k+16 = %d", allocs, k+16)
	}
}
