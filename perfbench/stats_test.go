package main

import (
	"testing"
	"time"
)

func ascending(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	s := ascending(100)
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
}

func TestHighestTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{0, 0, 0},
		{10, 0, 0},       // p50 leaves 5 beyond
		{20, 0.5, 10},    // p90 leaves 2
		{100, 0.9, 10},   // p99 leaves 1
		{999, 0.9, 99},   // p99 is rank 990: 9 beyond
		{1000, 0.99, 10}, // p99.9 leaves 1
		{10000, 0.999, 10},
	} {
		got := highestTail(ascending(c.n))
		if got.P != c.p || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("highestTail(%d samples) = p%g with %d beyond of %d, want p%g with %d beyond",
				c.n, got.P, got.Beyond, got.N, c.p, c.beyond)
		}
		if got.P > 0 && got.Value != percentile(ascending(c.n), got.P) {
			t.Errorf("highestTail(%d samples) value %g, want the p%g sample", c.n, got.Value, got.P)
		}
	}
}

// fakeClock is simulated time: Sleep advances it instantly.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopChargesGeneratorStall(t *testing.T) {
	const service = 500 * time.Microsecond
	clk := &fakeClock{now: time.Unix(0, 0)}
	sent := map[int]time.Time{}
	// 1000 ops/s: op i is due at i ms. Handing off op 3 blocks the
	// generator for 10 ms, as a full queue would.
	ops := openLoop(clk, 20, 1000, func(i int, _ time.Time) {
		sent[i] = clk.Now()
		if i == 3 {
			clk.Sleep(10 * time.Millisecond)
		}
	})
	for i := range ops {
		ops[i].Done = sent[i].Add(service)
	}
	for i, o := range ops {
		due := time.Unix(0, 0).Add(time.Duration(i) * time.Millisecond)
		if !o.Due.Equal(due) {
			t.Fatalf("op %d due %v, want %v", i, o.Due, due)
		}
		// Ops 4..12 fell due during the stall and went out when it ended,
		// at 13 ms; their latency counts the wait, not just the service.
		want := service
		if i >= 4 && i <= 12 {
			want = 13*time.Millisecond - time.Duration(i)*time.Millisecond + service
		}
		if got := o.latency(); got != want {
			t.Errorf("op %d latency %v, want %v", i, got, want)
		}
		if got := o.lag(); got != want-service {
			t.Errorf("op %d generator lag %v, want %v", i, got, want-service)
		}
	}
}

func TestSelfTimesSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{Name: "op.x", Parent: -1, Start: 0, End: 100},
		{Name: "a.one", Parent: 0, Start: 10, End: 30},
		{Name: "a.two", Parent: 0, Start: 20, End: 50}, // overlaps a.one
		{Name: "b.three", Parent: 0, Start: 90, End: 120},
		{Name: "c.four", Parent: 3, Start: 95, End: 99},
	}
	want := []time.Duration{50, 20, 30, 26, 4}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
}

func TestRootsFollowParents(t *testing.T) {
	spans := []span{
		{Name: "op.x", Parent: -1},
		{Name: "a.one", Parent: 0},
		{Name: "aux.y", Parent: -1},
		{Name: "b.two", Parent: 1},
		{Name: "c.three", Parent: 2},
	}
	want := []int{0, 0, 2, 0, 2}
	for i, got := range roots(spans) {
		if got != want[i] {
			t.Errorf("root of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
}
