package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		n := 100
		counts := make([]atomic.Int32, n)
		if err := ForEach(n, workers, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachEmptyAndSingle(t *testing.T) {
	if err := ForEach(0, 4, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := ForEach(1, 4, func(i int) error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("single item did not run")
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	// Make high indices fail fast and low indices fail slow: the returned
	// error must still be the lowest failing index.
	err := ForEach(64, 8, func(i int) error {
		if i == 3 {
			time.Sleep(10 * time.Millisecond)
			return fmt.Errorf("err-%d", i)
		}
		if i >= 32 {
			return fmt.Errorf("err-%d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "err-3" {
		t.Fatalf("err = %v, want err-3", err)
	}
}

func TestForEachSequentialStopsAtFirstError(t *testing.T) {
	var ran []int
	err := ForEach(10, 1, func(i int) error {
		ran = append(ran, i)
		if i == 4 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
	if len(ran) != 5 {
		t.Fatalf("sequential path ran %v, want exactly 0..4", ran)
	}
}

func TestForEachPropagatesPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic not propagated")
		}
		if s, ok := r.(string); !ok || s != "kaboom" {
			t.Fatalf("recovered %v, want kaboom", r)
		}
	}()
	_ = ForEach(32, 4, func(i int) error {
		if i == 7 {
			panic("kaboom")
		}
		return nil
	})
}

func TestMapOrdersResultsByIndex(t *testing.T) {
	out, err := Map(50, 0, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if _, err := Map(10, 4, func(i int) (int, error) {
		if i == 2 {
			return 0, errors.New("mapfail")
		}
		return i, nil
	}); err == nil || err.Error() != "mapfail" {
		t.Fatalf("err = %v", err)
	}
}

func TestBudgetIsSharedAndRestored(t *testing.T) {
	old := SetLimit(3)
	defer SetLimit(old)

	// A nested ForEach must draw from the same budget: the outer call takes
	// extras, leaving fewer for inner calls, and everything still completes.
	var maxInFlight, inFlight atomic.Int64
	track := func() func() {
		cur := inFlight.Add(1)
		for {
			m := maxInFlight.Load()
			if cur <= m || maxInFlight.CompareAndSwap(m, cur) {
				break
			}
		}
		return func() { inFlight.Add(-1) }
	}
	err := ForEach(8, 8, func(i int) error {
		done := track()
		defer done()
		return ForEach(8, 8, func(j int) error {
			done := track()
			defer done()
			time.Sleep(time.Millisecond)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Budget 3 extras + 1 caller = 4 goroutines; nesting counts the outer
	// frame and its inline inner frame on the same goroutine, so in-flight
	// frames can reach 2 per goroutine.
	if got := maxInFlight.Load(); got > 8 {
		t.Fatalf("max in-flight frames = %d, want <= 8 under budget 3", got)
	}
	if Limit() != 3 {
		t.Fatalf("budget not restored: %d", Limit())
	}
}

func TestZeroBudgetStillCompletes(t *testing.T) {
	old := SetLimit(0)
	defer SetLimit(old)
	var n atomic.Int64
	if err := ForEach(20, 8, func(i int) error { n.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 20 {
		t.Fatalf("ran %d of 20", n.Load())
	}
}

func TestForEachConcurrentCallers(t *testing.T) {
	// Many goroutines using the pool at once must all complete and leave the
	// budget intact.
	before := Limit()
	var wg sync.WaitGroup
	for g := 0; g < 2*runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sum atomic.Int64
			if err := ForEach(100, 0, func(i int) error {
				sum.Add(int64(i))
				return nil
			}); err != nil {
				t.Error(err)
			}
			if sum.Load() != 4950 {
				t.Errorf("sum = %d", sum.Load())
			}
		}()
	}
	wg.Wait()
	if Limit() != before {
		t.Fatalf("budget leaked: %d != %d", Limit(), before)
	}
}

func TestReserveReleaseRoundTrip(t *testing.T) {
	defer SetLimit(SetLimit(4))

	if got := Reserve(2); got != 2 {
		t.Fatalf("Reserve(2) = %d with budget 4", got)
	}
	if got := Limit(); got != 2 {
		t.Fatalf("Limit after reserve = %d, want 2", got)
	}
	// Over-asking grants only what's left; an exhausted budget grants zero.
	if got := Reserve(10); got != 2 {
		t.Fatalf("Reserve(10) = %d, want remaining 2", got)
	}
	if got := Reserve(1); got != 0 {
		t.Fatalf("Reserve on empty budget = %d, want 0", got)
	}
	Release(2)
	Release(2)
	Release(0) // no-op
	if got := Limit(); got != 4 {
		t.Fatalf("Limit after releases = %d, want 4", got)
	}
	if got := Reserve(0); got != 0 {
		t.Fatalf("Reserve(0) = %d", got)
	}
	if got := Reserve(-3); got != 0 {
		t.Fatalf("Reserve(-3) = %d", got)
	}
}

// ---- budget configuration ----

// restoreLimit resets the configured budget after a test that resizes it.
func restoreLimit(t *testing.T) {
	t.Helper()
	prev := Limit()
	t.Cleanup(func() { SetLimit(prev) })
}

func TestEnvBudgetParsing(t *testing.T) {
	t.Setenv(BudgetEnv, "17")
	if v, ok := envBudget(); !ok || v != 17 {
		t.Fatalf("envBudget = %d/%v", v, ok)
	}
	t.Setenv(BudgetEnv, "not-a-number")
	if _, ok := envBudget(); ok {
		t.Fatal("unparsable env value must be ignored")
	}
	t.Setenv(BudgetEnv, "-4")
	if _, ok := envBudget(); ok {
		t.Fatal("negative env value must be ignored")
	}
}

// TestSetLimitMidFlightPreservesAccounting reserves slots, resizes, then
// releases: the available budget must land exactly on the new limit — the
// delta-based resize keeps outstanding grants coherent.
func TestSetLimitMidFlightPreservesAccounting(t *testing.T) {
	restoreLimit(t)
	SetLimit(4)
	got := Reserve(3)
	if got != 3 {
		Release(got)
		t.Fatalf("Reserve(3) = %d with limit 4", got)
	}
	SetLimit(10) // raise while 3 slots are out
	Release(got)
	if Limit() != 10 {
		t.Fatalf("limit = %d after raise+release, want 10", Limit())
	}
	got = Reserve(2)
	SetLimit(1) // shrink below the outstanding reservation
	Release(got)
	if Limit() != 1 {
		t.Fatalf("limit = %d after shrink+release, want 1", Limit())
	}
}
