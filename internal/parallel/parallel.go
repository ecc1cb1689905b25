// Package parallel is the bounded worker pool shared by the batch pipeline
// API and the evaluation harness. It exists to make fan-out cheap without
// making it explosive: every ForEach/Map call draws its extra worker
// goroutines from one process-wide budget (default GOMAXPROCS−1), so nested
// parallelism — Table 2 running seven methods concurrently, each of which
// fans out over its per-incident prediction loop — cannot multiply
// goroutines beyond the hardware.
//
// Two properties make the pool safe for the reproduction's determinism
// contract:
//
//   - Results are index-addressed: item i's result lands in slot i no matter
//     which worker ran it or when, so a parallel run is bit-identical to the
//     sequential run whenever fn(i) itself is order-independent (which the
//     simgpt client guarantees by deriving its RNG per-prompt).
//   - Errors are index-deterministic: the error returned is the one from the
//     lowest failing index, matching what a sequential loop would have
//     surfaced, regardless of completion order.
//
// The caller's goroutine always participates in the work, so a call makes
// progress even when the budget is exhausted (a nested call simply runs
// inline), and no call can deadlock waiting for workers.
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// budget is the number of extra worker goroutines the whole process may
// still spawn; configured is the limit it refills to as grants return. The
// caller-runs design means total concurrency is bounded by budget+1 ≈
// GOMAXPROCS. Keeping the pair means resizing is a delta on budget rather
// than a swap, so SetLimit stays correct while reservations are
// outstanding (budget may then dip negative until grants drain back).
var (
	budget     atomic.Int64
	configured atomic.Int64
)

// BudgetEnv is the environment variable that sets the extra-worker budget
// at startup: a non-negative integer overrides the GOMAXPROCS−1 default
// (unparsable or negative values are ignored). SetLimit can still resize
// the budget afterwards.
const BudgetEnv = "RCACOPILOT_PARALLEL_BUDGET"

func init() {
	n := int64(DefaultLimit())
	if v, ok := envBudget(); ok {
		n = int64(v)
	}
	budget.Store(n)
	configured.Store(n)
}

// envBudget reads the BudgetEnv override, ignoring unparsable values.
func envBudget() (int, bool) {
	s := os.Getenv(BudgetEnv)
	if s == "" {
		return 0, false
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// DefaultLimit is the CPU-bound extra-worker budget: GOMAXPROCS−1, the
// right bound when every worker keeps a core busy (the simulated
// substrates).
func DefaultLimit() int { return runtime.GOMAXPROCS(0) - 1 }

// Limit returns the number of extra worker goroutines currently available
// process-wide.
func Limit() int { return int(budget.Load()) }

// Configured returns the process-wide extra-worker limit the pool refills
// to as grants return — SetLimit's last value (or the startup default) —
// independent of outstanding reservations. Admission controllers size
// against this rather than Limit, whose value dips as work is in flight.
func Configured() int { return int(configured.Load()) }

// SetLimit resets the process-wide extra-worker budget and returns the
// previous configured value. The default (GOMAXPROCS−1) is right for the
// CPU-bound simulated substrates; deployments whose LLM and telemetry
// backends block on real I/O should raise it, since workers waiting on the
// network don't occupy a CPU. Tests also use
// it to force true goroutine interleaving on small machines. Resizing is
// safe while work is in flight: outstanding grants are unaffected and the
// available budget shifts by the difference.
func SetLimit(n int) int {
	if n < 0 {
		n = 0
	}
	for {
		cur := configured.Load()
		if configured.CompareAndSwap(cur, int64(n)) {
			budget.Add(int64(n) - cur)
			return int(cur)
		}
	}
}

// Reserve takes up to want extra-worker slots from the process-wide budget
// and returns how many were granted (possibly zero). It is how long-lived
// consumers — a streaming pipeline holding workers for the life of a
// channel — share the same budget as transient ForEach/Map calls, so a
// stream exerts backpressure on batch work and vice versa. Every grant must
// be returned with Release; the caller's own goroutine never needs a slot,
// so progress is guaranteed even on a zero grant.
func Reserve(want int) int { return reserve(want) }

// Release returns n slots taken by Reserve to the process-wide budget.
func Release(n int) { release(n) }

// reserve takes up to want extra workers from the global budget.
func reserve(want int) int {
	if want <= 0 {
		return 0
	}
	for {
		cur := budget.Load()
		if cur <= 0 {
			return 0
		}
		take := int64(want)
		if take > cur {
			take = cur
		}
		if budget.CompareAndSwap(cur, cur-take) {
			return int(take)
		}
	}
}

func release(n int) {
	if n > 0 {
		budget.Add(int64(n))
	}
}

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines
// (the caller's plus extras drawn from the shared budget). workers <= 0
// means GOMAXPROCS; workers == 1 runs the plain sequential loop. The return
// value is the error from the lowest failing index; once any fn fails,
// remaining unstarted items are skipped (best effort). A panic in fn is
// re-raised on the caller's goroutine.
func ForEach(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	extras := reserve(workers - 1)
	defer release(extras)

	errs := make([]error, n)
	var next atomic.Int64
	var stop atomic.Bool
	var panicked atomic.Value // holds capturedPanic; one type, so CAS never mistypes
	work := func() {
		for !stop.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						stop.Store(true)
						panicked.CompareAndSwap(nil, capturedPanic{r})
					}
				}()
				if err := fn(i); err != nil {
					errs[i] = err
					stop.Store(true)
				}
			}()
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < extras; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	if r := panicked.Load(); r != nil {
		panic(r.(capturedPanic).value)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// capturedPanic wraps a worker's recovered panic value so the atomic.Value
// always stores one concrete type regardless of what was panicked.
type capturedPanic struct{ value any }

// Map runs fn(i) for every i in [0, n) under ForEach's pool and returns the
// results in index order. On error the partial results are discarded and
// the lowest-index error is returned.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
