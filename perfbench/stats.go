package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// tailLadder is the percentile ladder the tail report climbs.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer and the value is one or two outliers, not a tail.
const minBeyond = 10

// rank is the 1-based nearest-rank position of percentile p in n samples.
func rank(p float64, n int) int {
	// The epsilon keeps float error in p·n from pushing an exact rank up.
	r := int(math.Ceil(p*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// tail is the highest reportable percentile of a sample set.
type tail struct {
	P      float64 // the percentile, e.g. 0.99
	Value  float64
	Beyond int // samples ranked above it
	N      int
}

// highestTail climbs the ladder to the highest percentile that still has
// minBeyond samples beyond it. With fewer than minBeyond+1 samples no
// percentile qualifies and P is 0.
func highestTail(sorted []float64) tail {
	t := tail{N: len(sorted)}
	for _, p := range tailLadder {
		beyond := len(sorted) - rank(p, len(sorted))
		if len(sorted) == 0 || beyond < minBeyond {
			break
		}
		t.P, t.Value, t.Beyond = p, percentile(sorted, p), beyond
	}
	return t
}

// sortedIn returns a sorted copy of durations in the given unit.
func sortedIn(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// clock is the time source of the open-loop generator; tests substitute
// a simulated one.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

// spinWindow is how close to a deadline a wait stops sleeping and starts
// yielding in a loop: runtime timers can fire up to a millisecond late,
// which would make every open-loop send late.
const spinWindow = 1500 * time.Microsecond

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// Sleep sleeps until spinWindow before the deadline, then yields in a loop
// until it passes.
func (wallClock) Sleep(d time.Duration) {
	deadline := time.Now().Add(d)
	if d > spinWindow {
		time.Sleep(d - spinWindow)
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// opTimes is one operation's timeline. Latency runs from Due, the time the
// schedule said to send it, not from when it was actually sent, so a
// generator or queue stall is charged to every op it delayed
// (coordinated omission).
type opTimes struct {
	Due   time.Time // scheduled send
	Sent  time.Time // generator handed it off
	Start time.Time // a worker began it (zero when the program's own workers ran it)
	Done  time.Time
}

func (o opTimes) latency() time.Duration { return o.Done.Sub(o.Due) }
func (o opTimes) lag() time.Duration     { return o.Sent.Sub(o.Due) }
func (o opTimes) wait() time.Duration    { return o.Start.Sub(o.Due) }

// openLoop issues n ops at a fixed rate from the calling goroutine: op i is
// due at start + i/rate whatever happened to earlier ops. issue may block
// (a full queue); the ops behind it then go out late, and their recorded
// Due still reflects the schedule. A rate <= 0 issues back to back. It
// returns the due and sent times.
func openLoop(clk clock, n int, rate float64, issue func(i int, due time.Time)) []opTimes {
	ops := make([]opTimes, n)
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}
	start := clk.Now()
	for i := range ops {
		due := start.Add(time.Duration(i) * interval)
		if d := due.Sub(clk.Now()); d > 0 {
			clk.Sleep(d)
		}
		ops[i].Due, ops[i].Sent = due, clk.Now()
		issue(i, due)
	}
	return ops
}

// poolOpen runs an open loop whose ops execute on a pool of worker
// goroutines; the generator blocks while every worker is busy, so backlog
// shows up as lag and queue wait.
func poolOpen(workers, n int, rate float64, op func(i int)) []opTimes {
	queue := make(chan int)
	start := make([]time.Time, n)
	done := make([]time.Time, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				start[i] = time.Now()
				op(i)
				done[i] = time.Now()
			}
		}()
	}
	ops := openLoop(wallClock{}, n, rate, func(i int, _ time.Time) { queue <- i })
	close(queue)
	wg.Wait()
	for i := range ops {
		ops[i].Start, ops[i].Done = start[i], done[i]
	}
	return ops
}

// closedLoop runs ops 0..n-1 on the given number of client goroutines, each
// starting its next op when its previous one returns.
func closedLoop(clients, n int, op func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				op(i)
			}
		}()
	}
	wg.Wait()
}

// measureRounds is how many slices each measured phase is cut into. The
// slices of different phases alternate, so every phase samples the whole
// measured period, and each timing metric is the median of its per-round
// values, so a slow few seconds on a shared machine spoil one round rather
// than the run.
const measureRounds = 5

// slice returns round r's share [lo, hi) of n ops.
func slice(n, r int) (lo, hi int) { return n * r / measureRounds, n * (r + 1) / measureRounds }

// memSample is the runtime's cumulative allocation and GC counts.
type memSample struct {
	mallocs, bytes uint64
	gcs            uint32
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{ms.Mallocs, ms.TotalAlloc, ms.NumGC}
}

// closedPhase accumulates a closed-loop phase run in rounds: each round's
// throughput and CPU time per op, and the allocations of all of them.
type closedPhase struct {
	ops              int
	perSec, cpuPerOp []float64
	mem              memSample
}

// measure runs one round, f, which completes ops operations. A round of
// no operations, which a small --seconds can leave, records nothing.
func (c *closedPhase) measure(ops int, f func()) {
	if ops == 0 {
		return
	}
	m0 := readMem()
	cpu0, t0 := processCPU(), time.Now()
	f()
	elapsed, cpu := time.Since(t0), processCPU()-cpu0
	m1 := readMem()
	c.ops += ops
	c.perSec = append(c.perSec, float64(ops)/elapsed.Seconds())
	c.cpuPerOp = append(c.cpuPerOp, float64(cpu)/float64(time.Millisecond)/float64(ops))
	c.mem.mallocs += m1.mallocs - m0.mallocs
	c.mem.bytes += m1.bytes - m0.bytes
	c.mem.gcs += m1.gcs - m0.gcs
}

// processCPU is the user+sys CPU time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail.
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
