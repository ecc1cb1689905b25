package httpd

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/incident"
	"repro/internal/parallel"
)

// Admission failure classes, separated so the submit endpoint maps them
// to 429 (client should slow down) vs 503 (server is saturated or
// draining) with errors.Is.
var (
	// ErrRateLimited reports that the team's token bucket is empty.
	ErrRateLimited = errors.New("team rate limit exceeded")
	// ErrOverloaded reports that the in-flight bound — drawn from the
	// shared worker budget — is reached.
	ErrOverloaded = errors.New("serving capacity exhausted")
)

// LimitConfig parameterizes a TeamLimiter.
type LimitConfig struct {
	// Rate is the sustained per-team admission rate in incidents/second.
	// Default 5.
	Rate float64
	// Burst is the per-team token-bucket depth. Default 10.
	Burst float64
	// MaxInflight bounds incidents admitted but not yet completed across
	// all teams. 0 derives the bound from the shared internal/parallel
	// worker budget (Configured()+1 pipeline workers, ×2 so a queue's
	// worth of work is ready when a worker frees up) — admission tracks
	// the budget even as SetLimit resizes it. Negative disables the
	// bound.
	MaxInflight int
	// QueueDepth enables severity-weighted waiting at saturation: up to
	// this many rate-admitted incidents wait for an in-flight slot instead
	// of bouncing with ErrOverloaded, and released slots hand off to the
	// most severe waiter first (FIFO within a severity). When the wait
	// queue is itself full, a more severe arrival preempts the least
	// severe (newest-first) waiter, which fails with ErrOverloaded — so a
	// Sev1 is never stuck behind a wall of Sev4s. 0 (the default) keeps
	// the immediate-rejection behavior.
	QueueDepth int
	// MaxWait bounds how long a queued incident waits for a slot before
	// failing with ErrOverloaded. Default 1s. Only meaningful with
	// QueueDepth > 0.
	MaxWait time.Duration
	// Now overrides the bucket clock (tests). Default time.Now.
	Now func() time.Time
}

func (c LimitConfig) withDefaults() LimitConfig {
	if c.Rate <= 0 {
		c.Rate = 5
	}
	if c.Burst <= 0 {
		c.Burst = 10
	}
	if c.MaxWait <= 0 {
		c.MaxWait = time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// TeamLimiter is per-team admission control for the incident-serving
// daemon: each team spends from its own token bucket (sustained Rate,
// depth Burst), and total admitted-but-unfinished incidents are bounded
// by the shared internal/parallel worker budget — the same budget the
// pipeline's workers draw from, so admission and processing capacity
// cannot drift apart. Safe for concurrent use.
type TeamLimiter struct {
	cfg LimitConfig

	mu       sync.Mutex
	teams    map[string]*teamState
	inflight int
	queue    []*waiter
	seq      uint64
}

// waiter is one rate-admitted incident waiting for an in-flight slot
// (LimitConfig.QueueDepth). The buffered channel receives true when a
// released slot hands off to it, false when a more severe arrival
// preempts it out of a full queue.
type waiter struct {
	team string
	sev  incident.Severity
	seq  uint64
	ch   chan bool
}

// teamState is one team's bucket plus its accounting.
type teamState struct {
	tokens float64
	last   time.Time

	accepted     uint64
	rejectedRate uint64
	rejectedLoad uint64
	queued       uint64
}

// TeamStats is one team's admission accounting snapshot.
type TeamStats struct {
	Team         string `json:"team"`
	Accepted     uint64 `json:"accepted"`
	RejectedRate uint64 `json:"rejectedRate"`
	RejectedLoad uint64 `json:"rejectedLoad"`
	// Queued counts admissions that waited for a slot (QueueDepth > 0);
	// waits that end in preemption or timeout also count here, plus in
	// RejectedLoad.
	Queued uint64  `json:"queued"`
	Tokens float64 `json:"tokens"`
}

// NewTeamLimiter builds a limiter from cfg (zero value: defaults).
func NewTeamLimiter(cfg LimitConfig) *TeamLimiter {
	return &TeamLimiter{cfg: cfg.withDefaults(), teams: make(map[string]*teamState)}
}

// maxInflight resolves the in-flight bound at admission time, so a
// SetLimit resize is reflected immediately.
func (l *TeamLimiter) maxInflight() int {
	if l.cfg.MaxInflight != 0 {
		return l.cfg.MaxInflight
	}
	return 2 * (parallel.Configured() + 1)
}

// Admit charges one incident to the team. On success it returns a release
// function the caller MUST invoke when the incident completes (or is
// rejected downstream), freeing its in-flight slot. On failure it returns
// a wrapped ErrRateLimited — with the wait the client should back off,
// retrievable via RetryAfter — or ErrOverloaded.
//
// The rate check always runs first, so a team over its bucket sees
// ErrRateLimited regardless of load. At the in-flight bound, sev decides
// what happens next: with QueueDepth > 0 the incident waits (severity-
// ordered — a released slot goes to the most severe waiter, a Sev1
// arrival preempts a Sev4 out of a full queue) up to MaxWait; without a
// queue it fails immediately with ErrOverloaded, the pre-queue behavior.
func (l *TeamLimiter) Admit(team string, sev incident.Severity) (release func(), err error) {
	now := l.cfg.Now()
	l.mu.Lock()

	ts := l.teams[team]
	if ts == nil {
		ts = &teamState{tokens: l.cfg.Burst, last: now}
		l.teams[team] = ts
	}
	// Refill since last touch, capped at the burst depth.
	ts.tokens = math.Min(l.cfg.Burst, ts.tokens+now.Sub(ts.last).Seconds()*l.cfg.Rate)
	ts.last = now

	if ts.tokens < 1 {
		ts.rejectedRate++
		wait := time.Duration((1 - ts.tokens) / l.cfg.Rate * float64(time.Second))
		l.mu.Unlock()
		return nil, fmt.Errorf("%w: team %s, retry in %s", ErrRateLimited, team, wait.Round(time.Millisecond))
	}
	m := l.maxInflight()
	if m <= 0 || l.inflight < m {
		ts.tokens--
		ts.accepted++
		l.inflight++
		l.mu.Unlock()
		return l.releaseFunc(), nil
	}
	// Saturated.
	if l.cfg.QueueDepth <= 0 {
		ts.rejectedLoad++
		l.mu.Unlock()
		return nil, fmt.Errorf("%w: %d incidents in flight (budget-derived bound %d)", ErrOverloaded, l.inflight, m)
	}
	if len(l.queue) >= l.cfg.QueueDepth {
		// Full queue: a strictly more severe arrival preempts the least
		// severe (newest-first) waiter; otherwise the arrival bounces.
		v := l.leastSevere()
		if v == nil || v.sev <= sev {
			ts.rejectedLoad++
			l.mu.Unlock()
			return nil, fmt.Errorf("%w: %d incidents in flight and %d queued (bound %d)", ErrOverloaded, l.inflight, len(l.queue), m)
		}
		l.remove(v)
		l.teams[v.team].rejectedLoad++
		v.ch <- false
	}
	// Wait for a released slot. The token is spent now (the request passed
	// the rate check and consumed admission rate whether or not a slot
	// frees up in time).
	ts.tokens--
	ts.queued++
	w := &waiter{team: team, sev: sev, seq: l.seq, ch: make(chan bool, 1)}
	l.seq++
	l.queue = append(l.queue, w)
	l.mu.Unlock()

	timer := time.NewTimer(l.cfg.MaxWait)
	defer timer.Stop()
	select {
	case granted := <-w.ch:
		if granted {
			return l.releaseFunc(), nil
		}
		return nil, fmt.Errorf("%w: preempted from the wait queue by a more severe incident", ErrOverloaded)
	case <-timer.C:
		l.mu.Lock()
		if !l.remove(w) {
			// A grant or preemption raced the timeout and already owns the
			// channel; honor it.
			l.mu.Unlock()
			if granted := <-w.ch; granted {
				return l.releaseFunc(), nil
			}
			return nil, fmt.Errorf("%w: preempted from the wait queue by a more severe incident", ErrOverloaded)
		}
		ts.rejectedLoad++
		l.mu.Unlock()
		return nil, fmt.Errorf("%w: no slot freed within %s", ErrOverloaded, l.cfg.MaxWait)
	}
}

// releaseFunc returns the once-only release closure for an admitted
// incident: the freed slot hands off to the best waiter if one is
// queued — most severe first, FIFO within a severity — otherwise the
// in-flight count drops.
func (l *TeamLimiter) releaseFunc() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			l.mu.Lock()
			if w := l.popBest(); w != nil {
				// Hand the slot over without touching inflight: the waiter
				// inherits it.
				l.teams[w.team].accepted++
				l.mu.Unlock()
				w.ch <- true
				return
			}
			l.inflight--
			l.mu.Unlock()
		})
	}
}

// popBest removes and returns the most deserving waiter: lowest severity
// value (Sev1 < Sev4), oldest first within a severity. Nil when the
// queue is empty. Caller holds l.mu.
func (l *TeamLimiter) popBest() *waiter {
	var best *waiter
	for _, w := range l.queue {
		if best == nil || w.sev < best.sev || (w.sev == best.sev && w.seq < best.seq) {
			best = w
		}
	}
	if best != nil {
		l.remove(best)
	}
	return best
}

// leastSevere returns the waiter a full queue would sacrifice first:
// highest severity value, newest first within a severity. Caller holds
// l.mu.
func (l *TeamLimiter) leastSevere() *waiter {
	var worst *waiter
	for _, w := range l.queue {
		if worst == nil || w.sev > worst.sev || (w.sev == worst.sev && w.seq > worst.seq) {
			worst = w
		}
	}
	return worst
}

// remove deletes w from the wait queue, reporting whether it was still
// queued. Caller holds l.mu.
func (l *TeamLimiter) remove(w *waiter) bool {
	for i, q := range l.queue {
		if q == w {
			l.queue = append(l.queue[:i], l.queue[i+1:]...)
			return true
		}
	}
	return false
}

// QueueLen returns how many rate-admitted incidents are waiting for an
// in-flight slot.
func (l *TeamLimiter) QueueLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.queue)
}

// RetryAfter extracts the whole-second backoff hint for a rate-limit
// rejection: at the configured rate, one token is 1/Rate seconds away at
// most. Returned in whole seconds (minimum 1) for the Retry-After header.
func (l *TeamLimiter) RetryAfter() int {
	s := int(math.Ceil(1 / l.cfg.Rate))
	if s < 1 {
		s = 1
	}
	return s
}

// Inflight returns how many admitted incidents have not yet released.
func (l *TeamLimiter) Inflight() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight
}

// MaxInflightBound returns the currently effective in-flight bound (<= 0
// means unbounded).
func (l *TeamLimiter) MaxInflightBound() int { return l.maxInflight() }

// Stats snapshots per-team admission accounting, sorted by team.
func (l *TeamLimiter) Stats() []TeamStats {
	l.mu.Lock()
	out := make([]TeamStats, 0, len(l.teams))
	for team, ts := range l.teams {
		out = append(out, TeamStats{
			Team: team, Accepted: ts.accepted,
			RejectedRate: ts.rejectedRate, RejectedLoad: ts.rejectedLoad,
			Queued: ts.queued, Tokens: ts.tokens,
		})
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Team < out[j].Team })
	return out
}
