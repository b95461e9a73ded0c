package fabric

import (
	"runtime"
	"time"

	"sphinx/internal/mem"
)

// BackoffPolicy is the shared capped-exponential-backoff-with-jitter used
// by every retry loop in the client stack (lock acquisition, torn-leaf
// re-reads, operation-level restarts). Waits are virtual — they advance
// the client's clock — and jitter comes from the client's deterministic
// stream, so a retry schedule is reproducible for a given fault-plan seed.
type BackoffPolicy struct {
	// BasePs is the first wait. Defaults to 250 ns.
	BasePs int64
	// CapPs bounds a single wait. Defaults to 16 µs (8 RTTs).
	CapPs int64
	// Budget is the number of waits before the loop gives up and the
	// operation fails with a retries-exhausted error. Defaults to 256.
	Budget int
}

// Default backoff parameters (virtual time).
const (
	DefaultBackoffBasePs = 250_000
	DefaultBackoffCapPs  = 16_000_000
	DefaultBackoffBudget = 256
)

func (p BackoffPolicy) basePs() int64 {
	if p.BasePs <= 0 {
		return DefaultBackoffBasePs
	}
	return p.BasePs
}

func (p BackoffPolicy) capPs() int64 {
	if p.CapPs <= 0 {
		return DefaultBackoffCapPs
	}
	return p.CapPs
}

func (p BackoffPolicy) budget() int {
	if p.Budget <= 0 {
		return DefaultBackoffBudget
	}
	return p.Budget
}

// Wall-clock graces of a watch (Backoff.Watch). Clients are goroutines
// sharing the host's cores, so a waiter's virtual clock can run a whole
// lease or budget ahead while the client it waits for is merely
// descheduled. The graces keep such a live client from losing its lock,
// and its waiters from failing their operation, to a wait that outran it
// in wall-clock time. They cost nothing unless a wait hits its lease or
// its budget.
const (
	// StallGrace is how long a watch must have seen one unchanged word
	// before Stalled may presume its holder dead.
	StallGrace = 50 * time.Millisecond
	// GiveUpGrace is how long a watch must have lasted before a spent
	// budget ends it. It is the longer of the two so that a chain of
	// waits — the awaited client itself sitting out a StallGrace behind
	// a third — does not fail the outer one.
	GiveUpGrace = 10 * StallGrace
)

// Start begins one retry sequence for the given client.
func (p BackoffPolicy) Start(c *Client) *Backoff {
	return &Backoff{pol: p, c: c}
}

// Backoff is the state of one retry sequence.
type Backoff struct {
	pol      BackoffPolicy
	c        *Client
	attempts int
	waitedPs int64 // virtual wait since the watch (re)started
	// The watch: set while the sequence waits for another client, whose
	// progress shows as a change of the watched word.
	watching   bool
	stallSlept bool // the watch has slept out StallGrace
	watched    uint64
	watchAddr  mem.Addr // where the watched word lives, if peekable
	peekable   bool
	watchStart time.Time
}

// Attempts returns how many waits have been taken.
func (b *Backoff) Attempts() int { return b.attempts }

// Watch marks the sequence as waiting for another client — a lock holder,
// a splitter, a publication in flight — whose progress shows as word (a
// lock or header word; 0 when progress is not observable). A word other
// than the watched one is progress: the watch starts over, in virtual and
// in wall-clock time.
func (b *Backoff) Watch(word uint64) {
	if b.watching && word == b.watched && !b.peekable {
		return
	}
	b.watching, b.stallSlept, b.watched = true, false, word
	b.peekable = false
	b.watchStart = time.Now()
	b.waitedPs = 0
}

// WatchAt is Watch on a word the sequence reads at addr. A grace is then
// slept out only while the word stays unchanged: a release during the
// sleep wakes the waiter at once. The wake-up peeks at memory outside the
// fabric's verbs, so it costs no virtual time or round trip; the caller's
// next observation is an ordinary read either way.
func (b *Backoff) WatchAt(addr mem.Addr, word uint64) {
	if b.watching && word == b.watched && b.peekable && addr == b.watchAddr {
		return
	}
	b.Watch(word)
	b.watchAddr, b.peekable = addr, true
}

// ResetWatch ends the watch, e.g. after a stolen lock: the next Watch
// starts over even on the same word.
func (b *Backoff) ResetWatch() {
	b.watching, b.stallSlept = false, false
	b.waitedPs = 0
}

// Stalled reports whether the watched word has stayed unchanged for
// leasePs of this sequence's virtual waiting and for StallGrace of wall-
// clock time, i.e. whether its holder may be presumed dead. When only the
// virtual lease has run out, Stalled sleeps out the rest of the grace and
// reports false, so the caller observes the word once more before acting.
// That one extra observation, whatever the wall clock says, keeps a
// single-threaded run's verb sequence reproducible.
func (b *Backoff) Stalled(leasePs int64) bool {
	if !b.watching || b.waitedPs < leasePs {
		return false
	}
	if b.stallSlept && time.Since(b.watchStart) >= StallGrace {
		return true
	}
	b.stallSlept = true
	b.sleepOut(StallGrace)
	return false
}

// First and longest wall-clock naps of a watch.
const (
	minNap = 50 * time.Microsecond
	maxNap = time.Millisecond
)

// sleepOut sleeps until the watch has lasted grace, or until a peekable
// watched word changes.
func (b *Backoff) sleepOut(grace time.Duration) {
	for nap := minNap; ; {
		left := grace - time.Since(b.watchStart)
		if left <= 0 {
			return
		}
		if !b.peekable {
			time.Sleep(left)
			return
		}
		if nap > left {
			nap = left
		}
		time.Sleep(nap)
		if w, ok := b.c.f.peek(b.watchAddr); !ok || w != b.watched {
			return
		}
		if nap < maxNap {
			nap *= 2
		}
	}
}

// Wait blocks (virtually) before the next retry: an exponentially growing,
// capped, jittered pause on the client's clock. It returns false once the
// retry budget is exhausted, in which case the caller must give up. A
// watching sequence is not given up before its watch has lasted
// GiveUpGrace: past its budget, each wait also naps on the wall clock,
// so the caller keeps observing the word while the awaited client runs.
func (b *Backoff) Wait() bool {
	if b.attempts >= b.pol.budget() {
		if !b.watching {
			return false
		}
		left := GiveUpGrace - time.Since(b.watchStart)
		if left <= 0 {
			return false
		}
		if left > maxNap {
			left = maxNap
		}
		time.Sleep(left)
	}
	step := b.pol.basePs()
	cap := b.pol.capPs()
	if shift := b.attempts; shift < 20 {
		step <<= uint(shift)
	} else {
		step = cap
	}
	if step > cap || step <= 0 {
		step = cap
	}
	// Full jitter over [step/2, step]: desynchronizes competing clients
	// while keeping each client's schedule deterministic.
	wait := step/2 + int64(b.c.Rand64()%uint64(step/2+1))
	b.c.AdvanceClock(wait)
	b.waitedPs += wait
	b.attempts++
	runtime.Gosched()
	return true
}
