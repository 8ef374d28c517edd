// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel owns a virtual clock and a priority queue of scheduled actions.
// All simulated components schedule work at absolute or relative virtual
// times; Run drains the queue in time order. Two actions at the same instant
// fire in scheduling order (a monotonically increasing sequence number breaks
// ties), so a simulation with a fixed seed is fully reproducible.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Action is anything the kernel can fire at a scheduled instant. A caller
// that never cancels can schedule its own record (Schedule) instead of a
// closure wrapped in an Event, and pay one allocation instead of two.
type Action interface {
	Fire()
}

// Event is a scheduled closure, the Action of At and After. Its handle
// lets the caller cancel it.
type Event struct {
	at   time.Duration
	fn   func()
	dead bool
}

// Fire runs the event's closure.
func (e *Event) Fire() { e.fn() }

// Cancel prevents a pending event from firing. Canceling an event that has
// already fired (or was already canceled) is a no-op.
func (e *Event) Cancel() {
	if e != nil {
		e.dead = true
	}
}

// At reports the virtual time the event is scheduled for.
func (e *Event) At() time.Duration { return e.at }

// entry is one queued action. The queue holds entries by value, so pushing
// one allocates nothing once the backing array has grown.
type entry struct {
	at  time.Duration
	seq uint64
	act Action
}

// before is the queue's total order: time, then scheduling order.
func (a *entry) before(b *entry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// dead reports whether the entry's action was canceled or stopped. Dead
// entries stay queued until they reach the front and are dropped there,
// without moving the clock or the fired count.
func (a *entry) dead() bool {
	switch act := a.act.(type) {
	case *Event:
		return act.dead
	case *Ticker:
		return act.stopped
	}
	return false
}

// arity is the fan-out of the queue's d-ary heap: a shallower tree than a
// binary heap, and the four children of a node share a cache line or two.
const arity = 4

// Kernel is the simulation engine. It is not safe for concurrent use; a
// simulation runs on a single goroutine by design.
type Kernel struct {
	now     time.Duration
	queue   []entry // d-ary min-heap under entry.before
	seq     uint64
	rng     *rand.Rand
	stopped bool
	fired   uint64
	limit   time.Duration // 0 = no horizon
}

// NewKernel returns a kernel whose randomness is derived entirely from seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Rand returns the kernel's deterministic random source. All simulated
// randomness must come from here so a seed fixes the whole run.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Fired reports how many events have executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// Schedule queues a at absolute virtual time t. Scheduling in the past (t <
// now) panics: it would silently reorder causality.
func (k *Kernel) Schedule(t time.Duration, a Action) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v which is before now %v", t, k.now))
	}
	k.push(t, a)
}

// At schedules fn at absolute virtual time t and returns its handle.
// Scheduling in the past (t < now) panics.
func (k *Kernel) At(t time.Duration, fn func()) *Event {
	e := &Event{at: t, fn: fn}
	k.Schedule(t, e)
	return e
}

// After schedules fn after delay d (d < 0 is clamped to 0).
func (k *Kernel) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

// Every schedules fn at now+d, then every period thereafter, until the
// returned Ticker is stopped or the simulation ends.
func (k *Kernel) Every(d, period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	t := &Ticker{k: k, period: period, fn: fn}
	k.push(k.now+max(d, 0), t)
	return t
}

// Ticker is a periodic Action: each time it fires it runs its function and
// queues itself again one period later. Stop cancels future ticks.
type Ticker struct {
	k       *Kernel
	period  time.Duration
	fn      func()
	stopped bool
}

// Fire runs one tick and re-arms the ticker unless the tick stopped it.
func (t *Ticker) Fire() {
	t.fn()
	if !t.stopped {
		t.k.push(t.k.now+t.period, t)
	}
}

// Stop cancels the ticker. Safe to call multiple times.
func (t *Ticker) Stop() { t.stopped = true }

// Stop halts Run after the currently executing event returns.
func (k *Kernel) Stop() { k.stopped = true }

// SetHorizon makes Run stop once virtual time would pass t. Events scheduled
// exactly at t still fire.
func (k *Kernel) SetHorizon(t time.Duration) { k.limit = t }

// Run executes events in time order until the queue empties, Stop is called,
// or the horizon passes. It returns the final virtual time. The first live
// event past the horizon stays queued for a later Run.
func (k *Kernel) Run() time.Duration {
	k.stopped = false
	for len(k.queue) > 0 && !k.stopped {
		e := &k.queue[0]
		if e.dead() {
			k.pop()
			continue
		}
		if k.limit > 0 && e.at > k.limit {
			k.now = k.limit
			return k.now
		}
		k.fire()
	}
	return k.now
}

// RunUntil executes events up to and including virtual time t, leaving later
// events queued, and advances the clock to exactly t.
func (k *Kernel) RunUntil(t time.Duration) {
	k.stopped = false
	for len(k.queue) > 0 && !k.stopped {
		e := &k.queue[0]
		if e.at > t {
			break
		}
		if e.dead() {
			k.pop()
			continue
		}
		k.fire()
	}
	if k.now < t {
		k.now = t
	}
}

// Pending reports the number of queued (possibly canceled) events.
func (k *Kernel) Pending() int { return len(k.queue) }

// fire pops the front entry, which must be live, and runs it.
func (k *Kernel) fire() {
	e := k.pop()
	k.now = e.at
	k.fired++
	e.act.Fire()
}

func (k *Kernel) push(t time.Duration, a Action) {
	k.seq++
	e := entry{at: t, seq: k.seq, act: a}
	k.queue = append(k.queue, e)
	q := k.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / arity
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
}

func (k *Kernel) pop() entry {
	q := k.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = entry{} // drop the action reference for the collector
	q = q[:n]
	k.queue = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := arity*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+arity && j < n; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&last) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = last
	return top
}
