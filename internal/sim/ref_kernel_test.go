package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// refKernel is the kernel as it was before the value-typed queue: a
// container/heap of *refEvent, a closure and an event per ticker tick. It
// carries one fix, the one Kernel.Run carries: the first live event past
// the horizon is peeked, not popped and lost. TestKernelMatchesReference
// holds Kernel to it.
type refKernel struct {
	now     time.Duration
	queue   refQueue
	seq     uint64
	stopped bool
	fired   uint64
	limit   time.Duration
}

type refEvent struct {
	at    time.Duration
	seq   uint64
	fn    func()
	index int
	dead  bool
}

func (e *refEvent) Cancel() {
	if e != nil {
		e.dead = true
	}
}

func (e *refEvent) At() time.Duration { return e.at }

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

func (k *refKernel) At(t time.Duration, fn func()) *refEvent {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v which is before now %v", t, k.now))
	}
	k.seq++
	e := &refEvent{at: t, seq: k.seq, fn: fn}
	heap.Push(&k.queue, e)
	return e
}

func (k *refKernel) After(d time.Duration, fn func()) *refEvent {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

type refTicker struct {
	k       *refKernel
	period  time.Duration
	fn      func()
	ev      *refEvent
	stopped bool
}

func (k *refKernel) Every(d, period time.Duration, fn func()) *refTicker {
	t := &refTicker{k: k, period: period, fn: fn}
	t.ev = k.After(d, t.tick)
	return t
}

func (t *refTicker) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.ev = t.k.After(t.period, t.tick)
	}
}

func (t *refTicker) Stop() {
	t.stopped = true
	t.ev.Cancel()
}

func (k *refKernel) Stop()                      { k.stopped = true }
func (k *refKernel) SetHorizon(t time.Duration) { k.limit = t }

func (k *refKernel) Run() time.Duration {
	k.stopped = false
	for len(k.queue) > 0 && !k.stopped {
		e := k.queue[0]
		if e.dead {
			heap.Pop(&k.queue)
			continue
		}
		if k.limit > 0 && e.at > k.limit {
			k.now = k.limit
			return k.now
		}
		heap.Pop(&k.queue)
		k.now = e.at
		k.fired++
		e.fn()
	}
	return k.now
}

func (k *refKernel) RunUntil(t time.Duration) {
	k.stopped = false
	for len(k.queue) > 0 && !k.stopped {
		e := k.queue[0]
		if e.at > t {
			break
		}
		heap.Pop(&k.queue)
		if e.dead {
			continue
		}
		k.now = e.at
		k.fired++
		e.fn()
	}
	if k.now < t {
		k.now = t
	}
}

func (k *refKernel) Now() time.Duration { return k.now }
func (k *refKernel) Fired() uint64      { return k.fired }
func (k *refKernel) Pending() int       { return len(k.queue) }
