package sim

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// handle and stopper are what a script keeps of what it scheduled, on
// either kernel.
type handle interface {
	Cancel()
	At() time.Duration
}

type stopper interface{ Stop() }

// kernelAPI is the surface both kernels share; the two adapters below
// differ only in the handle types At/After/Every return.
type kernelAPI interface {
	Now() time.Duration
	Fired() uint64
	Pending() int
	Stop()
	SetHorizon(time.Duration)
	Run() time.Duration
	RunUntil(time.Duration)
	at(t time.Duration, fn func()) handle
	after(d time.Duration, fn func()) handle
	every(d, period time.Duration, fn func()) stopper
}

type kernelAdapter struct{ *Kernel }

func (k kernelAdapter) at(t time.Duration, fn func()) handle    { return k.At(t, fn) }
func (k kernelAdapter) after(d time.Duration, fn func()) handle { return k.After(d, fn) }
func (k kernelAdapter) every(d, p time.Duration, fn func()) stopper {
	return k.Every(d, p, fn)
}

type refAdapter struct{ *refKernel }

func (k refAdapter) at(t time.Duration, fn func()) handle    { return k.At(t, fn) }
func (k refAdapter) after(d time.Duration, fn func()) handle { return k.After(d, fn) }
func (k refAdapter) every(d, p time.Duration, fn func()) stopper {
	return k.Every(d, p, fn)
}

// world runs one random script against one kernel. Every choice, in the
// script and in the callbacks, comes from the world's own rng, so two
// worlds with one seed make the same choices for as long as their kernels
// fire the same callbacks in the same order.
type world struct {
	k       kernelAPI
	rng     *rand.Rand
	log     []int // callback ids in firing order
	events  []handle
	tickers []stopper
	budget  int // events callbacks may still schedule, so every drain ends
}

// delay draws from a coarse grid so many events share an instant.
func (w *world) delay() time.Duration {
	return time.Duration(w.rng.Intn(8)) * 250 * time.Millisecond
}

func (w *world) schedule(useAt bool) {
	id := len(w.events)
	fn := func() { w.log = append(w.log, id); w.react() }
	if useAt {
		w.events = append(w.events, w.k.at(w.k.Now()+w.delay(), fn))
	} else {
		w.events = append(w.events, w.k.after(w.delay()-500*time.Millisecond, fn))
	}
}

func (w *world) startTicker() {
	i := len(w.tickers)
	id := -1 - i
	w.tickers = append(w.tickers, w.k.every(w.delay(), time.Duration(1+w.rng.Intn(4))*250*time.Millisecond, func() {
		w.log = append(w.log, id)
		if w.rng.Intn(5) == 0 {
			w.tickers[i].Stop() // from inside its own callback
		}
		w.react()
	}))
}

func (w *world) cancelOne() {
	if len(w.events) > 0 {
		w.events[w.rng.Intn(len(w.events))].Cancel() // fired or canceled already: a no-op
	}
}

func (w *world) stopOne() {
	if len(w.tickers) > 0 {
		w.tickers[w.rng.Intn(len(w.tickers))].Stop()
	}
}

func (w *world) stopAll() {
	for _, t := range w.tickers {
		t.Stop()
	}
}

// react is what a firing callback does besides logging itself.
func (w *world) react() {
	switch w.rng.Intn(10) {
	case 0, 1:
		if w.budget > 0 {
			w.budget--
			w.schedule(w.rng.Intn(2) == 0)
		}
	case 2:
		w.cancelOne()
	case 3:
		w.stopOne()
	case 4:
		w.k.Stop()
	}
}

// deadTail drains the queue, then leaves live events up to a horizon and
// only canceled ones past it, and runs to that horizon.
func (w *world) deadTail() {
	w.stopAll()
	w.k.SetHorizon(0)
	w.budget = 0
	for w.k.Pending() > 0 {
		w.k.Run() // a callback may Stop the kernel mid-drain
	}
	now := w.k.Now()
	for n := 1 + w.rng.Intn(3); n > 0; n-- {
		w.events = append(w.events, w.k.at(now+w.delay(), func() {}))
	}
	horizon := now + 2*time.Second
	for n := 1 + w.rng.Intn(3); n > 0; n-- {
		e := w.k.at(horizon+time.Millisecond+w.delay(), func() {})
		e.Cancel()
		w.events = append(w.events, e)
	}
	w.k.SetHorizon(horizon)
	w.k.Run()
}

// step performs one scripted operation; forceTail makes it the dead-tail
// case.
func (w *world) step(forceTail bool) {
	op := w.rng.Intn(11)
	if forceTail {
		op = 10
	}
	switch op {
	case 0, 1:
		w.schedule(op == 0)
	case 2:
		w.cancelOne()
	case 3:
		w.startTicker()
	case 4:
		w.stopOne()
	case 5:
		w.k.Stop() // outside Run: the next Run clears it
	case 6:
		w.k.RunUntil(w.k.Now() + w.delay())
	case 7, 8:
		w.k.SetHorizon(w.k.Now() + w.delay() + time.Millisecond)
		w.k.Run()
	case 9:
		w.stopAll()
		w.k.SetHorizon(0)
		w.k.Run()
	case 10:
		w.deadTail()
	}
}

func TestKernelMatchesReference(t *testing.T) {
	const seeds, steps = 1000, 40
	for seed := int64(1); seed <= seeds; seed++ {
		a := &world{k: kernelAdapter{NewKernel(seed)}, rng: rand.New(rand.NewSource(seed)), budget: 60}
		b := &world{k: refAdapter{&refKernel{}}, rng: rand.New(rand.NewSource(seed)), budget: 60}
		tail := int(seed % steps)
		for i := 0; i < steps; i++ {
			a.step(i == tail)
			b.step(i == tail)
			if !slices.Equal(a.log, b.log) || a.k.Now() != b.k.Now() || a.k.Fired() != b.k.Fired() || a.k.Pending() != b.k.Pending() {
				t.Fatalf("seed %d step %d: kernels diverge\n kernel: now %v fired %d pending %d log %v\n    ref: now %v fired %d pending %d log %v",
					seed, i, a.k.Now(), a.k.Fired(), a.k.Pending(), a.log, b.k.Now(), b.k.Fired(), b.k.Pending(), b.log)
			}
		}
		for i := range a.events {
			if a.events[i].At() != b.events[i].At() {
				t.Fatalf("seed %d: event %d at %v, ref at %v", seed, i, a.events[i].At(), b.events[i].At())
			}
		}
	}
}
