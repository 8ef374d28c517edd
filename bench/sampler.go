package main

import (
	"crypto/sha256"
	"runtime"
	"sync/atomic"
	"time"
)

// CPU time on a shared host is not a stable unit. The two CPUs of the
// reference container are hyperthreads of a core other tenants also use:
// the same binary and seed cost 75-86 us of CPU per simulated delivery and,
// ten minutes later, 89-132 us, and the hardware counters that would give
// instruction counts are not exposed. So the harness carries its own unit
// with it: ten times a second, beside the workload, one thread runs a fixed
// reference kernel and times it on its own thread's CPU clock, and CPU cost
// is reported in reference microseconds: CPU time multiplied by what the
// kernel costs by definition over what it cost at that moment. What slows
// the host slows the kernel with the program, and the quotient stays put
// (README.md has the spreads with and without).

// refNominal is what one pass of the reference kernel costs by definition:
// its cost on the reference container on a quiet host, so that reference
// microseconds read as real ones there. runtime.ref_kernel_us reports what it
// cost during a run.
const refNominal = 750 * time.Microsecond

var (
	refBuf = make([]byte, 1<<20)
	refMap = func() map[uint64]uint64 {
		m := make(map[uint64]uint64, 1<<10)
		for k := uint64(0); k < 1<<10; k++ {
			m[k] = k
		}
		return m
	}()
	refSum [sha256.Size]byte
)

// refKernel is most of a millisecond of what the code under test spends its
// CPU time on - hashing, copying, hash-map updates - without allocating, so
// that it does not show in the allocation metrics.
func refKernel() {
	for round := 0; round < 4; round++ {
		refSum = sha256.Sum256(refBuf[:128<<10])
		copy(refBuf[512<<10:], refBuf[:512<<10])
		for i := uint64(0); i < 1<<12; i++ {
			refMap[(i*0x9E3779B97F4A7C15)>>54] += i
		}
	}
}

// tick is one reading of the window sampler.
type tick struct {
	at  time.Time
	cpu time.Duration // process CPU so far, the sampler's own thread excluded
	ref time.Duration // what one pass of the reference kernel cost just before
}

// windowSampler watches a measured window from one goroutine, ten times a
// second: the reference kernel's cost, the process's CPU time so far, and
// the peak goroutine count. From these the window's CPU cost is reported as
// its median one-second slice, each slice in the reference microseconds of
// its own second, scaled to the window. A burst that is not the program's
// (a neighbour on the host, a page-cache flush) or that is rare (a
// large-heap GC cycle) lands in a slice or two and the median ignores it;
// the plain total (runtime.cpu_us_per_chunk_mean) does not.
type windowSampler struct {
	stop  chan struct{}
	done  chan struct{}
	own   atomic.Int64 // CPU ns the sampler's own thread has used
	peak  int
	ticks []tick // read only after finish
}

func startWindowSampler() *windowSampler {
	w := &windowSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		// The kernel is timed on this thread's own CPU clock, so the goroutine
		// must stay on it, alone.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		base := threadCPUTime()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			t0 := threadCPUTime()
			refKernel()
			t1 := threadCPUTime()
			w.own.Store(int64(t1 - base))
			w.ticks = append(w.ticks, tick{at: time.Now(), cpu: cpuTime() - (t1 - base), ref: t1 - t0})
			if n := runtime.NumGoroutine(); n > w.peak {
				w.peak = n
			}
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// cpu is the CPU time the process has used so far without the sampler's own.
func (w *windowSampler) cpu() time.Duration { return cpuTime() - time.Duration(w.own.Load()) }

func (w *windowSampler) finish() {
	close(w.stop)
	<-w.done
}

// refCost is the median cost of the reference kernel over ticks[lo:hi].
func (w *windowSampler) refCost(lo, hi int) time.Duration {
	v := make([]float64, 0, hi-lo)
	for _, t := range w.ticks[lo:hi] {
		v = append(v, float64(t.ref))
	}
	return time.Duration(median(v))
}

// inRef converts CPU time spent between two instants into reference time:
// the kernel's median cost over the ticks between them is the yardstick. A
// stretch too short to hold a tick is measured against the whole run's.
func (w *windowSampler) inRef(cpu time.Duration, from, to time.Time) time.Duration {
	lo, hi := 0, 0
	for i, t := range w.ticks {
		if t.at.Before(from) {
			lo = i + 1
		}
		if !t.at.After(to) {
			hi = i + 1
		}
	}
	if hi <= lo {
		lo, hi = 0, len(w.ticks)
	}
	return time.Duration(float64(cpu) * float64(refNominal) / float64(w.refCost(lo, hi)))
}

// refRates returns, per one-second slice of the sampled stretch, the
// process's CPU use in reference CPU-seconds per wall-second.
func (w *windowSampler) refRates() []float64 {
	const perSlice = 10
	var rates []float64
	for lo := 0; lo+perSlice < len(w.ticks); lo += perSlice {
		a, b := w.ticks[lo], w.ticks[lo+perSlice]
		rate := (b.cpu - a.cpu).Seconds() / b.at.Sub(a.at).Seconds()
		rates = append(rates, rate*float64(refNominal)/float64(w.refCost(lo, lo+perSlice+1)))
	}
	return rates
}
