package main

import (
	"runtime/metrics"
	"syscall"
	"time"
	"unsafe"
)

// processStart is as close to process start as Go code can get: package
// variable initialisation runs before main.
var processStart = time.Now()

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return ru
}

// cpuTime is the CPU time all of the process's threads have used so far,
// user plus system, from the scheduler's own nanosecond run-time account
// (CLOCK_PROCESS_CPUTIME_ID). getrusage reports the same quantity, but on
// kernels with tick-based accounting it is sampled at the timer tick, and a
// process that mostly sleeps and wakes on timers, as a swarm of mostly idle
// nodes does, is then mis-charged by tens of percent from second to second.
func cpuTime() time.Duration {
	const clockProcessCPUTimeID = 2
	if d, ok := clockGettime(clockProcessCPUTimeID); ok {
		return d
	}
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPUTime is the CPU time the calling thread has used so far; it
// means something only to a goroutine locked to its thread.
func threadCPUTime() time.Duration {
	const clockThreadCPUTimeID = 3
	d, _ := clockGettime(clockThreadCPUTimeID) // cannot fail for this clock on Linux
	return d
}

func clockGettime(clock uintptr) (time.Duration, bool) {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, false
	}
	return time.Duration(ts.Nano()), true
}

// peakRSSMB is the process's peak resident set so far (Linux reports KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// runtimeSeconds reads the cumulative mutex wait and GC CPU time.
func runtimeSeconds() (mutexWait, gcCPU float64) {
	s := []metrics.Sample{
		{Name: "/sync/mutex/wait/total:seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	for i, v := range s {
		if v.Value.Kind() != metrics.KindFloat64 {
			continue
		}
		if i == 0 {
			mutexWait = v.Value.Float64()
		} else {
			gcCPU = v.Value.Float64()
		}
	}
	return mutexWait, gcCPU
}
