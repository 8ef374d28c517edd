package sim

import (
	"testing"
	"time"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.At(3*time.Second, func() { got = append(got, 3) })
	k.At(1*time.Second, func() { got = append(got, 1) })
	k.At(2*time.Second, func() { got = append(got, 2) })
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if k.Now() != 3*time.Second {
		t.Fatalf("clock = %v, want 3s", k.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(time.Second, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel(1)
	k.At(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past must panic")
			}
		}()
		k.At(500*time.Millisecond, func() {})
	})
	k.Run()
}

func TestAfterClampsNegative(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.After(-5*time.Second, func() { fired = true })
	k.Run()
	if !fired {
		t.Fatal("negative delay should clamp to now and fire")
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	ev := k.At(time.Second, func() { fired = true })
	ev.Cancel()
	ev.Cancel() // double-cancel is safe
	k.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	k := NewKernel(1)
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 5 {
			k.After(time.Second, chain)
		}
	}
	k.After(time.Second, chain)
	k.Run()
	if count != 5 {
		t.Fatalf("chained events: got %d, want 5", count)
	}
	if k.Now() != 5*time.Second {
		t.Fatalf("clock = %v, want 5s", k.Now())
	}
}

func TestTicker(t *testing.T) {
	k := NewKernel(1)
	count := 0
	var tk *Ticker
	tk = k.Every(time.Second, time.Second, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	k.Run()
	if count != 3 {
		t.Fatalf("ticker fired %d times, want 3", count)
	}
}

func TestTickerStopInsideCallbackPreventsRearm(t *testing.T) {
	k := NewKernel(1)
	count := 0
	var tk *Ticker
	tk = k.Every(time.Second, time.Second, func() {
		count++
		tk.Stop()
	})
	k.SetHorizon(10 * time.Second)
	k.Run()
	if count != 1 {
		t.Fatalf("stopped ticker kept firing: %d", count)
	}
}

func TestHorizonStopsRun(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	k.At(time.Second, func() { fired++ })
	k.At(time.Minute, func() { fired++ })
	k.SetHorizon(30 * time.Second)
	end := k.Run()
	if fired != 1 {
		t.Fatalf("events fired = %d, want 1", fired)
	}
	if end != 30*time.Second {
		t.Fatalf("end = %v, want horizon", end)
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.At(1*time.Second, func() { got = append(got, 1) })
	k.At(5*time.Second, func() { got = append(got, 5) })
	k.RunUntil(2 * time.Second)
	if len(got) != 1 || k.Now() != 2*time.Second {
		t.Fatalf("RunUntil: got %v now %v", got, k.Now())
	}
	k.Run()
	if len(got) != 2 {
		t.Fatalf("remaining events lost: %v", got)
	}
}

func TestStop(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	k.At(time.Second, func() { fired++; k.Stop() })
	k.At(2*time.Second, func() { fired++ })
	k.Run()
	if fired != 1 {
		t.Fatalf("Stop did not halt the run: fired=%d", fired)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func() []time.Duration {
		k := NewKernel(99)
		var out []time.Duration
		var step func()
		n := 0
		step = func() {
			out = append(out, k.Now())
			n++
			if n < 50 {
				k.After(k.Exponential(time.Second), step)
			}
		}
		k.After(0, step)
		k.Run()
		return out
	}
	a, b := trace(), trace()
	if len(a) != len(b) {
		t.Fatal("different run lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at step %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPendingAndEventAt(t *testing.T) {
	k := NewKernel(1)
	e := k.At(3*time.Second, func() {})
	k.At(5*time.Second, func() {})
	if k.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", k.Pending())
	}
	if e.At() != 3*time.Second {
		t.Fatalf("event time = %v", e.At())
	}
	k.Run()
	if k.Pending() != 0 {
		t.Fatalf("pending after run = %d", k.Pending())
	}
	if k.Fired() != 2 {
		t.Fatalf("fired = %d", k.Fired())
	}
}

func TestBadTickerPeriodPanics(t *testing.T) {
	k := NewKernel(1)
	defer func() {
		if recover() == nil {
			t.Fatal("zero ticker period must panic")
		}
	}()
	k.Every(0, 0, func() {})
}

func TestRunKeepsFirstEventPastHorizon(t *testing.T) {
	k := NewKernel(1)
	var got []time.Duration
	k.At(time.Second, func() { got = append(got, k.Now()) })
	k.At(time.Minute, func() { got = append(got, k.Now()) })
	k.SetHorizon(30 * time.Second)
	if end := k.Run(); end != 30*time.Second {
		t.Fatalf("first run ended at %v, want the 30s horizon", end)
	}
	if k.Pending() != 1 || k.Fired() != 1 {
		t.Fatalf("after the first run: pending %d fired %d, want 1 and 1", k.Pending(), k.Fired())
	}
	k.SetHorizon(2 * time.Minute)
	if end := k.Run(); end != time.Minute {
		t.Fatalf("second run ended at %v, want 1m (queue drained)", end)
	}
	if len(got) != 2 || got[1] != time.Minute || k.Pending() != 0 {
		t.Fatalf("the 1m event was lost at the horizon: fired at %v, pending %d", got, k.Pending())
	}
}

func TestSimAllocationBudgets(t *testing.T) {
	k := NewKernel(1)
	k.Every(time.Second, time.Second, func() {})
	k.RunUntil(time.Second) // first tick
	if a := testing.AllocsPerRun(1000, func() { k.RunUntil(k.Now() + time.Second) }); a != 0 {
		t.Errorf("ticker re-arm: %.1f allocations per tick, budget 0", a)
	}
}
