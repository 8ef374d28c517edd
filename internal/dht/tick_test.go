package dht

import (
	"testing"
	"time"
)

// TestNextWait: a quiet round doubles the wait up to UpkeepBackoff × the
// base cadence; a change returns it to the base from anywhere.
func TestNextWait(t *testing.T) {
	const every = 10 * time.Millisecond
	wait := every
	for _, want := range []time.Duration{20, 40, 80, 80, 80} {
		if wait = nextWait(wait, every, false); wait != want*time.Millisecond {
			t.Fatalf("quiet round: wait %v, want %v", wait, want*time.Millisecond)
		}
	}
	if wait = nextWait(wait, every, true); wait != every {
		t.Fatalf("a change left the wait at %v, want the base %v", wait, every)
	}
}

// TestTickRunBacksOffAndWakes runs a tick whose rounds never change
// anything: the gaps between rounds grow to the cap, a wake during a
// stretched wait runs a round at once, and closing done stops it.
func TestTickRunBacksOffAndWakes(t *testing.T) {
	const every = 40 * time.Millisecond
	rounds := make(chan time.Time, 16)
	wake := make(chan struct{}, 1)
	done := make(chan struct{})
	stopped := make(chan struct{})
	tk := Tick{Every: every, Fn: func() bool { rounds <- time.Now(); return false }, Wake: wake}
	go func() { tk.Run(done); close(stopped) }()

	last := <-rounds
	var gap time.Duration
	for i := 0; i < 4; i++ { // 80, 160, 320, 320 ms
		r := <-rounds
		gap, last = r.Sub(last), r
	}
	if gap < UpkeepBackoff*every*3/4 {
		t.Fatalf("after four quiet rounds the gap is %v, want about %v", gap, UpkeepBackoff*every)
	}
	woke := time.Now()
	wake <- struct{}{}
	if r := <-rounds; r.Sub(woke) > UpkeepBackoff*every/2 {
		t.Fatalf("a wake during a %v wait ran the round %v later", UpkeepBackoff*every, r.Sub(woke))
	}
	close(done)
	select {
	case <-stopped:
	case <-time.After(time.Second):
		t.Fatal("Run did not return after done closed")
	}
}

// TestTickRunRunsNowAtTheBase: at the base cadence, before the first
// round, a wake still changes nothing, and a RunNow runs the round at once.
func TestTickRunRunsNowAtTheBase(t *testing.T) {
	const every = time.Second
	rounds := make(chan time.Time, 4)
	wake, now := make(chan struct{}, 1), make(chan struct{}, 1)
	done := make(chan struct{})
	defer close(done)
	tk := Tick{Every: every, Fn: func() bool { rounds <- time.Now(); return false }, Wake: wake, RunNow: now}
	go tk.Run(done)

	wake <- struct{}{}
	select {
	case <-rounds:
		t.Fatal("a wake at the base cadence ran a round")
	case <-time.After(every / 10):
	}
	sent := time.Now()
	now <- struct{}{}
	select {
	case r := <-rounds:
		if r.Sub(sent) > every/2 {
			t.Fatalf("a RunNow at the base cadence ran the round %v later", r.Sub(sent))
		}
	case <-time.After(every / 2):
		t.Fatal("a RunNow at the base cadence did not run the round at once")
	}
}
