package churn

import (
	"testing"
	"time"

	"dco/internal/sim"
)

type fakePeer struct {
	departed bool
	graceful bool
	departAt time.Duration
	k        *sim.Kernel
}

func (f *fakePeer) Depart(graceful bool) {
	f.departed = true
	f.graceful = graceful
	f.departAt = f.k.Now()
}

func TestSeedSchedulesDepartures(t *testing.T) {
	k := sim.NewKernel(3)
	d := NewDriver(k, Config{MeanLife: 10 * time.Second, GracefulFrac: 0.5}, nil)
	peers := make([]Peer, 50)
	fakes := make([]*fakePeer, 50)
	for i := range peers {
		fakes[i] = &fakePeer{k: k}
		peers[i] = fakes[i]
	}
	d.Seed(peers)
	k.SetHorizon(10 * time.Minute)
	k.Run()
	departed := 0
	for _, f := range fakes {
		if f.departed {
			departed++
		}
	}
	if departed != 50 {
		t.Fatalf("departed %d of 50", departed)
	}
	dep, arr := d.Stats()
	if dep != 50 || arr != 0 {
		t.Fatalf("stats = %d/%d", dep, arr)
	}
}

func TestGracefulFraction(t *testing.T) {
	k := sim.NewKernel(5)
	d := NewDriver(k, Config{MeanLife: time.Second, GracefulFrac: 0.5}, nil)
	n := 400
	fakes := make([]*fakePeer, n)
	for i := range fakes {
		fakes[i] = &fakePeer{k: k}
		d.Track(fakes[i])
	}
	k.SetHorizon(time.Minute)
	k.Run()
	graceful := 0
	for _, f := range fakes {
		if f.graceful {
			graceful++
		}
	}
	frac := float64(graceful) / float64(n)
	if frac < 0.40 || frac > 0.60 {
		t.Fatalf("graceful fraction %.2f far from 0.5", frac)
	}
}

func TestArrivalsKeepPopulationStable(t *testing.T) {
	k := sim.NewKernel(7)
	alive := 100
	var d *Driver
	spawn := func() Peer {
		alive++
		return &spawnedPeer{onDepart: func() { alive-- }}
	}
	d = NewDriver(k, Config{
		MeanLife:     30 * time.Second,
		MeanJoin:     30 * time.Second / 100, // stationary balance
		GracefulFrac: 1,
	}, spawn)
	for i := 0; i < 100; i++ {
		d.Track(&spawnedPeer{onDepart: func() { alive-- }})
	}
	d.StartArrivals()
	k.SetHorizon(5 * time.Minute)
	k.Run()
	if alive < 50 || alive > 200 {
		t.Fatalf("population drifted to %d (started at 100)", alive)
	}
	dep, arr := d.Stats()
	if dep == 0 || arr == 0 {
		t.Fatalf("no churn happened: dep=%d arr=%d", dep, arr)
	}
	// Rates should be within 2x of each other over 5 minutes.
	ratio := float64(arr) / float64(dep)
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("arrival/departure ratio %.2f not stationary", ratio)
	}
}

type spawnedPeer struct{ onDepart func() }

func (s *spawnedPeer) Depart(bool) { s.onDepart() }

func TestStopHaltsChurn(t *testing.T) {
	k := sim.NewKernel(9)
	spawned := 0
	d := NewDriver(k, Config{MeanLife: time.Second, MeanJoin: 100 * time.Millisecond}, func() Peer {
		spawned++
		return &spawnedPeer{onDepart: func() {}}
	})
	d.StartArrivals()
	k.At(2*time.Second, d.Stop)
	k.SetHorizon(time.Minute)
	k.Run()
	if spawned == 0 {
		t.Fatal("nothing spawned before Stop")
	}
	// All spawns happened before (roughly) the stop point.
	if k.Now() > time.Minute {
		t.Fatal("horizon overrun")
	}
	depBefore, arrBefore := d.Stats()
	k.SetHorizon(2 * time.Minute)
	k.Run()
	dep, arr := d.Stats()
	if dep != depBefore || arr != arrBefore {
		t.Fatal("churn continued after Stop")
	}
}

func TestBadGracefulFracPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GracefulFrac > 1 must panic")
		}
	}()
	NewDriver(sim.NewKernel(1), Config{MeanLife: time.Second, GracefulFrac: 2}, nil)
}
