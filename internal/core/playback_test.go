package core

import (
	"testing"
	"time"

	"dco/internal/sim"
)

func TestPlaybackQoS(t *testing.T) {
	cfg := smallConfig()
	cfg.Stream.Count = 30
	cfg.Playback = true
	k := sim.NewKernel(71)
	s := NewSystem(k, cfg, 48)
	// Run past full delivery: the playhead consumes chunks at stream rate
	// and trails the last delivery by a few periods.
	s.DisableCompletionStop()
	s.Run(150 * time.Second)

	q := s.QoS()
	if q.Viewers != 47 {
		t.Fatalf("viewers = %d", q.Viewers)
	}
	if q.Playing != 47 {
		t.Fatalf("only %d viewers ever started playing", q.Playing)
	}
	if q.MeanStartup <= 0 || q.MeanStartup > 60*time.Second {
		t.Fatalf("mean startup delay %v implausible", q.MeanStartup)
	}
	if q.MeanContinuity < 0.5 || q.MeanContinuity > 1 {
		t.Fatalf("mean continuity %f implausible", q.MeanContinuity)
	}
	// Every viewer's playhead should have consumed the full stream.
	for _, p := range s.Peers() {
		if p.ID() == s.Server().ID() {
			continue
		}
		played, _ := p.PlaybackStats()
		if played != cfg.Stream.Count {
			t.Fatalf("viewer %d played %d of %d chunks", p.ID(), played, cfg.Stream.Count)
		}
	}
}

func TestPlaybackStartupDelayBeforeStart(t *testing.T) {
	cfg := smallConfig()
	cfg.Playback = true
	k := sim.NewKernel(73)
	s := NewSystem(k, cfg, 16)
	// Before running, nobody has started.
	for _, p := range s.Peers() {
		if _, ok := p.StartupDelay(); ok {
			t.Fatal("playback started before the simulation ran")
		}
		if p.ContinuityIndex() != 1 {
			t.Fatal("continuity before playback should be 1")
		}
	}
	s.Run(200 * time.Second)
}

func TestPlaybackDisabledCostsNothing(t *testing.T) {
	cfg := smallConfig()
	k := sim.NewKernel(79)
	s := NewSystem(k, cfg, 16)
	s.Run(200 * time.Second)
	q := s.QoS()
	if q.Playing != 0 || q.TotalStalls != 0 {
		t.Fatalf("disabled playback produced stats: %+v", q)
	}
}

func TestPlaybackStallsUnderScarcity(t *testing.T) {
	// Starve the swarm: a tiny upload-constrained population watching a
	// fat stream must stall at least occasionally. Each viewer uploads half
	// the stream rate, and the server alone can serve 2 viewers at full
	// rate; we give it 6.
	cfg := smallConfig()
	cfg.Stream.Count = 40
	cfg.Stream.ChunkBits = 2_000_000 // 2 Mbit/s at one chunk a second
	cfg.PeerClasses = []BandwidthClass{{Frac: 1, UpBps: 1_000_000, DownBps: 4_000_000}}
	cfg.Playback = true
	k := sim.NewKernel(83)
	s := NewSystem(k, cfg, 7)
	s.Run(120 * time.Second)
	q := s.QoS()
	if q.TotalStalls == 0 {
		t.Fatal("an under-provisioned swarm should stall")
	}
	if q.MeanContinuity >= 1 {
		t.Fatalf("continuity should dip below 1, got %f", q.MeanContinuity)
	}
}
