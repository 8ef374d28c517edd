package core

import (
	"testing"
	"time"

	"dco/internal/sim"
)

func hierConfig() Config {
	cfg := DefaultConfig()
	cfg.Stream.Count = 12
	cfg.Neighbors = 8
	cfg.Hierarchy.Enabled = true
	cfg.Hierarchy.InitialCoordinators = 6
	cfg.Maintenance = true
	return cfg
}

func TestHierarchyDelivers(t *testing.T) {
	cfg := hierConfig()
	k := sim.NewKernel(41)
	s := NewSystem(k, cfg, 48)
	s.Run(300 * time.Second)
	if got, want := s.ReceivedTotal(), int64(47*cfg.Stream.Count); got != want {
		t.Fatalf("two-tier delivery incomplete: %d/%d", got, want)
	}
	// Only the configured upper tier should be in the DHT.
	if n := len(s.Coordinators()); n != 7 { // server + 6
		t.Fatalf("coordinators = %d, want 7", n)
	}
}

func TestHierarchyClientsProxy(t *testing.T) {
	cfg := hierConfig()
	k := sim.NewKernel(43)
	s := NewSystem(k, cfg, 48)
	s.Run(300 * time.Second)
	by := s.Net.OverheadByKind()
	if by[kProxyLookup] == 0 || by[kProxyInsert] == 0 {
		t.Fatalf("no proxy traffic observed: %v", by)
	}
	// Clients' chord state should remain tiny (they are not ring members).
	for _, p := range s.Peers() {
		if !p.inDHT && p.Alive() {
			if len(p.cs.Neighbors()) > 0 {
				t.Fatalf("lower-tier client %d has ring neighbors", p.ID())
			}
		}
	}
}

func TestOverloadPromotesStableClient(t *testing.T) {
	cfg := hierConfig()
	// Very low overload threshold: the coordinators are overloaded from the
	// first second, and stable clients volunteer early.
	cfg.Hierarchy.OverloadOpsPerSec = 1
	cfg.Hierarchy.LongevityThreshold = 0.5
	cfg.Stream.Count = 40
	k := sim.NewKernel(47)
	s := NewSystem(k, cfg, 48)
	s.Run(400 * time.Second)
	if got := len(s.Coordinators()); got <= 7 {
		t.Fatalf("no promotions happened: coordinators = %d", got)
	}
	// Promoted nodes must actually serve index traffic.
	promotedWithIndex := 0
	for _, p := range s.Coordinators() {
		if !p.isSource && p.IndexSize() > 0 {
			promotedWithIndex++
		}
	}
	if promotedWithIndex == 0 {
		t.Fatal("promoted coordinators hold no index entries")
	}
}

func TestCoordinatorDepartureRedirectsClients(t *testing.T) {
	cfg := hierConfig()
	k := sim.NewKernel(53)
	s := NewSystem(k, cfg, 48)
	s.DisableCompletionStop()
	// Gracefully remove one non-server coordinator mid-stream.
	k.At(3*time.Second, func() {
		for _, p := range s.Coordinators() {
			if !p.isSource && p.ClientCount() > 0 {
				p.Depart(true)
				return
			}
		}
		t.Error("no coordinator with clients found")
	})
	s.Run(300 * time.Second)
	// All surviving viewers still complete the stream.
	for _, p := range s.Peers() {
		if !p.Alive() || p.isSource {
			continue
		}
		for seq := int64(0); seq < cfg.Stream.Count; seq++ {
			if !p.HasChunk(seq) {
				t.Fatalf("viewer %d missing chunk %d after coordinator left", p.ID(), seq)
			}
		}
	}
}

func TestCoordinatorFailureReattachesClients(t *testing.T) {
	// Every possible victim: whichever coordinator dies abruptly, its
	// clients must re-bootstrap and finish the stream.
	for victim := 0; victim < 6; victim++ {
		victim := victim
		cfg := hierConfig()
		k := sim.NewKernel(59)
		s := NewSystem(k, cfg, 48)
		s.DisableCompletionStop()
		k.At(3*time.Second, func() {
			nonServer := 0
			for _, p := range s.Coordinators() {
				if p.isSource {
					continue
				}
				if nonServer == victim {
					p.Depart(false) // abrupt death
					return
				}
				nonServer++
			}
		})
		s.Run(400 * time.Second)
		incomplete := 0
		for _, p := range s.Peers() {
			if !p.Alive() || p.isSource {
				continue
			}
			for seq := int64(0); seq < cfg.Stream.Count; seq++ {
				if !p.HasChunk(seq) {
					incomplete++
					break
				}
			}
		}
		if incomplete > 0 {
			t.Fatalf("victim %d: %d viewers never recovered from the coordinator failure", victim, incomplete)
		}
	}
}

func TestLongevityGrowsWithAge(t *testing.T) {
	cfg := hierConfig()
	k := sim.NewKernel(61)
	s := NewSystem(k, cfg, 16)
	var early, late float64
	p := s.Peers()[5]
	k.At(2*time.Second, func() { early = p.Longevity() })
	k.At(60*time.Second, func() { late = p.Longevity() })
	s.DisableCompletionStop()
	s.Run(70 * time.Second)
	if late <= early {
		t.Fatalf("longevity did not grow with session age: %f -> %f", early, late)
	}
}
