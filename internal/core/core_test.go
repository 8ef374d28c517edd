package core

import (
	"fmt"
	"testing"
	"time"

	"dco/internal/chord"
	"dco/internal/churn"
	"dco/internal/sim"
	"dco/internal/simnet"
	"dco/internal/telemetry"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Stream.Count = 10
	cfg.Neighbors = 8
	return cfg
}

func TestDeterminism(t *testing.T) {
	run := func(tr *telemetry.Trace) (int64, uint64, time.Duration) {
		cfg := smallConfig()
		k := sim.NewKernel(123)
		s := NewSystem(k, cfg, 48)
		if tr != nil {
			tr.SetClock(func() time.Time { return time.Unix(0, 0).Add(k.Now()) })
			s.Trace = tr
		}
		end := s.Run(200 * time.Second)
		return s.ReceivedTotal(), s.Net.Overhead(), end
	}
	r1, o1, e1 := run(nil)
	r2, o2, e2 := run(nil)
	if r1 != r2 || o1 != o2 || e1 != e2 {
		t.Fatalf("same seed diverged: (%d,%d,%v) vs (%d,%d,%v)", r1, o1, e1, r2, o2, e2)
	}
	// A trace observes the run — every delivery, in virtual time — and
	// changes nothing about it.
	tr := telemetry.NewTrace(16)
	if r3, o3, e3 := run(tr); r3 != r1 || o3 != o1 || e3 != e1 {
		t.Fatalf("tracing changed the run: (%d,%d,%v) vs (%d,%d,%v)", r3, o3, e3, r1, o1, e1)
	}
	if got := tr.Count("fetch.done"); got != uint64(r1) {
		t.Fatalf("trace counted %d fetch.done events for %d deliveries", got, r1)
	}
	events := tr.Events()
	if at := events[len(events)-1].At.Sub(time.Unix(0, 0)); at <= 0 || at > e1 {
		t.Fatalf("last event stamped %v, outside the run's virtual time (0, %v]", at, e1)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	run := func(seed int64) uint64 {
		cfg := smallConfig()
		k := sim.NewKernel(seed)
		s := NewSystem(k, cfg, 48)
		s.Run(200 * time.Second)
		return s.Net.Overhead()
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produced identical overhead — RNG likely unused")
	}
}

func TestEveryViewerGetsEveryChunk(t *testing.T) {
	cfg := smallConfig()
	k := sim.NewKernel(5)
	s := NewSystem(k, cfg, 64)
	s.Run(300 * time.Second)
	for _, p := range s.Peers() {
		if p.ID() == s.Server().ID() {
			continue
		}
		for seq := int64(0); seq < cfg.Stream.Count; seq++ {
			if !p.HasChunk(seq) {
				t.Fatalf("node %d missing chunk %d", p.ID(), seq)
			}
		}
	}
}

func TestCompletionStopsEarly(t *testing.T) {
	cfg := smallConfig()
	k := sim.NewKernel(5)
	s := NewSystem(k, cfg, 32)
	end := s.Run(1000 * time.Second)
	if end >= 1000*time.Second {
		t.Fatal("run did not stop at completion")
	}
	if s.ReceivedTotal() != int64(31*cfg.Stream.Count) {
		t.Fatalf("received %d", s.ReceivedTotal())
	}
}

func TestPendingQueueGuaranteesAnswer(t *testing.T) {
	// With the pending queue, lookups for a not-yet-generated chunk are
	// held and answered once the server registers it; the ablation drops
	// them and forces retries. Both must deliver; the queue should need
	// fewer lookups.
	lookups := func(pending bool) uint64 {
		cfg := smallConfig()
		cfg.PendingQueue = pending
		k := sim.NewKernel(9)
		s := NewSystem(k, cfg, 32)
		s.Run(300 * time.Second)
		if s.ReceivedTotal() != int64(31*cfg.Stream.Count) {
			t.Fatalf("pending=%v: incomplete delivery %d", pending, s.ReceivedTotal())
		}
		return s.Counters.Lookups
	}
	withQ := lookups(true)
	withoutQ := lookups(false)
	if withQ >= withoutQ {
		t.Fatalf("pending queue should reduce lookup retries: with=%d without=%d", withQ, withoutQ)
	}
}

func TestSelectionPolicies(t *testing.T) {
	for _, sel := range []SelectionPolicy{SelectLeastLoaded, SelectRandom} {
		cfg := smallConfig()
		cfg.Selection = sel
		k := sim.NewKernel(7)
		s := NewSystem(k, cfg, 32)
		s.Run(300 * time.Second)
		if s.ReceivedTotal() != int64(31*cfg.Stream.Count) {
			t.Fatalf("selection %v failed to deliver", sel)
		}
	}
}

func TestFingerRoutingReducesOverhead(t *testing.T) {
	overhead := func(fingers bool) uint64 {
		cfg := DefaultConfig()
		cfg.Stream.Count = 20
		cfg.Neighbors = 8
		cfg.UseFingers = fingers
		k := sim.NewKernel(11)
		s := NewSystem(k, cfg, 128)
		s.Run(400 * time.Second)
		if s.ReceivedTotal() != int64(127*20) {
			t.Fatalf("fingers=%v incomplete: %d", fingers, s.ReceivedTotal())
		}
		return s.Net.Overhead()
	}
	with := overhead(true)
	without := overhead(false)
	if with >= without {
		t.Fatalf("finger routing should cut hops: with=%d without=%d", with, without)
	}
}

func TestChunkIndexOwnership(t *testing.T) {
	// After a static run, each chunk's index entries live only at ring
	// members that own (or once owned) the chunk's key — and the key's
	// current owner must have one.
	cfg := smallConfig()
	k := sim.NewKernel(13)
	s := NewSystem(k, cfg, 32)
	s.Run(300 * time.Second)
	for seq := int64(0); seq < cfg.Stream.Count; seq++ {
		key := cfg.Stream.Ref(seq).ID()
		found := false
		for _, p := range s.Peers() {
			if p.cs.OwnsKey(key) && p.IndexSize() > 0 {
				if _, ok := p.index[seq]; ok {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("chunk %d has no index entry at its owner", seq)
		}
	}
}

func TestGracefulLeaveKeepsAvailability(t *testing.T) {
	cfg := smallConfig()
	cfg.Maintenance = true
	k := sim.NewKernel(17)
	s := NewSystem(k, cfg, 48)
	s.DisableCompletionStop()
	// Gracefully remove a third of the viewers mid-stream.
	removed := 0
	k.At(4*time.Second, func() {
		for _, p := range s.Peers() {
			if removed >= 15 || p.ID() == s.Server().ID() {
				continue
			}
			p.Depart(true)
			removed++
		}
	})
	s.Run(300 * time.Second)
	// Every survivor still gets every chunk.
	for _, p := range s.Peers() {
		if !p.Alive() || p.ID() == s.Server().ID() {
			continue
		}
		for seq := int64(0); seq < cfg.Stream.Count; seq++ {
			if !p.HasChunk(seq) {
				t.Fatalf("survivor %d missing chunk %d after graceful exodus", p.ID(), seq)
			}
		}
	}
}

func TestAbruptFailuresRecovered(t *testing.T) {
	cfg := smallConfig()
	cfg.Maintenance = true
	k := sim.NewKernel(19)
	s := NewSystem(k, cfg, 48)
	s.DisableCompletionStop()
	killed := 0
	k.At(3*time.Second, func() {
		for _, p := range s.Peers() {
			if killed >= 12 || p.ID() == s.Server().ID() {
				continue
			}
			p.Depart(false) // abrupt
			killed++
		}
	})
	s.Run(300 * time.Second)
	for _, p := range s.Peers() {
		if !p.Alive() || p.ID() == s.Server().ID() {
			continue
		}
		for seq := int64(0); seq < cfg.Stream.Count; seq++ {
			if !p.HasChunk(seq) {
				t.Fatalf("survivor %d missing chunk %d after failures", p.ID(), seq)
			}
		}
	}
}

func TestLateJoinerCatchesStream(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stream.Count = 20
	cfg.Neighbors = 8
	cfg.Maintenance = true
	k := sim.NewKernel(23)
	s := NewSystem(k, cfg, 32)
	s.DisableCompletionStop()
	var late *Peer
	k.At(8*time.Second, func() { late = s.SpawnPeer() })
	s.Run(300 * time.Second)
	if late == nil || !late.Alive() {
		t.Fatal("late joiner missing")
	}
	// It should have everything generated after it joined.
	missing := 0
	for seq := int64(9); seq < cfg.Stream.Count; seq++ {
		if !late.HasChunk(seq) {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("late joiner missing %d of its expected chunks", missing)
	}
}

func TestChurnComparableToStatic(t *testing.T) {
	// Under the paper's churn model DCO should still deliver the large
	// majority of expected chunks (Fig. 11/12 plateau near 90%+).
	cfg := DefaultConfig()
	cfg.Stream.Count = 60
	cfg.Neighbors = 16
	cfg.Maintenance = true
	k := sim.NewKernel(29)
	s := NewSystem(k, cfg, 96)
	s.DisableCompletionStop()
	d := churn.NewDriver(k, churn.Config{
		MeanLife: 60 * time.Second, MeanJoin: 60 * time.Second / 95, GracefulFrac: 0.5,
	}, func() churn.Peer { return s.SpawnPeer() })
	for _, p := range s.ViewerPeers() {
		d.Track(p)
	}
	d.StartArrivals()
	s.Run(150 * time.Second)
	if pct := s.Log.ReceivedPercent(150 * time.Second); pct < 70 {
		t.Fatalf("churn delivery too low: %.1f%%", pct)
	}
}

// TestViewerPeersAreTheLiveViewers checks ViewerPeers against its
// definition, every live peer but the server in network-ID order, after
// churn has removed some and added others.
func TestViewerPeersAreTheLiveViewers(t *testing.T) {
	cfg := smallConfig()
	cfg.Maintenance = true
	k := sim.NewKernel(33)
	s := NewSystem(k, cfg, 24)
	s.DisableCompletionStop()
	d := churn.NewDriver(k, churn.Config{MeanLife: 20 * time.Second, MeanJoin: time.Second, GracefulFrac: 0.5},
		func() churn.Peer { return s.SpawnPeer() })
	for _, p := range s.ViewerPeers() {
		d.Track(p)
	}
	d.StartArrivals()
	s.Run(30 * time.Second)
	if dep, arr := d.Stats(); dep == 0 || arr == 0 {
		t.Fatalf("churn did not run: %d departures, %d arrivals", dep, arr)
	}
	var want []*Peer
	for _, p := range s.Peers() {
		if p.Alive() && p.ID() != s.Server().ID() {
			want = append(want, p)
		}
	}
	got := s.ViewerPeers()
	if len(got) != len(want) || len(got) != s.AlivePeers()-1 {
		t.Fatalf("ViewerPeers has %d, the filter %d, AlivePeers()-1 = %d", len(got), len(want), s.AlivePeers()-1)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ViewerPeers[%d] = node %d, want node %d", i, got[i].ID(), want[i].ID())
		}
	}
}

func TestAdaptivePrefetchGrowsUnderFailures(t *testing.T) {
	cfg := smallConfig()
	k := sim.NewKernel(31)
	s := NewSystem(k, cfg, 16)
	s.Run(200 * time.Second)
	p := s.Peers()[3]
	base := p.PrefetchWindow()
	// Force failures through the tracker and confirm Eq. 2 reacts.
	for i := 0; i < 10; i++ {
		p.ft.Record(true)
	}
	if p.PrefetchWindow() <= base {
		t.Fatalf("window did not grow: base=%d now=%d", base, p.PrefetchWindow())
	}
}

func TestDroppedRoutesZeroWhenStatic(t *testing.T) {
	cfg := smallConfig()
	k := sim.NewKernel(37)
	s := NewSystem(k, cfg, 64)
	s.Run(300 * time.Second)
	if s.DroppedRoutes() != 0 {
		t.Fatalf("static run dropped %d routed messages", s.DroppedRoutes())
	}
}

func TestHeterogeneousDeterminism(t *testing.T) {
	run := func() (int64, uint64) {
		cfg := smallConfig()
		cfg.PeerClasses = HeterogeneousClasses()
		k := sim.NewKernel(321)
		s := NewSystem(k, cfg, 48)
		s.Run(300 * time.Second)
		return s.ReceivedTotal(), s.Net.Overhead()
	}
	r1, o1 := run()
	r2, o2 := run()
	if r1 != r2 || o1 != o2 {
		t.Fatalf("heterogeneous run diverged: (%d,%d) vs (%d,%d)", r1, o1, r2, o2)
	}
}

func TestHeterogeneousClassesAssigned(t *testing.T) {
	cfg := smallConfig()
	cfg.PeerClasses = HeterogeneousClasses()
	k := sim.NewKernel(5)
	s := NewSystem(k, cfg, 128)
	counts := map[int64]int{}
	for _, p := range s.Peers() {
		if p.ID() == s.Server().ID() {
			continue
		}
		counts[p.upBps]++
	}
	if len(counts) != 3 {
		t.Fatalf("expected 3 bandwidth classes, got %v", counts)
	}
	// Roughly the configured 30/50/20 split over 127 viewers.
	if counts[200_000] < 20 || counts[600_000] < 40 || counts[1_800_000] < 10 {
		t.Fatalf("implausible class split: %v", counts)
	}
	s.Run(300 * time.Second)
	if s.ReceivedTotal() != int64(127*cfg.Stream.Count) {
		t.Fatalf("heterogeneous swarm incomplete: %d", s.ReceivedTotal())
	}
}

func TestMaxHopsDropsRunawayRoutes(t *testing.T) {
	k := sim.NewKernel(17)
	s := NewSystem(k, smallConfig(), 64)
	s.maxHops = 1 // absurdly tight: multi-hop routes must be dropped
	s.DisableCompletionStop()
	s.Run(30 * time.Second)
	if s.DroppedRoutes() == 0 {
		t.Fatal("hop limit of 1 should drop some routed messages in a 64-node ring")
	}
}

func TestSimAllocationBudgets(t *testing.T) {
	cfg := smallConfig()
	s := NewSystem(sim.NewKernel(1), cfg, 4)
	seq := cfg.Stream.Count - 1
	if s.chunkKey(seq) != cfg.Stream.Ref(seq).ID() {
		t.Fatal("memoized chunk key differs from Stream.Ref(seq).ID()")
	}
	if allocs := testing.AllocsPerRun(100, func() { s.chunkKey(seq) }); allocs != 0 {
		t.Errorf("memoized chunk key: %.1f allocations after first use, budget 0", allocs)
	}

	// A coordinator entry with several providers: the origin itself, one
	// at its cap and three with spare slots, the least loaded of them at
	// 1 of 4.
	p := s.Server()
	e := p.indexEntry(seq)
	for i, load := range []int{4, 2, 1, 3, 0} {
		e.providers = append(e.providers, &providerInfo{node: simnet.NodeID(10 + i), cap: 4, outstanding: load})
	}
	origin := simnet.NodeID(14)
	if pr := p.selectProvider(e, origin); pr == nil || pr.node != 12 {
		t.Fatalf("selectProvider picked %+v, want node 12 (least loaded, not the origin)", pr)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.selectProvider(e, origin) }); allocs != 0 {
		t.Errorf("selectProvider over %d providers: %.1f allocations, budget 0", len(e.providers), allocs)
	}
}

// TestFreshChordIDSkipsIssuedIDs: a name whose hash was already issued is
// skipped for the next name.
func TestFreshChordIDSkipsIssuedIDs(t *testing.T) {
	s := NewSystem(sim.NewKernel(1), smallConfig(), 4)
	next := s.nameSeq
	taken := chord.HashString(fmt.Sprintf("dco-node-%d", next))
	s.ringIDs[taken] = true
	if got, want := s.freshChordID(), chord.HashString(fmt.Sprintf("dco-node-%d", next+1)); got != want {
		t.Fatalf("freshChordID = %v, want %v (the name after the taken one)", got, want)
	}
}

// TestZonedNetWithoutBaseLatency: a Net that sets zones but leaves the base
// latency at zero is taken as given; only the zero Net means simnet's flat
// default.
func TestZonedNetWithoutBaseLatency(t *testing.T) {
	cfg := smallConfig()
	cfg.Net.Zones = 4
	cfg.Net.InterZone = 80 * time.Millisecond
	s := NewSystem(sim.NewKernel(1), cfg, 8)
	if z := s.Net.Zone(1); z != 1 {
		t.Fatalf("node 1 is in zone %d, want 1: the zoned Net was replaced by the flat default", z)
	}
}
