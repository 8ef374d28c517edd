package live

import (
	"testing"
	"time"

	"dco/internal/dht"
	"dco/internal/faulty"
	"dco/internal/wire"
)

// censusConfig is resilientConfig with the ring census sped up so
// partition tests detect and merge splits in test time.
func censusConfig() Config {
	cfg := resilientConfig()
	cfg.CensusEvery = 80 * time.Millisecond
	cfg.Channel.Count = 30
	return cfg
}

// TestSplitBrainMergesAfterHeal is the tentpole scenario: a 6-node swarm
// bisected mid-stream degenerates into two self-consistent rings, and
// after the heal the census — with no manual rejoin anywhere — detects
// the split and merges the halves back into one ring. The merged ring
// must then stay quiescent (no oscillation from the symmetric detectors)
// and every viewer must recover the full stream.
func TestSplitBrainMergesAfterHeal(t *testing.T) {
	const seed = 5050
	in := faulty.NewInjector(seed)
	cfg := censusConfig()
	s := upSwarm(t, SwarmSpec{N: 6, Base: cfg, Wrap: in.Wrap})
	all := s.Nodes

	await(t, s, 15*time.Second, "initial ring to converge", func() bool {
		return RingCorrect(all)
	})

	// Bisect: the source and two viewers on one side, three viewers on the
	// other. Every node has seen every other by now (successor lists cover
	// the whole 6-node ring), so both halves hold far-side breadcrumbs in
	// their member caches.
	sideA, sideB := all[:3], all[3:]
	in.Partition(addrs(sideA), addrs(sideB))

	// Each half purges the unreachable far side and converges into its own
	// ring — the split-brain state the census exists to repair.
	await(t, s, 30*time.Second, "both halves to form their own rings", func() bool {
		return RingCorrect(sideA) && RingCorrect(sideB)
	})

	in.Heal()

	// The census must now re-merge the rings on its own: no JoinAny, no
	// restart, nothing manual.
	await(t, s, 30*time.Second, "census to merge the rings after the heal", func() bool {
		return RingCorrect(all)
	})

	tot := SumStats(all)
	if tot.SplitsDetected == 0 {
		t.Error("no node ever counted a detected split")
	}
	if tot.RingMerges == 0 {
		t.Error("no node ever counted a completed merge")
	}

	// Non-oscillation: detectors fire symmetrically on both halves, so the
	// merged ring must hold still across several further census rounds.
	time.Sleep(8 * cfg.CensusEvery)
	if !RingCorrect(all) {
		t.Fatal("merged ring fell apart after further census rounds")
	}

	// Fill recovery: the side cut off from the source catches up on the
	// whole stream through the merged ring.
	await(t, s, 60*time.Second, "all viewers to recover the full stream post-merge", func() bool {
		return MinDelivered(s.Viewers(), cfg.Channel.Count) >= 100
	})
}

// TestLoneNodeRecoversViaCensus: a node isolated entirely alone exhausts
// its successor list, loses its predecessor, and degenerates to a ring of
// one that nobody on the majority side points at any more. After the heal
// it must re-bootstrap automatically through its member cache — the lone
// branch of the census that merges on any answered probe without a
// confirmation lookup — and catch up on the stream. No manual JoinAny.
func TestLoneNodeRecoversViaCensus(t *testing.T) {
	const seed = 6161
	in := faulty.NewInjector(seed)
	cfg := censusConfig()
	s := upSwarm(t, SwarmSpec{N: 4, Base: cfg, Wrap: in.Wrap})
	all := s.Nodes

	await(t, s, 15*time.Second, "initial ring to converge", func() bool {
		return RingCorrect(all)
	})

	isolated := s.Viewers()[2]
	majority := Without(all, isolated)
	in.Partition(addrs(majority), addrs([]*Node{isolated}))

	// The partition must last until no pointer crosses it in either
	// direction. "Successor is self" alone is not that state: a node that
	// has burnt through its successor list but still holds a predecessor
	// re-adopts it as successor on its next stabilize round (the ring-of-one
	// bootstrap step), and a majority node that still holds the isolated
	// node as predecessor keeps it in view — after a heal such a ring
	// relinks by plain stabilize/notify and the census rightly finds no
	// split to merge. Only views do: the isolated node's is itself alone,
	// the majority's are exactly the majority.
	await(t, s, 30*time.Second, "isolated node to degenerate to a ring of one", func() bool {
		return viewsConverged([]*Node{isolated})
	})
	await(t, s, 30*time.Second, "majority ring to converge without the isolated node", func() bool {
		return RingCorrect(majority) && viewsConverged(majority)
	})

	in.Heal()

	// Recovery is automatic — the lone node's census probes its cached
	// members and adopts the first one that answers, or a majority node's
	// probe reaches it first — and since no ring pointer crossed the cut,
	// only a merge can have done it.
	await(t, s, 30*time.Second, "lone node to rejoin via census", func() bool {
		return RingCorrect(all)
	})
	if SumStats(all).RingMerges == 0 {
		t.Error("no node ever counted a completed merge")
	}

	await(t, s, 60*time.Second, "recovered node to catch up on the stream", func() bool {
		return MinDelivered([]*Node{isolated}, cfg.Channel.Count) >= 100
	})
}

// confirmingKernel is a kernel whose census confirmation always names
// owner — a second network that never closes — and that counts the merges
// it is asked for.
type confirmingKernel struct {
	dht.Kernel
	owner  dht.Member
	merges int
}

func (k *confirmingKernel) FindOwnerFrom(string, uint64) (dht.Member, error) {
	return k.owner, nil
}

func (k *confirmingKernel) Merge(dht.Member, []dht.Member) { k.merges++ }

// TestConfirmedTargetMergesOnce: two confirmations against the same target
// count one merge; the same target merges again once dht.PeerQuarantine has
// passed, and another target at once.
func TestConfirmedTargetMergesOnce(t *testing.T) {
	n := soloNode(t, fastConfig())
	k := &confirmingKernel{Kernel: n.kern, owner: dht.Member{ID: 3, Addr: "mem://owner"}}
	n.kern = k
	foreign := wire.Entry{ID: 2, Addr: "mem://foreign"}
	check := func(want int) {
		t.Helper()
		if st := n.Stats(); k.merges != want || st.RingMerges != uint64(want) || st.SplitsDetected != uint64(want) {
			t.Fatalf("%d kernel merges, %d counted, %d splits detected; want %d", k.merges, st.RingMerges, st.SplitsDetected, want)
		}
	}

	n.maybeMerge(foreign, nil, false)
	n.maybeMerge(foreign, nil, false)
	check(1)

	n.lastMergeAt = n.lastMergeAt.Add(-dht.PeerQuarantine)
	n.maybeMerge(foreign, nil, false)
	check(2)

	k.owner = dht.Member{ID: 4, Addr: "mem://other"}
	n.maybeMerge(foreign, nil, false)
	check(3)
}
