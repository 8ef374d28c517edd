package live

import (
	"os"
	"testing"
	"time"

	"dco/internal/faulty"
	"dco/internal/telemetry"
)

// soakScale returns (viewers, chunks): the quick in-tree profile by
// default, the heavier nightly profile when DCO_SOAK is set (the nightly
// CI job runs this with -race -count=3).
func soakScale() (viewers, chunks int) {
	if os.Getenv("DCO_SOAK") != "" {
		return 12, 80
	}
	return 6, 30
}

// TestReplicatedSoakCoordinatorKill is the PR 3 acceptance scenario: a
// replicated swarm (r=3) streaming through a seeded 10% message drop has
// a coordinator first partitioned away and then killed mid-stream. The
// replication layer must make that invisible at the lookup level:
//
//   - every surviving viewer completes the stream;
//   - zero lookups exhaust their candidates (Stats().LookupFailures == 0
//     ring-wide — failovers may happen, failures may not);
//   - at least one replica slice is promoted to owned state (the takeover
//     actually ran; the run didn't pass by luck);
//   - the telemetry gauges agree: fill_ratio 1.0 and delivered_percent
//     100 on every survivor, so there is no lasting fill dip.
func TestReplicatedSoakCoordinatorKill(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const seed = 20260806
	nViewers, nChunks := soakScale()

	in := faulty.NewInjector(seed)
	in.SetDefaultRule(faulty.Rule{Drop: 0.10})

	// The gauge assertions below read each survivor's own fill_ratio from
	// the registry the harness gave it.
	cfg := resilientConfig()
	cfg.Trace = telemetry.NewTrace(4096)
	cfg.Channel.Count = int64(nChunks)
	cfg.Replicas = 3
	cfg.ReplicateEvery = 25 * time.Millisecond
	cfg.AntiEntropyEvery = 250 * time.Millisecond
	s := upSwarm(t, SwarmSpec{N: 1 + nViewers, Base: cfg, Wrap: in.Wrap})
	src, viewers := s.Source(), s.Viewers()

	// Let providers and replicas spread, then pick the victim: the
	// coordinator owning a mid-stream chunk key. It must be a viewer — the
	// source has to stay up to finish generating.
	time.Sleep(600 * time.Millisecond)
	midKey := uint64(src.cfg.Channel.Ref(int64(nChunks / 2)).ID())
	owner, _, err := src.FindOwner(midKey)
	if err != nil {
		t.Fatalf("FindOwner for the victim key: %v", err)
	}
	var victim *Node
	for _, v := range viewers {
		if v.Addr() == owner.Addr {
			victim = v
		}
	}
	if victim == nil {
		t.Skipf("mid-stream key owner is the source; cannot kill it in this scenario")
	}

	survivors := Without(s.Nodes, victim)
	watching := Without(viewers, victim)

	// Partition the victim away first (the swarm sees an unreachable
	// coordinator before a dead one), then kill it and heal the cut.
	in.Partition(addrs(survivors), addrs([]*Node{victim}))
	time.Sleep(200 * time.Millisecond)
	victim.Close()
	in.Heal()

	await(t, s, 120*time.Second, "surviving viewers to complete the stream through the coordinator kill", func() bool {
		return MinDelivered(watching, cfg.Channel.Count) >= 100
	})
	await(t, s, 30*time.Second, "surviving ring to converge", func() bool {
		return RingCorrect(survivors)
	})

	if in.Injected() == 0 {
		t.Fatal("fault injector never fired; the soak tested nothing")
	}

	// Acceptance: zero exhausted lookups across every survivor.
	var takeovers uint64
	for _, nd := range survivors {
		takeovers += nd.lm.TakeoverEntries.Value()
	}
	if failures := SumStats(survivors).LookupFailures; failures != 0 {
		t.Fatalf("%d lookups exhausted their candidates; replication must make the kill invisible", failures)
	}
	// The takeover path actually ran (the victim owned at least midKey).
	if takeovers == 0 {
		t.Fatal("no replica entry was promoted after the coordinator kill")
	}

	// The gauges agree there is no lasting fill dip: every survivor reports
	// a full buffer and full delivery once the stream completes.
	for i, nd := range watching {
		g := nd.lm.reg.Snapshot().Gauges
		if r := g["dco_live_fill_ratio"]; r != 1.0 {
			t.Errorf("survivor %d fill_ratio = %v, want 1.0", i, r)
		}
		if p := g["dco_live_delivered_percent"]; p != 100 {
			t.Errorf("survivor %d delivered_percent = %v, want 100", i, p)
		}
	}
}
