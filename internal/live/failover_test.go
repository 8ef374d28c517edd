package live

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"dco/internal/health"
	"dco/internal/index"
	"dco/internal/retry"
	"dco/internal/telemetry"
	"dco/internal/wire"
)

// resilientConfig is fastConfig with test-scaled retry/breaker settings,
// plus a trace (the harness already gives every node a registry) so every
// failover and fault-matrix scenario runs with telemetry enabled — the
// observability layer must never perturb recovery behavior.
func resilientConfig() Config {
	cfg := fastConfig()
	cfg.Trace = telemetry.NewTrace(2048)
	cfg.Retry = retry.Policy{
		MaxAttempts:    3,
		InitialBackoff: 10 * time.Millisecond,
		MaxBackoff:     80 * time.Millisecond,
		Budget:         time.Second,
	}
	cfg.Breaker = health.CircuitConfig{Threshold: 5, Cooldown: 500 * time.Millisecond}
	cfg.ProviderCooldown = 400 * time.Millisecond
	return cfg
}

// TestJoinAnyFailsOverDeadBootstrap: a dead first bootstrap must not kill
// the join when a live one follows it (the old Join died on the first
// error).
func TestJoinAnyFailsOverDeadBootstrap(t *testing.T) {
	s := testSwarm(t, SwarmSpec{N: 3, Base: resilientConfig()})
	alive, dead, v := s.Nodes[0], s.Nodes[1], s.Nodes[2]
	deadAddr := dead.Addr()
	dead.Close()

	if err := v.JoinAny([]string{deadAddr, alive.Addr()}); err != nil {
		t.Fatalf("JoinAny with one dead bootstrap failed: %v", err)
	}
	if _, succ := v.Successor(); succ != alive.Addr() {
		t.Fatalf("joined node's successor = %s, want %s", succ, alive.Addr())
	}
}

// TestJoinAllBootstrapsDead: when every bootstrap is unreachable the join
// fails with an error that names each attempted address.
func TestJoinAllBootstrapsDead(t *testing.T) {
	s := testSwarm(t, SwarmSpec{N: 3, Base: resilientConfig()})
	d1, d2, v := s.Nodes[0], s.Nodes[1], s.Nodes[2]
	a1, a2 := d1.Addr(), d2.Addr()
	d1.Close()
	d2.Close()

	err := v.JoinAny([]string{a1, a2})
	if err == nil {
		t.Fatal("join via only dead bootstraps succeeded")
	}
	for _, addr := range []string{a1, a2} {
		if !strings.Contains(err.Error(), addr) {
			t.Errorf("join error does not mention attempted bootstrap %s: %v", addr, err)
		}
	}
}

// TestJoinEmptyBootstrapList: no usable address is an immediate, clear
// error (not a panic or a silent no-op).
func TestJoinEmptyBootstrapList(t *testing.T) {
	v := soloNode(t, resilientConfig())
	if err := v.JoinAny([]string{"", v.Addr()}); err == nil {
		t.Fatal("join with no usable bootstrap succeeded")
	}
}

// TestLookupRecoversAfterCoordinatorDeath: a lookup whose coordinator
// died must recover via re-route/failover once the ring has healed —
// where the pre-resilience single-shot path returned a hard error.
func TestLookupRecoversAfterCoordinatorDeath(t *testing.T) {
	cfg := resilientConfig()
	cfg.Channel.Count = 0 // drive by hand, no generator traffic
	s := ringOf(t, cfg, 5, (*Node).startRingMaint)
	src, nodes, all := s.Source(), s.Viewers(), s.Nodes

	// Find the coordinator for seq 7's key — it must not be src, which we
	// want alive to issue lookups from.
	const seq = 7
	key := uint64(cfg.Channel.Ref(seq).ID())
	owner, _, err := src.FindOwner(key)
	if err != nil {
		t.Fatal(err)
	}
	var coord *Node
	for _, nd := range nodes {
		if nd.Addr() == owner.Addr {
			coord = nd
		}
	}
	if coord == nil {
		t.Skipf("key owner is the source itself; cannot kill it for this scenario")
	}

	// Replicate the index entry at the coordinator and every node (the
	// role republication plays in production), so whichever node inherits
	// the key range can answer.
	provider := wire.Entry{ID: 12345, Addr: src.Addr()}
	for _, nd := range all {
		nd.idx.Upsert(key, seq, index.Row{Ent: provider}, time.Now())
	}

	// Kill the coordinator abruptly and let the ring heal around it.
	coord.Close()
	survivors := Without(all, coord)
	await(t, s, 10*time.Second, "ring to heal around the dead coordinator", func() bool {
		return RingCorrect(survivors)
	})

	// One lookup call must now succeed end-to-end: the resilience layer
	// re-routes internally instead of surfacing the dead peer.
	providers, err := src.lookupProviders(key, seq, time.Time{})
	if err != nil {
		t.Fatalf("lookup after coordinator death: %v", err)
	}
	if len(providers) == 0 || providers[0].Addr != provider.Addr {
		t.Fatalf("lookup answered %v, want provider %s", providers, provider.Addr)
	}
}

// TestFetchBlacklistsFailingProvider: a provider that fails a transfer is
// not re-asked within its cooldown.
func TestFetchBlacklistsFailingProvider(t *testing.T) {
	n := soloNode(t, resilientConfig())

	n.blacklistProvider("mem://gone")
	if got := fetchOrder(n, "mem://gone", "mem://fine"); !slices.Equal(got, []string{"mem://fine"}) {
		t.Fatalf("fetch order %v, want only the provider that is not blacklisted", got)
	}
	if got := n.Stats().ProvidersBlacklisted; got != 1 {
		t.Fatalf("ProvidersBlacklisted = %d, want 1", got)
	}
	// The cooldown expires.
	waitFor(t, 5*time.Second, "cooldown to expire", func() bool {
		return len(fetchOrder(n, "mem://gone")) == 1
	})
}

// TestPeerStateStaysBounded: peers that die for good do not accumulate.
// Every address-keyed fact a viewer keeps — circuit, blacklist entry, load
// report — is a row of the one LRU-bounded peer table (the parent commit
// kept 5,000 breaker states and 5,000 cooldown entries here).
func TestPeerStateStaysBounded(t *testing.T) {
	cfg := resilientConfig()
	cfg.ProviderCooldown = time.Hour
	n := soloNode(t, cfg)
	for i := 0; i < 5000; i++ {
		addr := fmt.Sprintf("mem://dead-%d", i)
		for f := 0; f < cfg.Breaker.Threshold; f++ {
			_, _ = n.call(addr, &wire.Ping{}, cfg.CallTimeout)
		}
		n.blacklistProvider(addr)
	}
	if got := n.Stats().BreakerOpens; got != 5000 {
		t.Fatalf("BreakerOpens = %d, want one per dead peer", got)
	}
	if rows := n.health.Len(); rows > health.MaxPeers {
		t.Fatalf("peer table holds %d rows, want <= %d", rows, health.MaxPeers)
	}
	size := n.lm.reg.Snapshot().Gauges["dco_live_blacklist_size"]
	if size < 1 || size > health.MaxPeers {
		t.Fatalf("dco_live_blacklist_size = %v, want in [1, %d]", size, health.MaxPeers)
	}
}

// TestBreakerFailsFastOnDeadPeer: repeated calls to a dead address open
// its circuit; once open, calls stop hitting the transport.
func TestBreakerFailsFastOnDeadPeer(t *testing.T) {
	cfg := resilientConfig()
	cfg.Breaker = health.CircuitConfig{Threshold: 3, Cooldown: time.Hour}
	s := testSwarm(t, SwarmSpec{N: 2, Base: cfg})
	n, dead := s.Nodes[0], s.Nodes[1]
	deadAddr := dead.Addr()
	dead.Close()

	for i := 0; i < 3; i++ {
		_, _ = n.callIdem(deadAddr, &wire.Ping{}, cfg.CallTimeout)
	}
	if got := n.Stats().BreakerOpens; got == 0 {
		t.Fatal("circuit never opened against a dead peer")
	}
	if !n.health.Open(deadAddr) {
		t.Fatal("peer table reports a closed circuit for the dead address")
	}
	start := time.Now()
	_, err := n.callIdem(deadAddr, &wire.Ping{}, cfg.CallTimeout)
	if err == nil {
		t.Fatal("call to dead peer with open circuit succeeded")
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("open circuit did not fail fast: %v", elapsed)
	}
}

// TestCallRetriesCountsRetriesMade: Stats().CallRetries is the registry's
// dco_retry_attempts_total, so a retry the budget refuses — its first pause
// alone overruns it — is no retry at all.
func TestCallRetriesCountsRetriesMade(t *testing.T) {
	for _, tc := range []struct {
		name  string
		retry retry.Policy
		want  uint64
	}{
		{"budget refuses the first pause", retry.Policy{MaxAttempts: 3, InitialBackoff: time.Second, Budget: 10 * time.Millisecond}, 0},
		{"attempts run out", retry.Policy{MaxAttempts: 3, InitialBackoff: time.Millisecond}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fastConfig()
			cfg.Retry = tc.retry
			n := soloNode(t, cfg)
			if _, err := n.callIdem("mem://dead", &wire.Ping{}, cfg.CallTimeout); err == nil {
				t.Fatal("a call to a dead peer succeeded")
			}
			got := n.Stats().CallRetries
			if reg := n.lm.reg.Snapshot().Counters["dco_retry_attempts_total"]; got != reg || got != tc.want {
				t.Fatalf("CallRetries = %d, dco_retry_attempts_total = %d, want both %d", got, reg, tc.want)
			}
		})
	}
}

// TestPeerStateLivesInThePeerTable keeps the next feature from growing its
// own address-keyed map of deadlines or load again (the provider blacklist
// and the load cache were two), and the circuit or its parameters from
// moving back into the retry package: a viewer's per-peer state is a row of
// health.Tracker. The pollution guard (integrity.go) is the one exemption:
// its maps are a coordinator's ledger of accusations, not a verdict on how
// good a peer is.
func TestPeerStateLivesInThePeerTable(t *testing.T) {
	perPeerMap := regexp.MustCompile(`map\[string\](time\.Time|\*?\w*([lL]oad|[cC]ool|[bB]reaker)\w*)`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || name == "integrity.go" {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if m := perPeerMap.Find(src); m != nil {
			t.Errorf("%s declares %q: per-peer state belongs to health.Tracker", name, m)
		}
	}
	src, err := os.ReadFile("../retry/retry.go")
	if err != nil {
		t.Fatal(err)
	}
	if m := regexp.MustCompile(`(?m)^type Breaker\w*\b|\b(Threshold|Cooldown)\b`).Find(src); m != nil {
		t.Errorf("internal/retry declares %q again: the circuit and its parameters are health's", m)
	}
}
