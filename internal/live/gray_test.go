package live

import (
	"slices"
	"testing"
	"time"

	"dco/internal/faulty"
	"dco/internal/wire"
)

// grayTrio builds three unstarted nodes on one fabric behind a shared fault
// injector: a viewer and two providers both holding chunk seq. Nothing is
// joined or started — fetchOnce is driven with explicit addresses, which is
// exactly how FetchChunk uses it after provider selection.
func grayTrio(t *testing.T, cfg Config, seq int64) (viewer, primary, backup *Node, in *faulty.Injector) {
	t.Helper()
	in = faulty.NewInjector(20260808)
	s := testSwarm(t, SwarmSpec{N: 3, Base: cfg, Wrap: in.Wrap})
	viewer, primary, backup = s.Nodes[0], s.Nodes[1], s.Nodes[2]
	data := MakeChunkPayload(cfg.Channel, seq)
	primary.storeChunk(seq, data, "")
	backup.storeChunk(seq, data, "")
	return viewer, primary, backup, in
}

// TestHedgeRescuesStalledPrimary is the gray-failure headline: the primary
// provider accepts the connection and then stalls mid-request — no error,
// no data, the failure a breaker cannot see. The hedge must fire after the
// (stranger-conservative) hedgeMaxDelay, win from the backup, and return
// the chunk in a fraction of the stall timeout.
func TestHedgeRescuesStalledPrimary(t *testing.T) {
	cfg := fastConfig()
	viewer, primary, backup, in := grayTrio(t, cfg, 5)
	in.SetStalled(primary.Addr(), true)

	start := time.Now()
	resp, from, err := viewer.fetchOnce(5, primary.Addr(), backup.Addr(), time.Time{})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("hedged fetch failed: %v", err)
	}
	cr, ok := resp.(*wire.ChunkResp)
	if !ok || !cr.OK {
		t.Fatalf("hedged fetch returned %T (ok=%v)", resp, ok)
	}
	if from != backup.Addr() {
		t.Fatalf("winning response credited to %s, want backup %s", from, backup.Addr())
	}
	if !VerifyChunkPayload(cfg.Channel, 5, cr.Data) {
		t.Fatal("hedge-won chunk failed verification")
	}
	// The whole point: the viewer did not wait out the primary's stall.
	if elapsed > time.Second {
		t.Fatalf("hedged fetch took %v; the stall leaked into the fetch path", elapsed)
	}
	st := viewer.Stats()
	if st.HedgesLaunched != 1 {
		t.Fatalf("HedgesLaunched = %d, want 1", st.HedgesLaunched)
	}
	if st.HedgeWins != 1 {
		t.Fatalf("HedgeWins = %d, want 1", st.HedgeWins)
	}
	if st.HedgesCancelled != 1 {
		t.Fatalf("HedgesCancelled = %d, want 1 (primary leg still in flight)", st.HedgesCancelled)
	}
}

// TestHedgeQuietOnFastPrimary: a healthy primary answering inside its
// latency estimate must never trigger a hedge — hedging is a tail-latency
// defense, not a default double-send.
func TestHedgeQuietOnFastPrimary(t *testing.T) {
	cfg := fastConfig()
	viewer, primary, backup, _ := grayTrio(t, cfg, 7)

	resp, from, err := viewer.fetchOnce(7, primary.Addr(), backup.Addr(), time.Time{})
	if err != nil {
		t.Fatalf("fetch from healthy primary failed: %v", err)
	}
	if cr, ok := resp.(*wire.ChunkResp); !ok || !cr.OK {
		t.Fatalf("fetch returned %T", resp)
	}
	if from != primary.Addr() {
		t.Fatalf("response credited to %s, want primary %s", from, primary.Addr())
	}
	if st := viewer.Stats(); st.HedgesLaunched != 0 {
		t.Fatalf("HedgesLaunched = %d on a fast primary, want 0", st.HedgesLaunched)
	}
}

// TestHedgeDisabledWaitsOutStall pins the opt-out: with Hedge off the fetch
// is single-flight and eats the stall, exactly the pre-hedging behavior the
// graychaos scenario contrasts against.
func TestHedgeDisabledWaitsOutStall(t *testing.T) {
	cfg := fastConfig()
	cfg.Hedge = false
	cfg.CallTimeout = 600 * time.Millisecond
	viewer, primary, backup, in := grayTrio(t, cfg, 9)
	in.SetStalled(primary.Addr(), true)

	start := time.Now()
	_, from, err := viewer.fetchOnce(9, primary.Addr(), backup.Addr(), time.Time{})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("fetch from a stalled primary succeeded without a hedge")
	}
	if from != primary.Addr() {
		t.Fatalf("failure credited to %s, want primary %s", from, primary.Addr())
	}
	if elapsed < 400*time.Millisecond {
		t.Fatalf("single-flight fetch returned in %v; stall was not actually waited out", elapsed)
	}
	if st := viewer.Stats(); st.HedgesLaunched != 0 {
		t.Fatalf("HedgesLaunched = %d with hedging disabled, want 0", st.HedgesLaunched)
	}
}

// TestGetChunkDeadlineShed pins deadline propagation on the serve path: a
// GetChunk whose propagated DeadlineMs budget cannot cover the pacer's
// projected wait is shed immediately and counted as a deadline shed — also
// when it equals the declared WaitMs, as a viewer's request does once its
// playback horizon binds — while the same backlog with only a WaitMs
// patience sheds without the deadline attribution.
func TestGetChunkDeadlineShed(t *testing.T) {
	cfg := fastConfig()
	cfg.UpBps = 8 * 1024 // 1 KiB/s drain: one 1 KiB chunk ≈ 1s of budget
	for _, tc := range []struct {
		name     string
		req      wire.GetChunk
		deadline bool // the shed counts as a deadline shed
	}{
		{"deadline only", wire.GetChunk{DeadlineMs: 100}, true},
		{"deadline equal to patience", wire.GetChunk{WaitMs: 100, DeadlineMs: 100}, true},
		{"patience only", wire.GetChunk{WaitMs: 100}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := soloNode(t, cfg)
			n.storeChunk(3, MakeChunkPayload(cfg.Channel, 3), "")
			// Commit the whole burst: every serve now projects a ~1s wait.
			if _, _, ok := n.pace.admit(int(n.pace.burst), 0); !ok {
				t.Fatal("burst-sized reservation refused")
			}
			req := tc.req
			req.Seq = 3
			cr, ok := n.onGetChunk(&req).(*wire.ChunkResp)
			if !ok || !cr.Busy {
				t.Fatalf("starved GetChunk %+v was not answered with a Busy nack", tc.req)
			}
			if cr.RetryAfterMs == 0 {
				t.Fatal("Busy nack carried no RetryAfterMs hint")
			}
			want := uint64(0)
			if tc.deadline {
				want = 1
			}
			if got := n.Stats().DeadlineSheds; got != want {
				t.Fatalf("DeadlineSheds = %d, want %d", got, want)
			}
		})
	}
}

// TestOrderProvidersHealthAware pins the selection bias: with equal load
// reports, a suspected provider sinks to the back of the order but is never
// dropped; with every peer neutral the order is exactly the input order
// (the pre-health property existing tests rely on).
func TestOrderProvidersHealthAware(t *testing.T) {
	n := soloNode(t, fastConfig())
	provs := []string{"p:a", "mem://dead", "p:c"}
	// All neutral: stable, order preserved.
	if got := fetchOrder(n, provs...); !slices.Equal(got, provs) {
		t.Fatalf("neutral ordering changed: %v", got)
	}
	// The middle provider fails calls — the node's own, through the one
	// call site that feeds the table (conclusive failures bump suspicion
	// hardest), though too few to open its circuit.
	for i := 0; i < 3; i++ {
		_, _ = n.call("mem://dead", &wire.Ping{}, n.cfg.CallTimeout)
	}
	if got := fetchOrder(n, provs...); !slices.Equal(got, []string{"p:a", "p:c", "mem://dead"}) {
		t.Fatalf("fetch order %v: want the suspected provider last, never dropped, the healthy ones as they were", got)
	}
}

// TestDeadlineTimeoutClampOrder pins the one timeout rule of the fetch path
// (lookups and chunk requests both): deadline-derived, never shorter than
// the server-side wait plus 250ms of slack, never longer than CallTimeout —
// in that order, so the cap wins over the slack.
func TestDeadlineTimeoutClampOrder(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		name        string
		callTimeout time.Duration
		remaining   time.Duration // 0 = no deadline
		serverWait  time.Duration
		want        time.Duration
	}{
		{"no deadline: CallTimeout", 2000 * ms, 0, 0, 2000 * ms},
		{"no deadline, long server wait: capped at CallTimeout", 2000 * ms, 0, 5000 * ms, 2000 * ms},
		{"remaining budget under CallTimeout", 2000 * ms, 1000 * ms, 0, 1000 * ms},
		{"remaining budget over CallTimeout", 2000 * ms, 5000 * ms, 0, 2000 * ms},
		{"nearly expired: the slack is the floor", 2000 * ms, 5 * ms, 0, 250 * ms},
		{"expired: the slack is the floor", 2000 * ms, -1000 * ms, 0, 250 * ms},
		{"server wait plus slack wins over a shorter budget", 2000 * ms, 300 * ms, 600 * ms, 850 * ms},
		{"and loses to CallTimeout", 500 * ms, 300 * ms, 600 * ms, 500 * ms},
		{"CallTimeout below the slack: the cap still wins", 100 * ms, 0, 0, 100 * ms},
		{"no CallTimeout, no deadline: server wait plus slack", 0, 0, 600 * ms, 850 * ms},
		{"no CallTimeout: the remaining budget, uncapped", 0, 9000 * ms, 600 * ms, 9000 * ms},
		{"negative CallTimeout counts as none", -1, 1000 * ms, 0, 1000 * ms},
	} {
		n := &Node{cfg: Config{CallTimeout: tc.callTimeout}}
		var deadline time.Time
		if tc.remaining != 0 {
			deadline = time.Now().Add(tc.remaining)
		}
		got := n.deadlineTimeout(deadline, tc.serverWait)
		// A deadline-derived answer shrinks by however long the call took.
		if got > tc.want || got < tc.want-50*ms {
			t.Errorf("%s: deadlineTimeout = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestLookupRespectsDeadlineBudget pins deadline propagation on the lookup
// path: a coordinator holding a pending lookup releases it when the
// requester's DeadlineMs budget — not the larger MaxWait — runs out.
func TestLookupRespectsDeadlineBudget(t *testing.T) {
	n := soloNode(t, fastConfig())
	key := uint64(n.cfg.Channel.Ref(11).ID())
	start := time.Now()
	resp := n.onLookup(&wire.Lookup{Key: key, Seq: 11, MaxWait: 5000, DeadlineMs: 120})
	elapsed := time.Since(start)
	if _, ok := resp.(*wire.LookupResp); !ok {
		t.Fatalf("lookup returned %T", resp)
	}
	if elapsed < 90*time.Millisecond {
		t.Fatalf("lookup returned after %v, before its 120ms deadline budget", elapsed)
	}
	if elapsed > time.Second {
		t.Fatalf("lookup held %v; DeadlineMs did not clamp the 5s MaxWait", elapsed)
	}
}
