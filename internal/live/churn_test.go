package live

import (
	"testing"
	"time"

	"dco/internal/wire"
)

// TestRingHealsAfterAbruptFailure kills a mid-ring node and checks the
// survivors re-link and keep answering index operations.
func TestRingHealsAfterAbruptFailure(t *testing.T) {
	s := ringOf(t, fastConfig(), 6, (*Node).startRingMaint)

	// Abrupt kill (Close without Leave).
	victim := s.Viewers()[2]
	victim.Close()
	survivors := Without(s.Nodes, victim)
	await(t, s, 10*time.Second, "ring to heal around the failure", func() bool {
		return RingCorrect(survivors)
	})

	// The ring still serves index operations for any key.
	owner, _, err := s.Source().FindOwner(0xDEADBEEF)
	if err != nil {
		t.Fatalf("routing after failure: %v", err)
	}
	if owner.Addr == victim.Addr() {
		t.Fatal("routing still lands on the dead node")
	}
}

// TestStreamingSurvivesViewerChurn joins/leaves viewers mid-stream and
// checks remaining viewers still finish.
func TestStreamingSurvivesViewerChurn(t *testing.T) {
	cfg := fastConfig()
	cfg.Channel.Count = 40
	s := upSwarm(t, SwarmSpec{N: 4, Base: cfg})
	stable := s.Viewers()

	// A transient viewer joins the running stream, watches briefly, leaves
	// gracefully; another dies abruptly.
	for i := 4; i < 6; i++ {
		if err := s.add(i); err != nil {
			t.Fatal(err)
		}
		if err := s.Nodes[i].Join(s.Source().Addr()); err != nil {
			t.Fatal(err)
		}
		s.Nodes[i].Start()
	}
	transient, abrupt := s.Nodes[4], s.Nodes[5]
	time.Sleep(500 * time.Millisecond)
	if err := transient.Leave(); err != nil {
		t.Fatalf("transient leave: %v", err)
	}
	abrupt.Close()

	await(t, s, 30*time.Second, "stable viewers to finish despite churn", func() bool {
		return MinDelivered(stable, cfg.Channel.Count) >= 100
	})
}

// TestLookupPendingQueue verifies the live coordinator holds a lookup until
// the provider registers (the paper's always-answered property).
func TestLookupPendingQueue(t *testing.T) {
	cfg := fastConfig()
	cfg.Channel.Count = 0 // no auto-generation; we drive by hand
	n := soloNode(t, cfg)

	key := uint64(n.cfg.Channel.Ref(7).ID())
	start := time.Now()
	done := make(chan []wire.Entry, 1)
	go func() {
		resp := n.onLookup(&wire.Lookup{Key: key, Seq: 7, MaxWait: 3000})
		done <- resp.(*wire.LookupResp).Providers
	}()
	// Register a provider 300 ms later; the parked lookup must wake.
	time.Sleep(300 * time.Millisecond)
	n.onInsert(&wire.Insert{Key: key, Seq: 7, Holder: wire.Entry{ID: 1, Addr: "mem://x"}, UpBps: 1})
	select {
	case providers := <-done:
		if len(providers) != 1 || providers[0].Addr != "mem://x" {
			t.Fatalf("providers = %v", providers)
		}
		if time.Since(start) > 2*time.Second {
			t.Fatal("lookup waited past the insert")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked lookup never answered")
	}
}

// TestLookupTimesOutEmpty confirms a lookup with no providers returns empty
// after MaxWait instead of hanging.
func TestLookupTimesOutEmpty(t *testing.T) {
	cfg := fastConfig()
	cfg.Channel.Count = 0
	n := soloNode(t, cfg)
	key := uint64(n.cfg.Channel.Ref(9).ID())
	start := time.Now()
	resp := n.onLookup(&wire.Lookup{Key: key, Seq: 9, MaxWait: 200})
	if lr := resp.(*wire.LookupResp); len(lr.Providers) != 0 {
		t.Fatalf("unexpected providers %v", lr.Providers)
	}
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond || elapsed > 2*time.Second {
		t.Fatalf("MaxWait not honored: %v", elapsed)
	}
}

// TestNotOwnerRejected: index ops for keys outside a node's range bounce.
func TestNotOwnerRejected(t *testing.T) {
	s := ringOf(t, fastConfig(), 2, (*Node).startRingMaint)
	a, b := s.Nodes[0], s.Nodes[1]
	// A key owned by b must be rejected at a.
	keyForB := uint64(b.ID()) // a key equal to b's ID is owned by b
	resp := a.serve("test", &wire.Insert{Key: keyForB, Seq: 1, Holder: wire.Entry{ID: 1, Addr: "x"}})
	if _, isErr := resp.(*wire.Error); !isErr {
		t.Fatalf("insert at wrong owner accepted: %T", resp)
	}
}

// TestActiveWindowRetention: a bounded active window drops old chunks and
// withdraws their provider records.
func TestActiveWindowRetention(t *testing.T) {
	cfg := fastConfig()
	cfg.Channel.Count = 30
	s := testSwarm(t, SwarmSpec{N: 2, Base: cfg})
	for _, nd := range s.Nodes {
		nd.window = 5
	}
	if err := s.Up(); err != nil {
		t.Fatal(err)
	}
	src, viewer := s.Nodes[0], s.Nodes[1]

	waitFor(t, 30*time.Second, "viewer to reach the stream tail", func() bool {
		return viewer.HasChunk(29)
	})
	if got := src.ChunkCount(); got > 5 {
		t.Fatalf("source retains %d chunks, window is 5", got)
	}
	if got := viewer.ChunkCount(); got > 8 { // a little slack for in-flight stores
		t.Fatalf("viewer retains %d chunks, window is 5", got)
	}
	if viewer.HasChunk(0) {
		t.Fatal("expired chunk still buffered")
	}
}

// TestWindowTrimsOnlyWhatExpired: a node on an endless stream that buffers
// ten windows' worth of chunks holds exactly the newest window, withdraws
// each expired seq exactly once (the node is its own coordinator, so every
// withdrawal is one Insert it serves), and drops a late seq that lands below
// the window at once.
func TestWindowTrimsOnlyWhatExpired(t *testing.T) {
	const window = 16
	cfg := fastConfig()
	cfg.Channel.Count, cfg.Channel.ChunkBits = 0, 8*64
	n := soloNode(t, cfg)
	n.window = window
	held := func(lo, hi int64) {
		t.Helper()
		if got := n.ChunkCount(); got != int(hi-lo) {
			t.Fatalf("holds %d chunks, want %d (seqs %d..%d)", got, hi-lo, lo, hi-1)
		}
		for seq := lo; seq < hi; seq++ {
			if !n.HasChunk(seq) {
				t.Fatalf("seq %d of the window %d..%d is missing", seq, lo, hi-1)
			}
		}
	}
	for seq := int64(0); seq < 10*window; seq++ {
		n.buffer(seq, MakeChunkPayload(cfg.Channel, seq))
	}
	held(9*window, 10*window)
	if got := n.Stats().InsertsServed; got != 9*window {
		t.Fatalf("%d withdrawals for %d expired seqs", got, 9*window)
	}
	if n.buffer(3, MakeChunkPayload(cfg.Channel, 3)); n.HasChunk(3) {
		t.Fatal("a late seq below the window stayed buffered")
	}
	held(9*window, 10*window)
	if got := n.Stats().InsertsServed; got != 9*window+1 {
		t.Fatalf("%d withdrawals after the late seq, want %d", got, 9*window+1)
	}
}

// TestLateViewerStartSeq: a viewer that tunes in mid-stream only fetches
// from its start sequence onward.
func TestLateViewerStartSeq(t *testing.T) {
	s := testSwarm(t, SwarmSpec{N: 2, Base: fastConfig(), Tune: func(i int, cfg *Config) {
		if i == 1 {
			cfg.StartSeq = 10
		}
	}})
	src, viewer := s.Nodes[0], s.Nodes[1]
	src.Start()

	// Wait until the source is halfway through the stream.
	waitFor(t, 10*time.Second, "source to reach chunk 10", func() bool {
		return src.LatestGenerated() >= 10
	})
	if err := viewer.Join(src.Addr()); err != nil {
		t.Fatal(err)
	}
	viewer.Start()

	waitFor(t, 20*time.Second, "late viewer to finish the tail", func() bool {
		for seq := int64(10); seq < 20; seq++ {
			if !viewer.HasChunk(seq) {
				return false
			}
		}
		return true
	})
	for seq := int64(0); seq < 10; seq++ {
		if viewer.HasChunk(seq) {
			t.Fatalf("late viewer fetched pre-join chunk %d", seq)
		}
	}
}
