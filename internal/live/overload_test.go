package live

import (
	"sync"
	"testing"
	"time"

	"dco/internal/wire"
)

// TestLookupPendingQueueMaxWaitExpiry pins the pending queue's timeout arm:
// a lookup for a chunk nobody provides parks for MaxWait and then returns
// an empty answer — not early, and not an error.
func TestLookupPendingQueueMaxWaitExpiry(t *testing.T) {
	n := soloNode(t, fastConfig())
	key := uint64(n.cfg.Channel.Ref(5).ID())
	start := time.Now()
	resp := n.onLookup(&wire.Lookup{Key: key, Seq: 5, MaxWait: 80})
	lr, ok := resp.(*wire.LookupResp)
	if !ok {
		t.Fatalf("unexpected response %T", resp)
	}
	if len(lr.Providers) != 0 {
		t.Fatalf("providers from an empty index: %v", lr.Providers)
	}
	if el := time.Since(start); el < 60*time.Millisecond {
		t.Fatalf("pending lookup returned after %v, before its 80ms MaxWait", el)
	}
}

// TestLookupPendingQueueWokenByInsert pins the wake arm: a parked lookup is
// released by a concurrent Insert well before MaxWait, and the answer holds
// exactly the provider that registered.
func TestLookupPendingQueueWokenByInsert(t *testing.T) {
	n := soloNode(t, fastConfig())
	key := uint64(n.cfg.Channel.Ref(6).ID())
	prov := wire.Entry{ID: 1, Addr: "prov:1"}
	done := make(chan []wire.Entry, 1)
	go func() {
		resp := n.onLookup(&wire.Lookup{Key: key, Seq: 6, MaxWait: 5000})
		lr, _ := resp.(*wire.LookupResp)
		done <- lr.Providers
	}()
	time.Sleep(50 * time.Millisecond)
	if _, ok := n.onInsert(&wire.Insert{Key: key, Seq: 6, Holder: prov}).(*wire.Ack); !ok {
		t.Fatal("insert not acked")
	}
	select {
	case provs := <-done:
		if len(provs) != 1 || provs[0].Addr != prov.Addr {
			t.Fatalf("woken lookup answered %v, want [%s]", provs, prov.Addr)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked lookup was not woken by the concurrent Insert")
	}
}

// TestLookupPendingQueueRace storms the two arms against each other:
// short-MaxWait lookups racing Inserts on the same keys must always return
// a well-formed answer — empty or filled are both legal outcomes of the
// race, hanging or panicking is not. Run with -race, this also proves that
// an answer an Insert claims for a lookup whose wait is ending reaches it
// (index.Table.Unpark) and is never sent to a recycled waiter.
func TestLookupPendingQueueRace(t *testing.T) {
	n := soloNode(t, fastConfig())
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		seq := int64(100 + i)
		key := uint64(n.cfg.Channel.Ref(seq).ID())
		wg.Add(2)
		go func() {
			defer wg.Done()
			resp := n.onLookup(&wire.Lookup{Key: key, Seq: seq, MaxWait: 5})
			if _, ok := resp.(*wire.LookupResp); !ok {
				t.Errorf("raced lookup returned %T", resp)
			}
		}()
		go func() {
			defer wg.Done()
			n.onInsert(&wire.Insert{Key: key, Seq: seq, Holder: wire.Entry{ID: 2, Addr: "prov:2"}})
		}()
	}
	wg.Wait()
}

// TestProviderCooldownExpiry pins the blacklist lifecycle: a failed
// provider is unusable for exactly ProviderCooldown, then usable again —
// and the blacklist gauge follows it back to zero (the entry is a deadline
// in the peer's row of the bounded peer table: nothing is left to leak).
func TestProviderCooldownExpiry(t *testing.T) {
	cfg := fastConfig()
	cfg.ProviderCooldown = 60 * time.Millisecond
	n := soloNode(t, cfg)
	const peer = "peer:9"
	blacklisted := func() float64 { return n.lm.reg.Snapshot().Gauges["dco_live_blacklist_size"] }
	if len(fetchOrder(n, peer)) != 1 {
		t.Fatal("fresh peer unusable")
	}
	n.blacklistProvider(peer)
	if len(fetchOrder(n, peer)) != 0 {
		t.Fatal("blacklisted peer usable inside its cooldown")
	}
	if got := blacklisted(); got != 1 {
		t.Fatalf("dco_live_blacklist_size = %v inside the cooldown, want 1", got)
	}
	waitFor(t, 2*time.Second, "provider cooldown to expire", func() bool {
		return len(fetchOrder(n, peer)) == 1
	})
	if got := blacklisted(); got != 0 {
		t.Fatalf("dco_live_blacklist_size = %v after the cooldown, want 0", got)
	}

	// ProviderCooldown 0 disables the blacklist altogether.
	cfg.ProviderCooldown = 0
	n = soloNode(t, cfg)
	n.blacklistProvider(peer)
	if len(fetchOrder(n, peer)) != 1 || n.Stats().ProvidersBlacklisted != 0 {
		t.Fatal("a zero ProviderCooldown still blacklisted the provider")
	}
}

// TestGetChunkMissCounted: a GetChunk for a chunk this node never buffered
// is a miss — counted, not Busy, and still carrying the load report.
func TestGetChunkMissCounted(t *testing.T) {
	n := soloNode(t, fastConfig())
	cr, ok := n.onGetChunk(&wire.GetChunk{Seq: 42}).(*wire.ChunkResp)
	if !ok {
		t.Fatal("miss did not answer with a ChunkResp")
	}
	if cr.OK || cr.Busy {
		t.Fatalf("miss answered OK=%v Busy=%v, want neither", cr.OK, cr.Busy)
	}
	if got := n.Stats().ChunksMissed; got != 1 {
		t.Fatalf("ChunksMissed = %d, want 1", got)
	}
}

// TestGetChunkShedsWithRetryHint drives the provider into saturation and
// checks the shed contract: Busy=true, a nonzero RetryAfterMs hint, a
// saturated load report, and the shed counted.
func TestGetChunkShedsWithRetryHint(t *testing.T) {
	cfg := fastConfig()
	cfg.UpBps = 8_000 // 1000 B/s
	n := soloNode(t, cfg)
	data := MakeChunkPayload(n.cfg.Channel, 1) // 1024 bytes
	n.mu.Lock()
	n.chunks[1] = data
	n.chunks[2] = data
	n.mu.Unlock()

	first, _ := n.onGetChunk(&wire.GetChunk{Seq: 1, WaitMs: 50}).(*wire.ChunkResp)
	if first == nil || !first.OK {
		t.Fatalf("burst-covered serve failed: %+v", first)
	}
	// Commit the rest of the burst; the next serve would need ~1s of
	// refill against 10ms of patience.
	if _, _, ok := n.pace.admit(int(n.pace.burst)-len(data), 0); !ok {
		t.Fatal("reservation of the rest of the burst refused")
	}
	second, _ := n.onGetChunk(&wire.GetChunk{Seq: 2, WaitMs: 10}).(*wire.ChunkResp)
	if second == nil || !second.Busy {
		t.Fatalf("saturated serve not shed: %+v", second)
	}
	if second.RetryAfterMs == 0 {
		t.Fatal("shed carried no RetryAfterMs hint")
	}
	// Real clock: a few ms of refill may have nudged the committed burst
	// just under the exact saturation constant — near-full is the contract.
	if second.LoadMilli < loadSaturatedMilli*9/10 {
		t.Fatalf("shed load report %d, want near %d", second.LoadMilli, loadSaturatedMilli)
	}
	if got := n.Stats().ChunksShedBusy; got != 1 {
		t.Fatalf("ChunksShedBusy = %d, want 1", got)
	}
}

// TestFetchDeadlineAbandons: with a playback horizon configured, a fetch
// for a chunk nobody can provide gives up at the horizon (counted, so the
// worker rejoins the live edge) instead of retrying forever.
func TestFetchDeadlineAbandons(t *testing.T) {
	cfg := fastConfig()
	cfg.FetchDeadlineChunks = 3 // 120ms horizon at the 40ms test period
	n := soloNode(t, cfg)
	errCh := make(chan error, 1)
	go func() { errCh <- n.FetchChunk(7) }()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("fetch of an unavailable chunk reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fetch worker wedged past its playback horizon")
	}
	if got := n.Stats().ChunksAbandoned; got != 1 {
		t.Fatalf("ChunksAbandoned = %d, want 1", got)
	}
}

// TestSleepBusyAbortsOnClose: a Busy backoff must never outlive the node —
// sleepBusy returns false promptly once the node closes.
func TestSleepBusyAbortsOnClose(t *testing.T) {
	n := soloNode(t, fastConfig())
	done := make(chan bool, 1)
	go func() { done <- n.sleepBusy(60_000, time.Time{}) }()
	time.Sleep(20 * time.Millisecond)
	n.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("sleepBusy reported an uninterrupted sleep across Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sleepBusy kept sleeping after Close")
	}
}
