package live

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dco/internal/faulty"
	"dco/internal/health"
	"dco/internal/stream"
	"dco/internal/transport"
	"dco/internal/wire"
)

// TestStoreChunkChokePointRejectsPollution pins the single verification
// choke point: a polluted payload never enters the buffer, is counted, and
// charges the serving peer.
func TestStoreChunkChokePointRejectsPollution(t *testing.T) {
	n := soloNode(t, fastConfig())
	good := MakeChunkPayload(n.cfg.Channel, 3)
	bad := append([]byte(nil), good...)
	bad[42] ^= 0xFF

	if n.storeChunk(3, bad, "evil:1") {
		t.Fatal("polluted chunk accepted (generator check)")
	}
	if got := n.ChunkCount(); got != 0 {
		t.Fatalf("buffer holds %d chunks after a rejected store", got)
	}
	if n.Stats().IntegrityRejects == 0 {
		t.Fatal("integrity reject not counted")
	}
	if !n.storeChunk(3, good, "honest:1") {
		t.Fatal("clean chunk rejected")
	}
	if bad := n.VerifyBuffered(); bad != 0 {
		t.Fatalf("VerifyBuffered found %d bad chunks in a clean buffer", bad)
	}
}

// TestPunishPoisonerQuarantines pins the demerit state machine end to end
// on one node: repeated pollution from one peer trips the quarantine
// threshold, the peer drops out of provider usability, and the permanent
// log records it.
func TestPunishPoisonerQuarantines(t *testing.T) {
	n := soloNode(t, fastConfig())
	skew := skewHealthClock(n)
	good := MakeChunkPayload(n.cfg.Channel, 1)
	bad := append([]byte(nil), good...)
	bad[0] ^= 1

	evil := "evil:1"
	// Every failed store charges the serving peer one demerit. Decay makes
	// the score fractionally under the count on a real clock, so threshold
	// 3 trips on the fourth charge.
	for i := int64(0); i < 4; i++ {
		if n.storeChunk(i, bad, evil) {
			t.Fatalf("polluted chunk %d accepted", i)
		}
	}
	if !n.health.Quarantined(evil) {
		t.Fatal("4 demerits did not quarantine at threshold 3")
	}
	if len(fetchOrder(n, evil)) != 0 {
		t.Fatal("quarantined peer still usable as provider")
	}
	if n.Stats().PeersQuarantined == 0 {
		t.Fatal("quarantine not counted")
	}
	found := false
	for _, a := range n.EverQuarantined() {
		if a == evil {
			found = true
		}
	}
	if !found {
		t.Fatalf("EverQuarantined missing %s: %v", evil, n.EverQuarantined())
	}
	// Quarantine expires; the permanent log does not.
	skew.Store(int64(health.QuarantineTTL))
	if n.health.Quarantined(evil) {
		t.Fatalf("still quarantined %v later", health.QuarantineTTL)
	}
	if len(n.EverQuarantined()) == 0 {
		t.Fatal("quarantine log forgot the offender after expiry")
	}
}

// skewHealthClock gives n's peer table a clock running the returned offset
// ahead of the wall clock: a test moves it past a quarantine instead of
// waiting one out. Install it before n carries traffic.
func skewHealthClock(n *Node) *atomic.Int64 {
	var skew atomic.Int64
	n.health.SetNow(func() time.Time { return time.Now().Add(time.Duration(skew.Load())) })
	return &skew
}

// TestInsertRateLimit pins the per-holder token bucket: a spammer blows
// through its burst and gets retryable Busy nacks, while a different
// holder's bucket is untouched.
func TestInsertRateLimit(t *testing.T) {
	cfg := fastConfig()
	cfg.InsertRate = 5 // burst 10
	n := soloNode(t, cfg)
	key := uint64(n.cfg.Channel.Ref(1).ID())
	spammer := wire.Entry{ID: 1, Addr: "spam:1"}
	acked, limited := 0, 0
	for i := 0; i < 40; i++ {
		resp := n.onInsert(&wire.Insert{Key: key, Seq: int64(i), Holder: spammer})
		switch m := resp.(type) {
		case *wire.Ack:
			acked++
		case *wire.Error:
			if m.Code != wire.CodeBusy {
				t.Fatalf("rate limit surfaced as %v, want CodeBusy", m.Code)
			}
			limited++
		}
	}
	if limited == 0 {
		t.Fatal("40 rapid inserts never rate limited at rate 5/s")
	}
	if acked > 12 {
		t.Fatalf("%d inserts admitted, burst is 10", acked)
	}
	if n.Stats().InsertsRateLimited == 0 {
		t.Fatal("rate-limited inserts not counted")
	}
	// An unrelated holder has its own bucket.
	other := wire.Entry{ID: 2, Addr: "calm:1"}
	if _, ok := n.onInsert(&wire.Insert{Key: key, Seq: 50, Holder: other}).(*wire.Ack); !ok {
		t.Fatal("honest holder caught in the spammer's rate limit")
	}
}

// TestInsertHorizonRejectsFutureSeqs pins the live-edge horizon: with a
// buffered head at seq 100, a registration insertHorizon chunks past the
// edge passes and one a chunk further is terminal-rejected.
func TestInsertHorizonRejectsFutureSeqs(t *testing.T) {
	n := soloNode(t, fastConfig())
	// Give the node a live edge: a buffered chunk at 100.
	n.buffer(100, MakeChunkPayload(n.cfg.Channel, 100))
	holder := wire.Entry{ID: 1, Addr: "prov:1"}
	key := uint64(n.cfg.Channel.Ref(1).ID())
	const far = 100 + insertHorizon + 1

	resp := n.onInsert(&wire.Insert{Key: key, Seq: far - 1, Holder: holder})
	if _, ok := resp.(*wire.Ack); !ok {
		t.Fatalf("insert at the horizon rejected: %v", resp)
	}
	resp = n.onInsert(&wire.Insert{Key: key, Seq: far, Holder: holder})
	werr, ok := resp.(*wire.Error)
	if !ok || werr.Code != wire.CodeBadRequest {
		t.Fatalf("seq %d past the horizon accepted: %v", far, resp)
	}
	if n.Stats().InsertsRejected == 0 {
		t.Fatal("horizon rejection not counted")
	}
	// Unregisters are never capacity-checked: removing the bogus row (had
	// it landed) must work even past the horizon.
	resp = n.onInsert(&wire.Insert{Key: key, Seq: far, Holder: holder, Unregister: true})
	if _, ok := resp.(*wire.Ack); !ok {
		t.Fatalf("unregister past horizon rejected: %v", resp)
	}
}

// TestInsertProviderCap pins the per-entry growth bound: a full entry
// refuses new providers but keeps refreshing registered ones.
func TestInsertProviderCap(t *testing.T) {
	cfg := fastConfig()
	cfg.MaxProvidersPerSeq = 2
	n := soloNode(t, cfg)
	key := uint64(n.cfg.Channel.Ref(5).ID())
	mk := func(i uint64) wire.Entry {
		return wire.Entry{ID: i, Addr: string(rune('a'+i)) + ":1"}
	}
	for i := uint64(0); i < 2; i++ {
		if _, ok := n.onInsert(&wire.Insert{Key: key, Seq: 5, Holder: mk(i)}).(*wire.Ack); !ok {
			t.Fatalf("provider %d rejected under the cap", i)
		}
	}
	resp := n.onInsert(&wire.Insert{Key: key, Seq: 5, Holder: mk(2)})
	if werr, ok := resp.(*wire.Error); !ok || werr.Code != wire.CodeBadRequest {
		t.Fatalf("third provider accepted past cap 2: %v", resp)
	}
	// Refresh of a registered provider is a lease heartbeat, not growth.
	if _, ok := n.onInsert(&wire.Insert{Key: key, Seq: 5, Holder: mk(0), LoadMilli: 100}).(*wire.Ack); !ok {
		t.Fatal("refresh of an existing provider rejected by the cap")
	}
}

// TestInsertQuarantinedHolderRejected: a quarantined peer cannot
// re-register itself into the index, but can still be unregistered.
func TestInsertQuarantinedHolderRejected(t *testing.T) {
	n := soloNode(t, fastConfig())
	evil := wire.Entry{ID: 9, Addr: "evil:1"}
	key := uint64(n.cfg.Channel.Ref(3).ID())
	n.health.ForceQuarantine(evil.Addr)
	resp := n.onInsert(&wire.Insert{Key: key, Seq: 3, Holder: evil})
	if werr, ok := resp.(*wire.Error); !ok || werr.Code != wire.CodeBadRequest {
		t.Fatalf("quarantined holder registered: %v", resp)
	}
	if _, ok := n.onInsert(&wire.Insert{Key: key, Seq: 3, Holder: evil, Unregister: true}).(*wire.Ack); !ok {
		t.Fatal("unregister of a quarantined holder refused")
	}
}

// TestPollutionReportsScrubAndQuarantine pins the coordinator-side path:
// one accusation is noted but harmless, a second distinct reporter trips
// force-quarantine and scrubs the target's index rows; duplicates from one
// reporter never count twice; self-accusations are malformed; and the
// coordinator never quarantines itself on hearsay.
func TestPollutionReportsScrubAndQuarantine(t *testing.T) {
	n := soloNode(t, fastConfig())
	evil := wire.Entry{ID: 66, Addr: "evil:1"}
	key := uint64(n.cfg.Channel.Ref(8).ID())
	if _, ok := n.onInsert(&wire.Insert{Key: key, Seq: 8, Holder: evil}).(*wire.Ack); !ok {
		t.Fatal("setup insert failed")
	}

	report := func(from string) wire.Message {
		return n.onPollutionReport(&wire.PollutionReport{
			From: wire.Entry{ID: 1, Addr: from}, Key: key, Seq: 8, Target: evil,
		})
	}
	// One reporter, twice: below the distinct threshold.
	report("r1:1")
	report("r1:1")
	if n.health.Quarantined(evil.Addr) {
		t.Fatal("single reporter (duplicated) tripped quarantine")
	}
	resp := n.onLookup(&wire.Lookup{Key: key, Seq: 8, MaxWait: 0})
	if lr := resp.(*wire.LookupResp); len(lr.Providers) == 0 {
		t.Fatal("provider scrubbed before the threshold")
	}
	// Second distinct reporter: trip.
	report("r2:1")
	if !n.health.Quarantined(evil.Addr) {
		t.Fatal("two distinct reporters did not trip quarantine")
	}
	resp = n.onLookup(&wire.Lookup{Key: key, Seq: 8, MaxWait: 0})
	if lr := resp.(*wire.LookupResp); len(lr.Providers) != 0 {
		t.Fatalf("scrubbed provider still advertised: %v", lr.Providers)
	}
	if n.Stats().PollutionReportsSeen < 3 {
		t.Fatalf("reports seen %d, want >= 3", n.Stats().PollutionReportsSeen)
	}

	// Self-accusation is malformed.
	resp = n.onPollutionReport(&wire.PollutionReport{From: evil, Key: key, Seq: 8, Target: evil})
	if _, ok := resp.(*wire.Error); !ok {
		t.Fatalf("self-accusation accepted: %v", resp)
	}
	// Hearsay against this node itself never self-quarantines.
	self := n.wireSelf()
	n.onPollutionReport(&wire.PollutionReport{From: wire.Entry{ID: 1, Addr: "r1:1"}, Key: key, Seq: 8, Target: self})
	n.onPollutionReport(&wire.PollutionReport{From: wire.Entry{ID: 2, Addr: "r2:1"}, Key: key, Seq: 8, Target: self})
	if n.health.Quarantined(n.Addr()) {
		t.Fatal("node quarantined itself on hearsay")
	}
}

// TestAccusationLedgerStaysBounded: a flood of accusations against distinct
// addresses — made by this node and heard from others — leaves each of the
// pollution guard's ledgers at its bound, the newest accusation kept.
func TestAccusationLedgerStaysBounded(t *testing.T) {
	n := soloNode(t, fastConfig())
	reporter := wire.Entry{ID: 1, Addr: "reporter:1"}
	const accused = 5000
	for i := 0; i < accused; i++ {
		target := fmt.Sprintf("accused:%d", i)
		n.reportPollution(target, int64(i))
		n.onPollutionReport(&wire.PollutionReport{From: reporter, Seq: int64(i), Target: wire.Entry{Addr: target}})
	}
	g := &n.guard
	g.mu.Lock()
	defer g.mu.Unlock()
	if got := len(g.reportedAt); got > accusationLedger {
		t.Errorf("%d accusations remembered after accusing %d peers, bound %d", got, accused, accusationLedger)
	}
	if got := len(g.pollution); got > accusationLedger {
		t.Errorf("%d tallies kept after reports against %d peers, bound %d", got, accused, accusationLedger)
	}
	if _, ok := g.reportedAt[fmt.Sprintf("accused:%d", accused-1)]; !ok {
		t.Error("the newest accusation was evicted")
	}
}

// TestLookupParksWhenAllProvidersQuarantined: an entry whose only
// providers are quarantined answers like an empty one instead of handing
// out known poisoners.
func TestLookupParksWhenAllProvidersQuarantined(t *testing.T) {
	n := soloNode(t, fastConfig())
	evil := wire.Entry{ID: 66, Addr: "evil:1"}
	key := uint64(n.cfg.Channel.Ref(2).ID())
	if _, ok := n.onInsert(&wire.Insert{Key: key, Seq: 2, Holder: evil}).(*wire.Ack); !ok {
		t.Fatal("setup insert failed")
	}
	n.health.ForceQuarantine(evil.Addr)
	resp := n.onLookup(&wire.Lookup{Key: key, Seq: 2, MaxWait: 0})
	if lr := resp.(*wire.LookupResp); len(lr.Providers) != 0 {
		t.Fatalf("lookup handed out a quarantined provider: %v", lr.Providers)
	}
}

// TestLatencyContradictionClampsLyingLoad pins the viewer-side defense
// against the lying load reporter: a provider claiming near-idle while its
// observed latency towers over the cohort's best is discounted to
// saturated and sorts behind an honestly-loaded fast peer.
func TestLatencyContradictionClampsLyingLoad(t *testing.T) {
	n := soloNode(t, fastConfig())
	const liar, honest = "liar:1", "honest:1"
	// Observed reality: the liar's serves take 120ms, the honest peer 4ms.
	for i := 0; i < 8; i++ {
		n.health.Observe(liar, 120*time.Millisecond, true)
		n.health.Observe(honest, 4*time.Millisecond, true)
	}
	// Claimed load: liar says idle, honest admits 800/1000.
	n.health.NoteLoad(liar, 0, false)
	n.health.NoteLoad(honest, 800, false)

	order, _, clamped := n.health.Rank(n.Addr(), []string{liar, honest})
	if order[0] != honest {
		t.Fatalf("lying idle claim captured the order: %v", order[:2])
	}
	if clamped != 1 {
		t.Fatalf("clamped = %d, want the liar's report counted once", clamped)
	}
}

// TestPoisonerQuarantinedEndToEnd is the fault-matrix acceptance scenario
// for the pollution defense: the only provider poisons every chunk. The
// viewer must reject every payload at the choke point (buffer stays
// empty), quarantine the poisoner, and — once the poison stops and the
// quarantine lapses — complete the stream with a fully verified buffer.
func TestPoisonerQuarantinedEndToEnd(t *testing.T) {
	const seed = 20260808
	in := faulty.NewInjector(seed)
	cfg := resilientConfig()
	cfg.Channel.Count = 12
	s := testSwarm(t, SwarmSpec{N: 2, Base: cfg, Wrap: in.Wrap})
	src, v := s.Nodes[0], s.Nodes[1]
	skew := skewHealthClock(v)
	in.SetPoisoner(src.Addr(), 1)
	if err := s.Up(); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 30*time.Second, "poisoned transfers to quarantine the source", func() bool {
		s := v.Stats()
		return s.PeersQuarantined >= 1 && s.IntegrityRejects >= 3
	})
	if got := v.ChunkCount(); got != 0 {
		t.Fatalf("viewer buffered %d chunks from a full-time poisoner", got)
	}
	quarantined := false
	for _, a := range v.EverQuarantined() {
		if a == src.Addr() {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatalf("quarantine log %v does not name the poisoner %s", v.EverQuarantined(), src.Addr())
	}

	// Poison stops; quarantine and blacklist lapse (the viewer's peer table
	// jumps a quarantine ahead); the stream completes and everything
	// buffered verifies.
	in.SetPoisoner(src.Addr(), 0)
	skew.Store(int64(health.QuarantineTTL))
	want := int(cfg.Channel.Count)
	waitFor(t, 60*time.Second, "viewer to complete the stream after the poison clears", func() bool {
		return v.ChunkCount() >= want
	})
	if bad := v.VerifyBuffered(); bad != 0 {
		t.Fatalf("%d polluted chunks in the final buffer", bad)
	}
}

// mintedRowFrame is a ChunkResp frame laid out the way a provider once
// sent a chunk together with a manifest row: after the fixed fields, a
// coverage head and the row — the SHA-256 of rowOf and its tag, each
// length-prefixed — then body. The tag is a SHA-256 over public channel
// parameters, so any peer can mint one for any hash.
func mintedRowFrame(p stream.Params, seq int64, body, rowOf []byte) []byte {
	hash := sha256.Sum256(rowOf)
	h := sha256.New()
	h.Write([]byte("dco/manifest/v1\x00"))
	h.Write([]byte(p.Channel))
	h.Write(binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, uint64(p.ChunkBits)), uint64(seq)))
	h.Write(hash[:])
	head := binary.BigEndian.AppendUint64(nil, uint64(seq))
	head = append(head, 1, 0)                                 // OK, not Busy
	head = binary.BigEndian.AppendUint64(head, 0)             // RetryAfterMs, LoadMilli
	head = binary.BigEndian.AppendUint64(head, uint64(seq+1)) // the coverage head
	for _, f := range [][]byte{hash[:], h.Sum(nil)} {
		head = append(binary.BigEndian.AppendUint32(head, uint32(len(f))), f...)
	}
	frame := binary.BigEndian.AppendUint32(nil, uint32(1+4+len(head)+len(body)))
	frame = binary.BigEndian.AppendUint32(append(frame, byte(wire.KindChunkResp)), uint32(len(body)))
	return append(append(frame, head...), body...)
}

// mintingPeer answers every GetChunk the node sends to addr itself, with
// the frame it holds for the seq, decoded; other calls go to the fabric.
type mintingPeer struct {
	transport.Transport
	addr   string
	frames map[int64][]byte
}

func (m mintingPeer) Call(addr string, req wire.Message, timeout time.Duration) (wire.Message, error) {
	if gc, ok := req.(*wire.GetChunk); ok && addr == m.addr {
		return wire.ReadMessage(bytes.NewReader(m.frames[gc.Seq]))
	}
	return m.Transport.Call(addr, req, timeout)
}

// TestMintedRowForgesNothing: a manifest row is no evidence, since any peer
// can mint one. A forged body that matches the row it came with is not
// buffered, and a row minted for a seq does not cost the honest body of
// that seq its place — nor its provider a demerit.
func TestMintedRowForgesNothing(t *testing.T) {
	cfg := fastConfig()
	cfg.FetchDeadlineChunks = 5
	const evil = "evil:1"
	forged := func(seq int64, bit int) []byte {
		b := MakeChunkPayload(cfg.Channel, seq)
		b[bit] ^= 1
		return b
	}
	frames := map[int64][]byte{
		7: mintedRowFrame(cfg.Channel, 7, forged(7, 0), forged(7, 0)), // a forged body and the row that matches it
		8: mintedRowFrame(cfg.Channel, 8, forged(8, 1), forged(8, 0)), // a row for a body that no provider sends
	}
	f := transport.NewFabric()
	viewer, err := NewNode(cfg, func(h transport.Handler) (transport.Transport, error) {
		return mintingPeer{f.Attach(h), evil, frames}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { viewer.Close() })
	honest, err := NewNode(cfg, func(h transport.Handler) (transport.Transport, error) { return f.Attach(h), nil })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { honest.Close() })
	// The viewer is a ring of one: it coordinates every seq.
	register := func(seq int64, holder string, unregister bool) {
		t.Helper()
		key := uint64(cfg.Channel.Ref(seq).ID())
		ins := &wire.Insert{Key: key, Seq: seq, Holder: wire.Entry{ID: key, Addr: holder}, Unregister: unregister}
		resp := viewer.onInsert(ins)
		if _, ok := resp.(*wire.Ack); !ok {
			t.Fatalf("insert %+v: %v", ins, resp)
		}
	}

	register(7, evil, false)
	_ = viewer.FetchChunk(7)
	if viewer.HasChunk(7) || viewer.VerifyBuffered() != 0 {
		t.Fatal("a forged body was buffered on the strength of a peer-minted row")
	}

	register(8, evil, false)
	_ = viewer.FetchChunk(8) // the minted row arrives, the body is refused
	register(8, evil, true)
	if !honest.storeChunk(8, MakeChunkPayload(cfg.Channel, 8), "") {
		t.Fatal("honest provider refused a clean chunk")
	}
	register(8, honest.Addr(), false)
	if err := viewer.FetchChunk(8); err != nil || !viewer.HasChunk(8) {
		t.Fatalf("the honest body of seq 8 was refused after a minted row (%v)", err)
	}
	if d := viewer.health.IntegrityScore(honest.Addr()); d != 0 {
		t.Fatalf("the honest provider was charged %.2f demerits", d)
	}
	if d := viewer.health.IntegrityScore(evil); d == 0 {
		t.Fatal("the minting peer was never charged")
	}
}

// TestProviderServesStoredSliceToConcurrentCallers: storeChunk keeps the
// very slice it was given and onGetChunk serves that slice, unmodified, to
// eight TCP callers at once (the race detector watches it).
func TestProviderServesStoredSliceToConcurrentCallers(t *testing.T) {
	cfg := fastConfig()
	cfg.Channel.ChunkBits = 64 * 1024 * 8
	cfg.UpBps = 0
	n, err := NewNode(cfg, func(h transport.Handler) (transport.Transport, error) {
		return transport.ListenTCP("127.0.0.1:0", h)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	const seq = 5
	data := MakeChunkPayload(cfg.Channel, seq)
	if !n.storeChunk(seq, data, "") {
		t.Fatal("clean chunk rejected")
	}

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		cli, err := transport.ListenTCP("127.0.0.1:0", transport.HandlerFunc(func(string, wire.Message) wire.Message { return nil }))
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				resp, err := cli.Call(n.Addr(), &wire.GetChunk{Seq: seq}, 5*time.Second)
				if err != nil {
					t.Error(err)
					return
				}
				cr, ok := resp.(*wire.ChunkResp)
				if !ok || !cr.OK || !VerifyChunkPayload(cfg.Channel, seq, cr.Data) {
					t.Errorf("damaged reply: %T", resp)
					return
				}
			}
		}()
	}
	wg.Wait()
	n.mu.Lock()
	stored := n.chunks[seq]
	n.mu.Unlock()
	if &stored[0] != &data[0] {
		t.Fatal("storeChunk copied the payload instead of keeping the slice it was given")
	}
	if bad := n.VerifyBuffered(); bad != 0 {
		t.Fatal("serving modified the stored chunk")
	}
}
