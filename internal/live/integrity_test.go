package live

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dco/internal/faulty"
	"dco/internal/health"
	"dco/internal/transport"
	"dco/internal/wire"
)

// TestManifestTagAuthenticatesRows pins the row-relay contract: a row the
// source minted folds in anywhere, while any bit of tampering — hash, tag,
// or seq reassignment — is rejected before the row can shadow verification.
func TestManifestTagAuthenticatesRows(t *testing.T) {
	src := soloNode(t, fastConfig())
	peer := soloNode(t, fastConfig())
	data := MakeChunkPayload(src.cfg.Channel, 7)
	src.addManifestEntrySource(7, data)
	rec, ok := src.manifestLookup(7)
	if !ok {
		t.Fatal("source did not cache its own manifest row")
	}

	if !peer.noteManifestEntry(7, rec.hash[:], rec.tag[:]) {
		t.Fatal("authentic row rejected")
	}
	if _, ok := peer.manifestLookup(7); !ok {
		t.Fatal("accepted row not cached")
	}
	// Tampered hash: the tag no longer matches.
	badHash := append([]byte(nil), rec.hash[:]...)
	badHash[0] ^= 1
	if peer.noteManifestEntry(8, badHash, rec.tag[:]) {
		t.Fatal("tampered hash accepted")
	}
	// Replayed to a different seq: the tag binds the seq.
	if peer.noteManifestEntry(9, rec.hash[:], rec.tag[:]) {
		t.Fatal("row replayed across seqs accepted")
	}
	// Truncated fields.
	if peer.noteManifestEntry(7, rec.hash[:16], rec.tag[:]) {
		t.Fatal("short hash accepted")
	}
}

// TestStoreChunkChokePointRejectsPollution pins the single verification
// choke point: a polluted payload never enters the buffer (manifest-covered
// or not), is counted, and charges the serving peer.
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

	// Manifest-covered seq: the manifest hash is authoritative, so even a
	// payload that passes the generator check is refused when it does not
	// match the row (and vice versa the row authenticates an exact match).
	src := soloNode(t, fastConfig())
	d4 := MakeChunkPayload(n.cfg.Channel, 4)
	src.addManifestEntrySource(4, d4)
	rec, _ := src.manifestLookup(4)
	if !n.noteManifestEntry(4, rec.hash[:], rec.tag[:]) {
		t.Fatal("row rejected")
	}
	bad4 := append([]byte(nil), d4...)
	bad4[len(bad4)-1] ^= 1
	if n.storeChunk(4, bad4, "evil:1") {
		t.Fatal("polluted chunk accepted against its manifest row")
	}
	if !n.storeChunk(4, d4, "honest:1") {
		t.Fatal("manifest-matching chunk rejected")
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
// verified head at seq 100, a registration insertHorizon chunks past the
// edge passes and one a chunk further is terminal-rejected.
func TestInsertHorizonRejectsFutureSeqs(t *testing.T) {
	n := soloNode(t, fastConfig())
	// Give the node a verified head: an authenticated manifest row at 100.
	n.addManifestEntrySource(100, MakeChunkPayload(n.cfg.Channel, 100))
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

// rowTrio is a converged, unstarted three-node ring with replication off
// and a seq whose coordinator is neither the viewer nor the provider. The
// provider holds and has registered the chunk; withRow says whether it
// also holds the chunk's manifest row.
func rowTrio(t *testing.T, withRow bool, wrap func(transport.Transport) transport.Transport) (viewer, provider, coord *Node, seq int64) {
	t.Helper()
	cfg := fastConfig()
	cfg.Replicas = 0
	s := testSwarm(t, SwarmSpec{N: 3, Base: cfg, Wrap: wrap})
	if err := s.up((*Node).startRingMaint); err != nil {
		t.Fatal(err)
	}
	await(t, s, 10*time.Second, "ring convergence", func() bool { return RingCorrect(s.Nodes) })
	coord, viewer, provider = s.Nodes[0], s.Nodes[1], s.Nodes[2]
	for seq = 0; ; seq++ {
		if seq == 256 {
			t.Fatal("no seq in 256 whose coordinator is the third node")
		}
		owner, _, err := viewer.FindOwner(uint64(cfg.Channel.Ref(seq).ID()))
		if err == nil && owner.Addr == coord.Addr() {
			break
		}
	}
	data := MakeChunkPayload(cfg.Channel, seq)
	if withRow {
		provider.addManifestEntrySource(seq, data)
	}
	if !provider.storeChunk(seq, data, "") {
		t.Fatal("provider refused a clean chunk")
	}
	provider.insertIndex(seq)
	return viewer, provider, coord, seq
}

// TestManifestRowRidesWithChunk: one GetChunk brings the payload and the
// row that authenticates it; the viewer stores the chunk without having
// sent a single ManifestReq.
func TestManifestRowRidesWithChunk(t *testing.T) {
	viewer, provider, _, seq := rowTrio(t, true, nil)
	if err := viewer.FetchChunk(seq); err != nil {
		t.Fatal(err)
	}
	if !viewer.HasChunk(seq) {
		t.Fatal("chunk not stored")
	}
	want, _ := provider.manifestLookup(seq)
	if got, ok := viewer.manifestLookup(seq); !ok || got != want {
		t.Fatal("the viewer did not learn the row from the chunk response")
	}
	if got := viewer.Stats().ManifestFetches; got != 0 {
		t.Fatalf("viewer issued %d ManifestReqs with the row riding along, want 0", got)
	}
}

// TestChunkWithoutRowCostsNoFetch: a provider without the row answers
// without one, and the viewer stores the chunk on the generator check
// without asking anybody for rows.
func TestChunkWithoutRowCostsNoFetch(t *testing.T) {
	viewer, provider, coord, seq := rowTrio(t, false, nil)
	if err := viewer.FetchChunk(seq); err != nil {
		t.Fatal(err)
	}
	if !viewer.HasChunk(seq) {
		t.Fatal("chunk not stored")
	}
	if p, c := provider.Stats().ManifestServes, coord.Stats().ManifestServes; p != 0 || c != 0 {
		t.Fatalf("ManifestReqs served: provider %d, coordinator %d; want none", p, c)
	}
	if got := viewer.Stats().ManifestFetches; got != 0 {
		t.Fatalf("viewer ManifestFetches = %d, want 0", got)
	}
}

// forgeRowTags flips a bit in the tag of every manifest row that arrives
// in a ChunkResp. The reply is the caller's own decoded copy.
type forgeRowTags struct{ transport.Transport }

func (f forgeRowTags) Call(addr string, req wire.Message, timeout time.Duration) (wire.Message, error) {
	resp, err := f.Transport.Call(addr, req, timeout)
	if cr, ok := resp.(*wire.ChunkResp); ok && len(cr.ManifestTag) > 0 {
		cr.ManifestTag[0] ^= 1
	}
	return resp, err
}

// TestForgedPiggybackedRowIsIgnored: a row whose tag does not verify is
// dropped and nobody is charged for it; the chunk is stored all the same,
// and the coordinator is never asked for the row.
func TestForgedPiggybackedRowIsIgnored(t *testing.T) {
	viewer, provider, coord, seq := rowTrio(t, true, func(tr transport.Transport) transport.Transport {
		return forgeRowTags{tr}
	})
	if err := viewer.FetchChunk(seq); err != nil {
		t.Fatal(err)
	}
	if !viewer.HasChunk(seq) {
		t.Fatal("chunk not stored")
	}
	// The provider's coverage ad may have fetched the authentic row by now;
	// the forged one is never held.
	want, _ := provider.manifestLookup(seq)
	if got, ok := viewer.manifestLookup(seq); ok && got != want {
		t.Fatal("the viewer holds the forged row")
	}
	st := viewer.Stats()
	if st.IntegrityRejects != 0 || st.ProvidersBlacklisted != 0 || st.PeersQuarantined != 0 || st.PollutionReportsSent != 0 {
		t.Fatalf("somebody was charged for a forged row: %+v", st)
	}
	if got := coord.Stats().ManifestServes; got != 0 {
		t.Fatalf("the coordinator was asked for rows %d times", got)
	}
}

// TestProviderServesStoredSliceToConcurrentCallers: storeChunk keeps the
// very slice it was given and onGetChunk serves that slice, unmodified, to
// eight TCP callers at once (the race detector watches it) — each of whom
// gets the payload and its row in one exchange.
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
	n.addManifestEntrySource(seq, data)
	if !n.storeChunk(seq, data, "") {
		t.Fatal("clean chunk rejected")
	}
	rec, _ := n.manifestLookup(seq)

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
				if !bytes.Equal(cr.ManifestHash, rec.hash[:]) || !bytes.Equal(cr.ManifestTag, rec.tag[:]) {
					t.Error("reply carries no (or a wrong) manifest row")
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
