package live

import (
	"testing"
	"time"

	"dco/internal/faulty"
	"dco/internal/stream"
	"dco/internal/wire"
)

// hold buffers seqs at n as chunks it holds and has registered nowhere
// yet, and starts n's refresh period at start.
func hold(n *Node, start time.Time, seqs ...int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.refreshed = start
	for _, seq := range seqs {
		n.chunks[seq] = MakeChunkPayload(n.cfg.Channel, seq)
		n.regs[seq] = registration{seq: seq, key: uint64(n.cfg.Channel.Ref(seq).ID())}
	}
}

// regOf is where n last had seq acknowledged.
func regOf(n *Node, seq int64) registration {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.regs[seq]
}

// keyOwner is the node of s that owns key. The ring has converged, so
// every node knows its predecessor and exactly one owns it.
func keyOwner(t *testing.T, s *Swarm, key uint64) *Node {
	t.Helper()
	for _, nd := range s.Nodes {
		if nd.kern.Owns(key) {
			return nd
		}
	}
	t.Fatalf("nobody owns %#x", key)
	return nil
}

// reregConfig is a node at dconode's re-registration tick on a ring that
// forms in test time, with 8-byte chunks.
func reregConfig(count int64) Config {
	cfg := DefaultNodeConfig()
	cfg.StabilizeEvery = 20 * time.Millisecond
	cfg.FixFingersEvery = 10 * time.Millisecond
	cfg.Channel = stream.Params{Channel: "R", ChunkBits: 64, Period: 250 * time.Millisecond, Count: count}
	return cfg
}

// TestReregisterKeepsEveryLease: a holder of 4,096 seqs spread over 32
// coordinators or more, ticking at dconode's 1 s, has every seq
// re-acknowledged within indexTTL/3 plus one tick, for three lease periods,
// with one Insert per coordinator per refresh. The rotation this replaced
// re-inserted four seqs a tick: 1,024 s for the same holder, 23 leases long.
// The tick's clock is supplied; no lease is waited out. It runs on Chord,
// dconode's default: a Kademlia view of 40 nodes never holds all of them
// (k = 16), so there is no converged ring to wait for.
func TestReregisterKeepsEveryLease(t *testing.T) {
	const nodes, coords, m = 40, 32, 4096
	cfg := reregConfig(m)
	cfg.DHT = "chord"
	// The holder's first tick adds all 4,096 rows at once, past any
	// coordinator's burst; a holder gathers them one fetch at a time.
	cfg.InsertRate = -1
	s := ringOf(t, cfg, nodes, (*Node).startRingMaint)
	holder := s.Nodes[1]
	seqs := make([]int64, m)
	for i := range seqs {
		seqs[i] = int64(i)
	}
	start := time.Now()
	hold(holder, start, seqs...)
	// taken fails unless every seq was acknowledged at or after the
	// holder's last full refresh, and that refresh is under indexTTL/3 old:
	// a refresh sends every seq, and a seq it could not place is nobody's.
	by := map[string]bool{}
	taken := func(now time.Time) {
		t.Helper()
		holder.mu.Lock()
		defer holder.mu.Unlock()
		if age := now.Sub(holder.refreshed); age >= indexTTL/3 {
			t.Fatalf("at +%v the last full refresh is %v old", now.Sub(holder.refreshed), age)
		}
		for _, r := range holder.regs {
			if r.by == "" {
				t.Fatalf("seq %d is registered nowhere", r.seq)
			}
			by[r.by] = true
		}
	}
	holder.reregister(start, nil)
	taken(start)
	if len(by) < coords {
		t.Fatalf("%d seqs landed at %d coordinators, want at least %d", m, len(by), coords)
	}

	frames := holder.lm.Republishes.Value()
	tick := cfg.RepublishEvery
	var buf []registration // reused from tick to tick, as the node's loop does
	for now := start.Add(tick); now.Sub(start) <= 3*indexTTL; now = now.Add(tick) {
		buf = holder.reregister(now, buf)
		taken(now)
	}
	rounds := int(3 * indexTTL / (indexTTL / 3))
	if got := holder.lm.Republishes.Value() - frames; got > uint64(rounds*len(by)) {
		t.Errorf("%d re-registration frames in %d refresh rounds over %d coordinators", got, rounds, len(by))
	}
	for _, seq := range seqs {
		if !keyOwner(t, s, regOf(holder, seq).key).idx.Has(seq, holder.Addr()) {
			t.Fatalf("seq %d has no row at its coordinator", seq)
		}
	}
}

// TestReregisterRestoresDeletedRow: a row its coordinator lost comes back
// with the holder's next full refresh, and not a tick before.
func TestReregisterRestoresDeletedRow(t *testing.T) {
	s := ringOf(t, reregConfig(100), 4, (*Node).startRingMaint)
	holder := s.Nodes[1]
	const seq = 7
	start := time.Now()
	hold(holder, start, seq)
	holder.reregister(start, nil)
	coord := keyOwner(t, s, regOf(holder, seq).key)
	if !coord.idx.Remove(seq, holder.Addr()) {
		t.Fatal("the first tick registered nothing")
	}
	frames := holder.lm.Republishes.Value()
	holder.reregister(start.Add(indexTTL/3-time.Second), nil)
	if holder.lm.Republishes.Value() != frames || coord.idx.Has(seq, holder.Addr()) {
		t.Fatal("re-registered before the coordinator was due")
	}
	holder.reregister(start.Add(indexTTL/3), nil)
	if !coord.idx.Has(seq, holder.Addr()) {
		t.Fatal("the due refresh did not restore the row")
	}
}

// TestReregisterFollowsAJoin: once a join moved a key of the holder's seqs
// to the newcomer, the newcomer has the holder's row within two ticks of
// the ceded range's arrival — the range the old owner ceded carries it
// there, and the ticks keep it. The ring holds the joiner when Join
// returns, before that batch lands, so the test waits for the batch.
func TestReregisterFollowsAJoin(t *testing.T) {
	cfg := reregConfig(200)
	s := ringOf(t, cfg, 4, (*Node).startRingMaint)
	holder := s.Nodes[1]
	const m = 200
	seqs := make([]int64, m)
	for i := range seqs {
		seqs[i] = int64(i)
	}
	start := time.Now()
	hold(holder, start, seqs...)
	holder.reregister(start, nil)
	// With only ring upkeep running, a range change's cession is the one
	// ReplicateBatch anyone sends.
	ceded := func() (sum uint64) {
		for _, nd := range s.Nodes {
			sum += nd.lm.ReplicateBatches.Value()
		}
		return sum
	}
	before := ceded()
	if err := s.add(len(s.Nodes)); err != nil {
		t.Fatal(err)
	}
	joiner := s.Nodes[len(s.Nodes)-1]
	if err := joiner.Join(s.Source().Addr()); err != nil {
		t.Fatal(err)
	}
	joiner.startRingMaint()
	await(t, s, 10*time.Second, "the ring to take the joiner in", func() bool { return RingCorrect(s.Nodes) })
	await(t, s, 10*time.Second, "the ceded range to reach the joiner", func() bool { return ceded() > before })
	var moved []int64
	for _, seq := range seqs {
		if r := regOf(holder, seq); joiner.kern.Owns(r.key) && r.by != joiner.Addr() {
			moved = append(moved, seq)
		}
	}
	if len(moved) == 0 {
		t.Fatal("the join moved none of the holder's seqs: nothing to follow")
	}
	for tick := 1; tick <= 2; tick++ {
		holder.reregister(start.Add(time.Duration(tick)*cfg.RepublishEvery), nil)
	}
	for _, seq := range moved {
		if !joiner.idx.Has(seq, holder.Addr()) {
			t.Fatalf("seq %d: the joiner owns its key but has no row of the holder", seq)
		}
	}
}

// TestReregisterStopsAtAFailedRoute: once every peer of the holder
// refuses calls, a refresh tick ends at the first route that fails instead
// of routing each remaining seq on its own — and once the holder believes
// itself a ring of one, it registers what it owns in one frame, not one a
// seq. What it could not place is due at the next tick rather than left
// with its old owner.
func TestReregisterStopsAtAFailedRoute(t *testing.T) {
	in := faulty.NewInjector(1)
	s := testSwarm(t, SwarmSpec{N: 16, Base: reregConfig(200), Wrap: in.Wrap})
	if err := s.up((*Node).startRingMaint); err != nil {
		t.Fatal(err)
	}
	await(t, s, 10*time.Second, "ring convergence", func() bool { return RingCorrect(s.Nodes) })
	holder := s.Nodes[1]
	seqs := make([]int64, 200)
	for i := range seqs {
		seqs[i] = int64(i)
	}
	start := time.Now()
	hold(holder, start, seqs...)
	holder.reregister(start, nil)
	for _, nd := range s.Nodes {
		if nd != holder {
			in.SetRule(nd.Addr(), faulty.Rule{Refuse: 1})
		}
	}
	lookups := func() uint64 { return holder.lm.reg.Snapshot().Counters["dco_dht_lookups_total"] }
	before, frames := lookups(), holder.lm.Republishes.Value()
	holder.reregister(start.Add(indexTTL/3), nil)
	// The tick routes at most once per frame plus the route that failed;
	// ring upkeep routes a few fingers meanwhile.
	sent, routed := holder.lm.Republishes.Value()-frames, lookups()-before
	if sent > uint64(len(s.Nodes)) || routed > sent+16 {
		t.Errorf("one tick sent %d frames over %d lookups", sent, routed)
	}
	for _, seq := range seqs {
		if r := regOf(holder, seq); r.by != "" && r.by != holder.Addr() {
			t.Fatalf("seq %d is left with %s, which refuses calls", seq, r.by)
		}
	}
}

// TestReregisterLeavesTheRingOfOne: the seqs a holder registered with
// itself while it was a ring of one are registered at their real owners on
// the first tick after the ring is whole.
func TestReregisterLeavesTheRingOfOne(t *testing.T) {
	const m = 64
	s := testSwarm(t, SwarmSpec{N: 5, Base: reregConfig(m)})
	alone := s.Source()
	alone.startRingMaint()
	seqs := make([]int64, m)
	for i := range seqs {
		seqs[i] = int64(i)
	}
	start := time.Now()
	hold(alone, start, seqs...)
	alone.reregister(start, nil)
	for _, seq := range seqs {
		if r := regOf(alone, seq); r.by != alone.Addr() {
			t.Fatalf("a ring of one registered seq %d at %q", seq, r.by)
		}
	}
	for _, v := range s.Viewers() {
		if err := v.Join(alone.Addr()); err != nil {
			t.Fatal(err)
		}
		v.startRingMaint()
	}
	await(t, s, 10*time.Second, "ring convergence", func() bool { return RingCorrect(s.Nodes) })
	alone.reregister(start.Add(time.Second), nil)
	away := 0
	for _, seq := range seqs {
		r := regOf(alone, seq)
		owner := keyOwner(t, s, r.key)
		if r.by != owner.Addr() || !owner.idx.Has(seq, alone.Addr()) {
			t.Fatalf("seq %d: acknowledged by %q, owner %s has a row: %v", seq, r.by, owner.Addr(), owner.idx.Has(seq, alone.Addr()))
		}
		if owner != alone {
			away++
		}
	}
	if away == 0 {
		t.Fatal("the ring took none of the lone node's keys")
	}
}

// TestInsertNamesSeveralSeqs: a coordinator derives the key of every
// further seq itself, gates each one, and charges the holder's rate limit
// for a frame and for each row it adds — a refresh is free.
func TestInsertNamesSeveralSeqs(t *testing.T) {
	cfg := fastConfig()
	cfg.InsertRate = 3 // a burst of 6
	n := soloNode(t, cfg)
	n.buffer(10, MakeChunkPayload(n.cfg.Channel, 10))
	holder := wire.Entry{ID: 1, Addr: "prov:1"}
	key := func(seq int64) uint64 { return uint64(n.cfg.Channel.Ref(seq).ID()) }
	const far = 10 + insertHorizon + 1
	frame := &wire.Insert{Key: key(1), Seq: 1, More: []int64{2, 3, far}, Holder: holder}
	if werr, ok := n.onInsert(frame).(*wire.Error); !ok || werr.Code != wire.CodeBadRequest {
		t.Fatalf("a frame naming a seq past the horizon: %v", werr)
	}
	for _, seq := range []int64{1, 2, 3} {
		if e := n.idx.Get(seq); len(e.Rows) != 1 || e.Key != key(seq) {
			t.Fatalf("seq %d: %d rows under key %#x, want 1 under %#x", seq, len(e.Rows), e.Key, key(seq))
		}
	}
	if n.idx.Has(far, holder.Addr) {
		t.Fatal("the seq past the horizon was registered")
	}
	// Six tokens: three for the frame above, one for each refresh below.
	frame.More = frame.More[:2]
	for i := 0; i < 3; i++ {
		if _, ok := n.onInsert(frame).(*wire.Ack); !ok {
			t.Fatalf("refresh %d was charged for rows it did not add", i+1)
		}
	}
	if werr, ok := n.onInsert(frame).(*wire.Error); !ok || werr.Code != wire.CodeBusy {
		t.Fatalf("a frame past the holder's rate: %v", werr)
	}
}

// TestReplicatedRowsPassTheInsertGate: a handover naming rows for keys
// the receiver owns cannot put into its owned index what an Insert could
// not — a quarantined holder, a seq past the live-edge horizon — while a
// clean row in the same batch still lands.
func TestReplicatedRowsPassTheInsertGate(t *testing.T) {
	s := ringOf(t, reregConfig(100), 2, (*Node).startRingMaint)
	coord := s.Nodes[0]
	owned := func(from int64) int64 {
		for seq := from; ; seq++ {
			if coord.kern.Owns(uint64(coord.cfg.Channel.Ref(seq).ID())) {
				return seq
			}
		}
	}
	coord.buffer(100, MakeChunkPayload(coord.cfg.Channel, 100))
	evil, honest := wire.Entry{ID: 9, Addr: "evil:1"}, wire.Entry{ID: 8, Addr: "honest:1"}
	coord.health.ForceQuarantine(evil.Addr)
	quarantined, far, clean := owned(0), owned(100+insertHorizon+1), owned(200)
	op := func(seq int64, holder wire.Entry) wire.ReplicaOp {
		return wire.ReplicaOp{Key: uint64(coord.cfg.Channel.Ref(seq).ID()), Seq: seq, Holder: holder, TTLMillis: 10_000}
	}
	coord.onReplicateBatch(&wire.ReplicateBatch{Owner: coord.wireSelf(), Full: true, Ops: []wire.ReplicaOp{
		op(quarantined, evil), op(far, honest), op(clean, honest),
	}})
	if coord.idx.Has(quarantined, evil.Addr) {
		t.Error("a replicated row registered a quarantined holder")
	}
	if coord.idx.Has(far, honest.Addr) {
		t.Errorf("a replicated row registered seq %d, past the horizon", far)
	}
	if !coord.idx.Has(clean, honest.Addr) {
		t.Error("the clean row of the batch was not registered")
	}
}

// TestInsertFramePaysForItsSeqs: a frame buys no more work than its
// tokens pay for. Its length is charged before anything else, and a frame
// that names a seq twice, out of order or past maxInsertSeqs is refused
// before any row moves: 1,000 copies of a registered seq leave the owned
// index and the replica queue as they were, and the holder rate limited.
func TestInsertFramePaysForItsSeqs(t *testing.T) {
	cfg := fastConfig()
	cfg.Replicas = 2
	cfg.InsertRate = 1 // a burst of 2
	n := soloNode(t, cfg)
	key := func(seq int64) uint64 { return uint64(n.cfg.Channel.Ref(seq).ID()) }
	holder := wire.Entry{ID: 1, Addr: "prov:1"}
	if _, ok := n.onInsert(&wire.Insert{Key: key(2), Seq: 2, Holder: holder}).(*wire.Ack); !ok {
		t.Fatal("the registration was refused")
	}
	n.replq.drain()
	dups := make([]int64, 1000)
	for i := range dups {
		dups[i] = 2
	}
	if werr, ok := n.onInsert(&wire.Insert{Key: key(1), Seq: 1, More: dups, Holder: holder}).(*wire.Error); !ok || werr.Code != wire.CodeBadRequest {
		t.Fatalf("a frame of duplicates: %v", werr)
	}
	if ops, _ := n.replq.drain(); len(ops) != 0 || n.idx.Len() != 1 {
		t.Fatalf("a refused frame queued %d replica ops and left %d entries", len(ops), n.idx.Len())
	}
	if werr, ok := n.onInsert(&wire.Insert{Key: key(3), Seq: 3, Holder: holder}).(*wire.Error); !ok || werr.Code != wire.CodeBusy {
		t.Fatalf("the next insert of a holder that sent 1,000 seqs on a burst of 2: %v", werr)
	}
	long := make([]int64, maxInsertSeqs)
	for i := range long {
		long[i] = int64(i + 1)
	}
	other := wire.Entry{ID: 2, Addr: "prov:2"}
	if werr, ok := n.onInsert(&wire.Insert{Key: key(0), Seq: 0, More: long, Holder: other}).(*wire.Error); !ok || werr.Code != wire.CodeBadRequest {
		t.Fatalf("a frame of %d seqs: %v", 1+len(long), werr)
	}
	if n.idx.Len() != 1 {
		t.Fatalf("a frame past maxInsertSeqs left %d entries", n.idx.Len())
	}
}
