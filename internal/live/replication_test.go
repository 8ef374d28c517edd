package live

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dco/internal/chord"
	"dco/internal/dht"
	"dco/internal/index"
	"dco/internal/retry"
	"dco/internal/transport"
	"dco/internal/wire"
)

// replConfig is resilientConfig tuned for the replication tests: fast
// flush and anti-entropy cadences, republication disabled so that what
// the tests observe is the replication layer and nothing else.
func replConfig() Config {
	cfg := resilientConfig()
	cfg.Channel.Count = 0
	cfg.Replicas = 2
	cfg.ReplicateEvery = 25 * time.Millisecond
	cfg.AntiEntropyEvery = 200 * time.Millisecond
	cfg.RepublishEvery = 0
	return cfg
}

// ownerOf locates the ring member owning seq's chunk key.
func ownerOf(t *testing.T, nodes []*Node, seq int64) (*Node, uint64) {
	t.Helper()
	key := uint64(nodes[0].cfg.Channel.Ref(seq).ID())
	owner, _, err := nodes[0].FindOwner(key)
	if err != nil {
		t.Fatalf("FindOwner: %v", err)
	}
	for _, nd := range nodes {
		if nd.Addr() == owner.Addr {
			return nd, key
		}
	}
	t.Fatalf("owner %s not among ring members", owner.Addr)
	return nil, 0
}

// replicaSlice returns nd's replica of ownerAddr's index (nil: none).
func replicaSlice(nd *Node, ownerAddr string) *index.Table {
	nd.replicas.mu.Lock()
	defer nd.replicas.mu.Unlock()
	return nd.replicas.slices[ownerAddr]
}

// replicaHolds reports whether nd replicates (ownerAddr, seq) with
// provAddr among the providers.
func replicaHolds(nd *Node, ownerAddr string, seq int64, provAddr string) bool {
	slice := replicaSlice(nd, ownerAddr)
	if slice == nil {
		return false
	}
	for _, r := range slice.Get(seq).Rows {
		if r.Ent.Addr == provAddr {
			return true
		}
	}
	return false
}

// countReplicaHolders counts ring members replicating (ownerAddr, seq).
func countReplicaHolders(nodes []*Node, ownerAddr string, seq int64, provAddr string) int {
	c := 0
	for _, nd := range nodes {
		if nd.Addr() != ownerAddr && replicaHolds(nd, ownerAddr, seq, provAddr) {
			c++
		}
	}
	return c
}

// TestInsertsReplicateToSuccessors: an accepted Insert shows up at the
// owner's first r successors within a few flush periods.
func TestInsertsReplicateToSuccessors(t *testing.T) {
	nodes := ringOf(t, replConfig(), 5, (*Node).startMaint).Nodes

	const seq = 7
	owner, key := ownerOf(t, nodes, seq)
	prov := wire.Entry{ID: 4242, Addr: nodes[0].Addr()}
	resp := owner.onInsert(&wire.Insert{Key: key, Seq: seq, Holder: prov, UpBps: 1000})
	if _, ok := resp.(*wire.Ack); !ok {
		t.Fatalf("insert at owner rejected: %#v", resp)
	}

	waitFor(t, 5*time.Second, "insert to replicate to r successors", func() bool {
		return countReplicaHolders(nodes, owner.Addr(), seq, prov.Addr) >= owner.cfg.Replicas
	})

	// An unregister replicates too: the provider disappears from replicas.
	owner.onInsert(&wire.Insert{Key: key, Seq: seq, Holder: prov, Unregister: true})
	waitFor(t, 5*time.Second, "unregister to replicate", func() bool {
		return countReplicaHolders(nodes, owner.Addr(), seq, prov.Addr) == 0
	})
}

// TestTakeoverAfterCoordinatorDeath: killing a coordinator abruptly must
// not lose its index — the first live successor promotes the replicated
// entries and answers lookups from them.
func TestTakeoverAfterCoordinatorDeath(t *testing.T) {
	nodes := ringOf(t, replConfig(), 5, (*Node).startMaint).Nodes

	const seq = 11
	owner, key := ownerOf(t, nodes, seq)
	prov := wire.Entry{ID: 777, Addr: nodes[0].Addr()}
	if nodes[0] == owner {
		prov.Addr = nodes[1].Addr()
	}
	owner.onInsert(&wire.Insert{Key: key, Seq: seq, Holder: prov, UpBps: 1000})
	waitFor(t, 5*time.Second, "entry to replicate before the kill", func() bool {
		return countReplicaHolders(nodes, owner.Addr(), seq, prov.Addr) >= owner.cfg.Replicas
	})

	owner.Close()
	survivors := Without(nodes, owner)
	waitFor(t, 15*time.Second, "ring to heal around the dead coordinator", func() bool {
		return RingCorrect(survivors)
	})

	// The lookup is answered from the promoted replica — no republication
	// ran in this configuration, so nothing else could restore the entry.
	asker := survivors[0]
	if asker.Addr() == prov.Addr && len(survivors) > 1 {
		asker = survivors[1]
	}
	var got []wire.Entry
	waitFor(t, 10*time.Second, "lookup to be answered from the replica", func() bool {
		providers, err := asker.lookupProviders(key, seq, time.Time{})
		if err != nil {
			return false
		}
		got = providers
		return len(providers) > 0
	})
	if got[0].Addr != prov.Addr {
		t.Fatalf("lookup answered %v, want provider %s", got, prov.Addr)
	}
	var takeoverEntries uint64
	for _, nd := range survivors {
		takeoverEntries += nd.lm.TakeoverEntries.Value()
	}
	if takeoverEntries == 0 {
		t.Fatal("no replica entry was ever promoted; lookup must have been answered some other way")
	}
}

// TestGracefulLeaveSurvivesSuccessorDeath pins the handoff-loss bug: a
// leaver that handed its whole index to exactly one successor lost it when
// that successor died before the next re-registration. The leaver's batch goes to
// its whole replica set, and the members that do not inherit a key keep it
// as a replica, which the new owner's death then promotes.
func TestGracefulLeaveSurvivesSuccessorDeath(t *testing.T) {
	nodes := ringOf(t, replConfig(), 5, (*Node).startMaint).Nodes

	const seq = 13
	owner, key := ownerOf(t, nodes, seq)
	// The provider must be a node that survives both departures.
	var prov *Node
	_, succAddr := owner.Successor()
	for _, nd := range nodes {
		if nd != owner && nd.Addr() != succAddr {
			prov = nd
			break
		}
	}
	provEnt := wire.Entry{ID: uint64(prov.ID()), Addr: prov.Addr()}
	owner.onInsert(&wire.Insert{Key: key, Seq: seq, Holder: provEnt, UpBps: 1000})

	// Graceful leave: the index goes to the replica set, and the successor
	// takes over its range.
	if err := owner.Leave(); err != nil {
		t.Fatalf("leave: %v", err)
	}
	survivors := Without(nodes, owner)
	var heir *Node
	for _, nd := range survivors {
		if nd.Addr() == succAddr {
			heir = nd
		}
	}
	waitFor(t, 10*time.Second, "ring to settle after the leave", func() bool {
		return RingCorrect(survivors)
	})

	// Now the heir dies abruptly — a stack that handed the index to it
	// alone lost the entry here with RepublishEvery disabled.
	heir.Close()
	remaining := Without(survivors, heir)
	waitFor(t, 15*time.Second, "ring to heal around the dead heir", func() bool {
		return RingCorrect(remaining)
	})

	asker := remaining[0]
	if asker == prov && len(remaining) > 1 {
		asker = remaining[1]
	}
	waitFor(t, 10*time.Second, "handed-off entry to survive the heir's death", func() bool {
		providers, err := asker.lookupProviders(key, seq, time.Time{})
		return err == nil && len(providers) > 0 && providers[0].Addr == prov.Addr()
	})
}

// TestAntiEntropyRepairsMissedReplication: with batch flushing effectively
// disabled, the digest exchange alone must converge replicas onto the
// owner's index.
func TestAntiEntropyRepairsMissedReplication(t *testing.T) {
	cfg := replConfig()
	cfg.ReplicateEvery = time.Hour // batches never flush; only digests run
	nodes := ringOf(t, cfg, 5, (*Node).startMaint).Nodes

	const seq = 17
	owner, key := ownerOf(t, nodes, seq)
	prov := wire.Entry{ID: 31337, Addr: nodes[0].Addr()}
	owner.onInsert(&wire.Insert{Key: key, Seq: seq, Holder: prov, UpBps: 1000})

	waitFor(t, 10*time.Second, "digest round to repair the replicas", func() bool {
		return countReplicaHolders(nodes, owner.Addr(), seq, prov.Addr) >= owner.cfg.Replicas
	})
	if owner.Stats().DigestRepairs == 0 {
		t.Fatal("replicas converged without any digest repair being counted")
	}

	// Divergence repairs too: corrupt one replica's provider set and wait
	// for the hash mismatch to trigger a re-send.
	var replica *Node
	for _, nd := range nodes {
		if nd != owner && replicaHolds(nd, owner.Addr(), seq, prov.Addr) {
			replica = nd
			break
		}
	}
	if !replicaSlice(replica, owner.Addr()).Remove(seq, prov.Addr) {
		t.Fatal("the replica's row vanished before it was corrupted")
	}
	waitFor(t, 10*time.Second, "diverged replica to be repaired", func() bool {
		return replicaHolds(replica, owner.Addr(), seq, prov.Addr)
	})
}

// TestIndexLeaseExpiry: a provider that stops re-registering ages out of
// lookup answers once its lease lapses (satellite: coordinator-side TTL).
// Registrations are backdated through the index table's clock argument
// instead of waiting out indexTTL.
func TestIndexLeaseExpiry(t *testing.T) {
	cfg := fastConfig()
	cfg.Channel.Count = 0
	cfg.Replicas = 0
	n := soloNode(t, cfg)
	key := uint64(n.cfg.Channel.Ref(3).ID())
	lookup := func(seq int64) []wire.Entry {
		return n.onLookup(&wire.Lookup{Key: key, Seq: seq, MaxWait: 0}).(*wire.LookupResp).Providers
	}

	// An Insert is granted an indexTTL lease.
	dead, alive := wire.Entry{ID: 1, Addr: "mem://dead"}, wire.Entry{ID: 2, Addr: "mem://alive"}
	before := time.Now()
	n.onInsert(&wire.Insert{Key: key, Seq: 3, Holder: dead, UpBps: 1})
	if exp := n.idx.Get(3).Rows[0].Expire; exp.Before(before.Add(indexTTL)) || exp.After(time.Now().Add(indexTTL)) {
		t.Fatalf("lease runs %v, want %v", exp.Sub(before), indexTTL)
	}
	if len(lookup(3)) == 0 {
		t.Fatal("fresh registration not served")
	}

	// A registration granted indexTTL ago has lapsed: not served, counted.
	then := time.Now().Add(-indexTTL - time.Millisecond)
	n.register(key, 4, index.Row{Ent: dead, Expire: then.Add(indexTTL)}, then)
	if p := lookup(4); len(p) != 0 {
		t.Fatalf("expired registration still served: %v", p)
	}
	if n.Stats().ProvidersExpired == 0 {
		t.Fatal("expiry not counted")
	}

	// A re-insert refreshes the lease rather than duplicating the record:
	// past the first lease, inside the second, there is one provider.
	then = time.Now().Add(-indexTTL / 2)
	n.register(key, 5, index.Row{Ent: alive, Expire: then.Add(indexTTL)}, then)
	n.onInsert(&wire.Insert{Key: key, Seq: 5, Holder: alive, UpBps: 1})
	if p, _, _, _ := n.idx.Select(key, 5, 3, then.Add(indexTTL+time.Second)); len(p) != 1 {
		t.Fatalf("refreshed registration: got %v, want exactly one provider", p)
	}
}

// TestConcurrentJoinsOwnershipTransfer (satellite: chord key-ownership
// transfer under concurrent joins): two nodes join between the same pair
// of a converged ring while inserts are in flight; afterwards every
// inserted seq must resolve at the sorted-ring owner. The widest-gap
// geometry and the sorted-ring oracle are Chord invariants, so this test
// pins the chord backend regardless of DCO_DHT.
func TestConcurrentJoinsOwnershipTransfer(t *testing.T) {
	cfg := replConfig()
	cfg.DHT = "chord"
	cfg.RepublishEvery = 500 * time.Millisecond // production repair path stays on
	s := ringOf(t, cfg, 3, (*Node).startMaint)
	nodes := s.Nodes[:3]

	// Addresses are deterministic (mem://N in attach order) and node IDs
	// derive from the address alone, so future IDs are computable before
	// any node exists. Find the widest gap in the current ring and two
	// future attach slots whose IDs both land inside it.
	ids := make([]uint64, len(nodes))
	for i, nd := range nodes {
		ids[i] = nd.ID()
	}
	gapLo, gapHi := widestGap(ids)
	next := 4 // three nodes attached so far -> next fabric address is mem://4
	var slots []int
	var insideCount int
	for k := next; insideCount < 2 && k < next+256; k++ {
		slots = append(slots, k)
		if chord.InOO(chord.ID(gapLo), chord.HashString(fmt.Sprintf("live-node-mem://%d", k)), chord.ID(gapHi)) {
			insideCount++
		} else {
			continue
		}
		if insideCount == 2 {
			break
		}
	}
	if insideCount < 2 {
		t.Skip("no two attach slots hash into the widest gap within 256 tries")
	}

	// Attach every slot in order (addresses are positional); only the two
	// in-gap nodes join, the rest are closed unused.
	var joiners []*Node
	for range slots {
		if err := s.add(len(s.Nodes)); err != nil {
			t.Fatal(err)
		}
		nd := s.Nodes[len(s.Nodes)-1]
		if chord.InOO(chord.ID(gapLo), chord.ID(nd.ID()), chord.ID(gapHi)) {
			joiners = append(joiners, nd)
		} else {
			nd.Close()
		}
	}
	if len(joiners) != 2 {
		t.Fatalf("expected 2 in-gap joiners, got %d", len(joiners))
	}

	// Inserts in flight throughout both joins.
	inserter := nodes[0]
	stop := make(chan struct{})
	var insMu sync.Mutex
	var inserted []int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := int64(100); ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			inserter.insertIndex(seq)
			insMu.Lock()
			inserted = append(inserted, seq)
			insMu.Unlock()
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// Both join concurrently, between the same pair. Routing can transiently
	// loop while the other join is mid-flight (fingers lag the membership
	// change), so each joiner retries — exactly what a real node does when a
	// join bounces off a churning ring.
	var jwg sync.WaitGroup
	errs := make([]error, 2)
	for i, nd := range joiners {
		jwg.Add(1)
		go func(i int, nd *Node) {
			defer jwg.Done()
			for attempt := 0; attempt < 10; attempt++ {
				if errs[i] = nd.Join(nodes[0].Addr()); errs[i] == nil {
					return
				}
				time.Sleep(50 * time.Millisecond)
			}
		}(i, nd)
	}
	jwg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent join %d: %v", i, err)
		}
	}
	for _, nd := range joiners {
		nd.startMaint()
	}
	all := append(append([]*Node{}, nodes...), joiners...)
	waitFor(t, 15*time.Second, "5-node ring to converge after concurrent joins", func() bool {
		return RingCorrect(all)
	})
	time.Sleep(300 * time.Millisecond) // a few more insert rounds post-convergence
	close(stop)
	wg.Wait()

	// Every inserted seq resolves, and at the node the sorted ring says
	// owns its key (ownership transferred correctly through the joins).
	insMu.Lock()
	seqs := append([]int64(nil), inserted...)
	insMu.Unlock()
	if len(seqs) == 0 {
		t.Fatal("no inserts happened during the joins")
	}
	for _, seq := range seqs {
		key := uint64(cfg.Channel.Ref(seq).ID())
		wantOwner := sortedRingOwner(all, key)
		waitFor(t, 10*time.Second, fmt.Sprintf("seq %d to resolve at its owner", seq), func() bool {
			owner, _, err := nodes[0].FindOwner(key)
			if err != nil || owner.Addr != wantOwner.Addr() {
				return false
			}
			providers, err := nodes[0].lookupProviders(key, seq, time.Time{})
			if err != nil {
				return false
			}
			for _, p := range providers {
				if p.Addr == inserter.Addr() {
					return true
				}
			}
			return false
		})
	}
}

// widestGap returns the (lo, hi) bounding IDs of the largest arc between
// consecutive ring members.
func widestGap(ids []uint64) (lo, hi uint64) {
	sorted := append([]uint64(nil), ids...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] < sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	best := uint64(0)
	for i := range sorted {
		next := sorted[(i+1)%len(sorted)]
		width := next - sorted[i] // wraps correctly in uint64
		if width > best {
			best = width
			lo, hi = sorted[i], next
		}
	}
	return lo, hi
}

// sortedRingOwner returns the member owning key per the sorted ring: the
// first node clockwise at or after key.
func sortedRingOwner(nodes []*Node, key uint64) *Node {
	sorted := append([]*Node(nil), nodes...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j].ID() < sorted[i].ID() {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	for _, nd := range sorted {
		if nd.ID() >= key {
			return nd
		}
	}
	return sorted[0] // wrapped
}

// TestSendOpsSplitsBetweenSeqs: a Full send longer than maxBatchOps is cut
// between seqs, never inside one — the receiver replaces a seq's rows with
// each frame that names it, so a seq split across two frames would keep only
// the second frame's rows. A seq longer than the window goes whole in one
// frame. A non-Full send is cut at the window, wherever that falls.
func TestSendOpsSplitsBetweenSeqs(t *testing.T) {
	cfg := replConfig()
	cfg.MaxProvidersPerSeq = -1
	s := testSwarm(t, SwarmSpec{N: 2, Base: cfg})
	a, b := s.Nodes[0], s.Nodes[1]
	type seqRows struct {
		seq  int64
		rows int
	}
	for _, tc := range []struct {
		name   string
		full   bool
		seqs   []seqRows
		frames uint64
	}{
		{"full, cut between seqs", true, []seqRows{{1, maxBatchOps - 48}, {2, 100}}, 2},
		{"full, one seq over the window", true, []seqRows{{3, maxBatchOps + 100}, {4, 10}}, 2},
		{"not full, cut inside a seq", false, []seqRows{{5, maxBatchOps + 100}}, 2},
	} {
		var ops []wire.ReplicaOp
		for _, sr := range tc.seqs {
			for i := 0; i < sr.rows; i++ {
				holder := wire.Entry{ID: uint64(i), Addr: fmt.Sprintf("mem://holder/%d", i)}
				ops = append(ops, wire.ReplicaOp{Key: uint64(sr.seq), Seq: sr.seq, Holder: holder, TTLMillis: 45_000})
			}
		}
		before := a.lm.ReplicateBatches.Value()
		if left := a.sendOps(b.Addr(), a.wireSelf(), tc.full, ops); len(left) > 0 {
			t.Fatalf("%s: %d of %d ops undelivered", tc.name, len(left), len(ops))
		}
		if frames := a.lm.ReplicateBatches.Value() - before; frames != tc.frames {
			t.Fatalf("%s: %d frames, want %d", tc.name, frames, tc.frames)
		}
		slice := replicaSlice(b, a.Addr())
		for _, sr := range tc.seqs {
			if got := len(slice.Get(sr.seq).Rows); got != sr.rows {
				t.Errorf("%s: seq %d: the receiver holds %d rows, want %d", tc.name, sr.seq, got, sr.rows)
			}
		}
	}
}

// batchProbe is a SwarmSpec.Wrap that counts the non-empty ReplicateBatch
// frames each node sends and, when refuse is set, turns every one away as
// not the owner without delivering it: views in which no member owns the
// batch's keys.
type batchProbe struct {
	mu     sync.Mutex
	sent   map[string]int // by sender address
	refuse bool
}

func (p *batchProbe) wrap(tr transport.Transport) transport.Transport {
	return probedTransport{tr, p}
}

func (p *batchProbe) count(addr string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sent[addr]
}

type probedTransport struct {
	transport.Transport
	p *batchProbe
}

func (t probedTransport) Call(addr string, req wire.Message, timeout time.Duration) (wire.Message, error) {
	if b, ok := req.(*wire.ReplicateBatch); ok && len(b.Ops) > 0 {
		t.p.mu.Lock()
		t.p.sent[t.Addr()]++
		t.p.mu.Unlock()
		if t.p.refuse {
			return nil, errNotOwner
		}
	}
	return t.Transport.Call(addr, req, timeout)
}

// strayRow puts a row for seq's key, held by mem://holder, into nd's owned
// index as it is, whoever owns the key, and returns the holder.
func strayRow(nd *Node, key uint64, seq int64) wire.Entry {
	holder := wire.Entry{ID: 5, Addr: "mem://holder"}
	nd.idx.Upsert(key, seq, index.Row{Ent: holder, Expire: time.Now().Add(indexTTL)}, time.Now())
	return holder
}

// TestHandoverReachesTheOwner: rows a range change hands to a node which
// does not own their keys — it has ceded the arc itself since — are turned
// away and stay with the sender, whose next pass routes them on: they land
// in the index of the key's owner alone, not in an index or a replica
// slice of the node they reached first, whichever node that was.
func TestHandoverReachesTheOwner(t *testing.T) {
	s := ringOf(t, replConfig(), 5, (*Node).startRingMaint)
	const seq = 17
	owner, key := ownerOf(t, s.Nodes, seq)
	from := Without(s.Nodes, owner)[0]
	for _, via := range Without(Without(s.Nodes, owner), from) {
		holder := strayRow(from, key, seq)
		owner.idx.Remove(seq, holder.Addr)
		from.custody(via.self)     // the range change's pass: via turns the row away
		from.custody(dht.Member{}) // the next pass routes it
		if !owner.idx.Has(seq, holder.Addr) {
			t.Fatalf("a handover to %s did not reach the owner %s", via.Addr(), owner.Addr())
		}
		for _, nd := range s.Nodes {
			if _, entries := nd.ReplicaCounts(); entries > 0 || nd != owner && nd.idx.Has(seq, holder.Addr) {
				t.Fatalf("a handover to %s left the row at %s", via.Addr(), nd.Addr())
			}
		}
	}
}

// TestCustodyMovesARowThatLandedLate: a row registered at a node after the
// node ceded the key's range — onInsert checked Owns before the range
// moved, and its Upsert landed after the range change's pass took the
// ceded rows — reaches the owner's index with the node's next
// re-registration tick, not with the holder's refresh indexTTL/3 later.
// The race's outcome is injected as it is: the row in the index of a node
// that does not own its key.
func TestCustodyMovesARowThatLandedLate(t *testing.T) {
	s := ringOf(t, replConfig(), 5, (*Node).startRingMaint)
	const seq = 17
	owner, key := ownerOf(t, s.Nodes, seq)
	late := Without(s.Nodes, owner)[0]
	holder := strayRow(late, key, seq)
	late.reregister(time.Now(), nil)
	if !owner.idx.Has(seq, holder.Addr) {
		t.Fatalf("one tick at %s did not move the row to the owner %s", late.Addr(), owner.Addr())
	}
	if late.idx.Has(seq, holder.Addr) {
		t.Fatalf("the row is still at %s, which does not own its key", late.Addr())
	}
}

// TestCustodyPromotesAReplicaRow: a row its key's owner holds only in a
// replica slice — filed there while another member owned the key — is
// promoted into the owner's index by the owner's next re-registration
// tick, with no ownership event.
func TestCustodyPromotesAReplicaRow(t *testing.T) {
	n := soloNode(t, fastConfig()) // it owns every key
	const seq = 17
	key := uint64(n.cfg.Channel.Ref(seq).ID())
	prev, holder := wire.Entry{ID: 1, Addr: "mem://old-owner"}, wire.Entry{ID: 5, Addr: "mem://holder"}
	n.onReplicateBatch(&wire.ReplicateBatch{Owner: prev, Ops: []wire.ReplicaOp{{Key: key, Seq: seq, Holder: holder, TTLMillis: 45_000}}})
	if !replicaHolds(n, prev.Addr, seq, holder.Addr) || n.idx.Has(seq, holder.Addr) {
		t.Fatal("the row is not in the replica slice alone")
	}
	n.reregister(time.Now(), nil)
	if !n.idx.Has(seq, holder.Addr) || replicaHolds(n, prev.Addr, seq, holder.Addr) {
		t.Fatal("one tick did not promote the replica row into the owner's index")
	}
}

// TestCustodyKeepsATurnedAwayRow: when every member turns a stray row away
// — views in which no member owns its key — the row stays in the sender's
// index, and each pass costs one frame: nothing loops, nothing is dropped.
func TestCustodyKeepsATurnedAwayRow(t *testing.T) {
	probe := &batchProbe{sent: map[string]int{}, refuse: true}
	s := testSwarm(t, SwarmSpec{N: 5, Base: replConfig(), Wrap: probe.wrap})
	if err := s.up((*Node).startRingMaint); err != nil {
		t.Fatal(err)
	}
	await(t, s, 10*time.Second, "ring convergence", func() bool { return RingCorrect(s.Nodes) })
	const seq = 17
	owner, key := ownerOf(t, s.Nodes, seq)
	from := Without(s.Nodes, owner)[0]
	holder := strayRow(from, key, seq)
	for pass := 1; pass <= 3; pass++ {
		before := probe.count(from.Addr())
		from.reregister(time.Now(), nil)
		if frames := probe.count(from.Addr()) - before; frames != 1 {
			t.Fatalf("pass %d: a row every member turns away cost %d frames, want 1", pass, frames)
		}
		if !from.idx.Has(seq, holder.Addr) {
			t.Fatalf("pass %d dropped a row no member took", pass)
		}
	}
}

// TestCustodyRunsOnlyForACondemnedPredecessor: condemning a peer starts a
// custody pass only when the peer's range fell to this node. With the
// re-registration tick off, a stray row stays where it is after a
// non-neighbour is condemned, and a replica row of the predecessor is
// promoted as soon as the predecessor is condemned. Chord is pinned: its
// range changes only when the predecessor goes.
func TestCustodyRunsOnlyForACondemnedPredecessor(t *testing.T) {
	cfg := replConfig()
	cfg.DHT = "chord"
	s := ringOf(t, cfg, 5, (*Node).startRingMaint)
	const seq = 17
	owner, key := ownerOf(t, s.Nodes, seq)
	x := Without(s.Nodes, owner)[0]
	predM, ok := x.kern.(interface{ Predecessor() (dht.Member, bool) }).Predecessor()
	_, succ := x.Successor()
	if !ok {
		t.Fatal("a converged ring left a member without a predecessor")
	}
	var pred, far *Node
	for _, nd := range Without(s.Nodes, x) {
		switch nd.Addr() {
		case predM.Addr:
			pred = nd
		case succ: // a neighbour, but not the one whose range falls to x
		default:
			far = nd
		}
	}

	holder := strayRow(x, key, seq)
	x.noteCallFailure(far.Addr(), retry.ErrOpen)
	time.Sleep(200 * time.Millisecond)
	if !x.idx.Has(seq, holder.Addr) || owner.idx.Has(seq, holder.Addr) {
		t.Fatalf("condemning %s, not a neighbour of %s, moved a stray row: a custody pass ran", far.Addr(), x.Addr())
	}

	x.onReplicateBatch(&wire.ReplicateBatch{Owner: pred.wireSelf(), Ops: []wire.ReplicaOp{{Key: pred.ID(), Seq: seq + 1, Holder: holder, TTLMillis: 45_000}}})
	x.noteCallFailure(pred.Addr(), retry.ErrOpen)
	waitFor(t, time.Second, "the predecessor's replica row to be promoted", func() bool { return x.idx.Has(seq+1, holder.Addr) })
}

// TestForgedHandoverForwardsNothing: a burst of handovers a peer addresses
// to a node for keys the node does not own is turned away frame by frame.
// The node registers none of the rows, files none in a replica slice and
// sends no frame on: a forged handover costs it its own fold and nothing
// more.
func TestForgedHandoverForwardsNothing(t *testing.T) {
	probe := &batchProbe{sent: map[string]int{}}
	s := testSwarm(t, SwarmSpec{N: 5, Base: replConfig(), Wrap: probe.wrap})
	if err := s.up((*Node).startRingMaint); err != nil {
		t.Fatal(err)
	}
	await(t, s, 10*time.Second, "ring convergence", func() bool { return RingCorrect(s.Nodes) })
	recv := s.Nodes[1]
	var ops []wire.ReplicaOp
	for seq := int64(0); len(ops) < 64; seq++ {
		if key := uint64(recv.cfg.Channel.Ref(seq).ID()); !recv.kern.Owns(key) {
			ops = append(ops, wire.ReplicaOp{Key: key, Seq: seq, Holder: wire.Entry{ID: 5, Addr: "mem://forger"}, TTLMillis: 45_000})
		}
	}
	before := probe.count(recv.Addr())
	for range 200 {
		resp := recv.serve("mem://forger", &wire.ReplicateBatch{Owner: recv.wireSelf(), Full: true, Ops: ops})
		if e, ok := resp.(*wire.Error); !ok || e.Code != wire.CodeNotOwner {
			t.Fatalf("a forged handover was answered %v, want not the owner", resp)
		}
	}
	if sent := probe.count(recv.Addr()) - before; sent != 0 {
		t.Errorf("200 forged handovers made the receiver send %d frames", sent)
	}
	for _, nd := range s.Nodes {
		if _, entries := nd.ReplicaCounts(); entries > 0 || nd.idx.Len() > 0 {
			t.Fatalf("a forged handover left rows at %s", nd.Addr())
		}
	}
}
