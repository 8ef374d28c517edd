package live

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dco/internal/dht"
	"dco/internal/faulty"
	"dco/internal/israce"
	"dco/internal/stream"
	"dco/internal/transport"
	"dco/internal/wire"
)

// staleArcDisturbance makes cached arcs go stale under a running stream. It
// returns the nodes that must still complete the stream, and how many
// cached arcs it can have made stale at any one node. Lookups and inserts
// that failed before it calls mark are not counted against the cache.
type staleArcDisturbance func(t *testing.T, s *Swarm, in *faulty.Injector, mark func()) (finish []*Node, stale uint64)

// TestStaleArcCostsOneRedirect makes cached owner arcs go stale under a
// running stream, one way per row, and holds the owner-arc cache to its
// contract: the stream completes, no lookup exhausts its coordinators, no
// index insert is given up on, and a stale arc costs a node one redirect —
// one per request in flight along it when it went stale, so at most one per
// fetch worker, never a loop.
func TestStaleArcCostsOneRedirect(t *testing.T) {
	t.Parallel() // beside TestRoutingCallBudget: both mostly wait for a stream
	const n = 6
	scenarios := []struct {
		name      string
		chordOnly bool // the row needs ring maintenance to hand a range on
		disturb   staleArcDisturbance
	}{
		{"join inside an arc", false, func(t *testing.T, s *Swarm, _ *faulty.Injector, _ func()) ([]*Node, uint64) {
			if err := s.add(len(s.Nodes)); err != nil {
				t.Fatal(err)
			}
			joiner := s.Nodes[len(s.Nodes)-1]
			if err := joiner.Join(s.Source().Addr()); err != nil {
				t.Fatal(err)
			}
			joiner.Start()
			// The joiner's successor's arc, everywhere.
			return s.Viewers(), 1
		}},
		{"abrupt owner death", false, func(t *testing.T, s *Swarm, _ *faulty.Injector, _ func()) ([]*Node, uint64) {
			victim := s.Viewers()[2]
			victim.Close()
			return Without(s.Viewers(), victim), 1
		}},
		{"graceful leave", false, func(t *testing.T, s *Swarm, _ *faulty.Injector, _ func()) ([]*Node, uint64) {
			victim := s.Viewers()[2]
			if err := victim.Leave(); err != nil {
				t.Fatal(err)
			}
			return Without(s.Viewers(), victim), 1
		}},
		// What the cut and the merge cost while they last is not the cache's
		// doing: a half-closed or half-merged ring routes in circles until
		// the hop bound trips, for longer than a lookup's or an insert's
		// attempts last (at the parent commit, without a cache, one run in
		// three exhausts lookups here and gives up on 1-4 inserts per node,
		// uncounted). What the cache answers for is what they leave behind:
		// every near-side arc, grown over the far side's range during the
		// cut, is stale in a ring that has settled.
		{"partition and merge", false, func(t *testing.T, s *Swarm, in *faulty.Injector, mark func()) ([]*Node, uint64) {
			sideA, sideB := s.Nodes[:n/2], s.Nodes[n/2:]
			in.Partition(addrs(sideA), addrs(sideB))
			await(t, s, 30*time.Second, "both halves to form their own rings", func() bool {
				return RingCorrect(sideA) && RingCorrect(sideB)
			})
			in.Heal()
			healed := time.Now()
			await(t, s, 30*time.Second, "census to merge the rings", func() bool { return RingCorrect(s.Nodes) })
			// A request that set out during the cut can take until two
			// seconds after it to give up (an insert's one attempt, a
			// lookup's three, each a routing retry loop).
			time.Sleep(time.Until(healed.Add(2500 * time.Millisecond)))
			mark()
			// Every far-side arc when the cut falls, every near-side arc when
			// it heals.
			return s.Viewers(), n
		}},
		// Chord only: Kademlia has no pointer maintenance that closes a ring
		// around a member only some can reach, and stalls on this fault
		// with or without a cache.
		{"owner reachable but superseded", true, func(t *testing.T, s *Swarm, in *faulty.Injector, _ func()) ([]*Node, uint64) {
			// Everybody but one witness loses the path to X, so the ring
			// hands X's range on, while the witness can still reach X and X
			// still believes in its range. The witness sits opposite X in
			// the ring: as a neighbour its own pointers would keep X in.
			ring := append([]*Node(nil), s.Nodes...)
			sort.Slice(ring, func(i, j int) bool { return ring[i].ID() < ring[j].ID() })
			var x, witness *Node
			for i, nd := range ring {
				if w := ring[(i+n/2)%n]; nd != s.Source() && w != s.Source() {
					x, witness = nd, w
					break
				}
			}
			rest := Without(Without(s.Nodes, x), witness)
			in.OneWay(addrs(rest), []string{x.Addr()})
			await(t, s, 30*time.Second, "the ring to close without X", func() bool {
				return RingCorrect(append(rest, witness))
			})
			// X itself is not asked to finish: no registration for the range
			// it still claims reaches it, so each of those chunks costs it a
			// full lookup wait and a second opinion (emptySecondOpinion) —
			// half a minute for this stream, with or without a cache.
			return Without(s.Viewers(), x), 1
		}},
	}
	// The rows run side by side, each in a swarm of its own: they sleep far
	// more than they compute, and t.Parallel would queue them two at a time
	// on a two-core host.
	var rows sync.WaitGroup
	defer rows.Wait()
	for _, sc := range scenarios {
		sc := sc
		rows.Add(1)
		go func() {
			defer rows.Done()
			t.Run(sc.name, func(t *testing.T) {
				if sc.chordOnly && defaultDHT() != "chord" {
					t.Skip("needs a ring")
				}
				staleArcRow(t, n, sc.disturb)
			})
		}()
	}
}

// staleArcRow streams through one disturbance on n nodes and checks what
// it cost.
func staleArcRow(t *testing.T, n int, disturb staleArcDisturbance) {
	in := faulty.NewInjector(7100)
	cfg := censusConfig()
	cfg.Channel.Count = 40
	s := upSwarm(t, SwarmSpec{N: n, Base: cfg, Wrap: in.Wrap})
	await(t, s, 15*time.Second, "ring to converge", func() bool { return RingCorrect(s.Nodes) })
	await(t, s, 15*time.Second, "caches to warm", func() bool {
		return MinDelivered(s.Viewers(), 12) >= 100
	})
	if hits := SumStats(s.Nodes).RouteCacheHits; hits == 0 {
		t.Fatal("no request was sent along a cached arc before the disturbance: nothing can go stale")
	}

	before := map[*Node]Stats{}
	finish, stale := disturb(t, s, in, func() {
		for _, nd := range s.Nodes {
			before[nd] = nd.Stats()
		}
	})

	await(t, s, 60*time.Second, "the stream to complete", func() bool {
		return MinDelivered(finish, cfg.Channel.Count) >= 100
	})
	for _, nd := range append([]*Node{s.Source()}, finish...) {
		st := nd.Stats()
		lookups, inserts := st.LookupFailures-before[nd].LookupFailures, st.IndexInsertFailures-before[nd].IndexInsertFailures
		if lookups != 0 || inserts != 0 {
			t.Errorf("%s: %d lookups exhausted their coordinators, %d index inserts given up on; want 0 and 0",
				nd.Addr(), lookups, inserts)
		}
		if st.RouteCacheRedirects > stale*fetchWorkers {
			t.Errorf("%s: %d redirects for at most %d stale arcs and %d requests in flight", nd.Addr(), st.RouteCacheRedirects, stale, fetchWorkers)
		}
	}
}

// TestStaleArcRedirectsWithinTheCall pins the first invalidation rule where
// the swarm test above cannot force it (on six nodes every change is
// sighted before a request bounces): a request sent along a wrong arc — to
// a live node that disowns the key, or to nobody — is redirected inside the
// same lookupProviders or insertIndex call, without a settle sleep and
// without using up one of the call's attempts; and an empty answer that
// came along a cached arc drops the arc.
func TestStaleArcRedirectsWithinTheCall(t *testing.T) {
	s := ringOf(t, resilientConfig(), 4, (*Node).startMaint)
	provider, viewer := s.Nodes[0], s.Nodes[1]
	const seq = 5
	key := uint64(provider.cfg.Channel.Ref(seq).ID())
	owner, _, err := viewer.FindOwner(key)
	if err != nil {
		t.Fatal(err)
	}
	if !provider.storeChunk(seq, MakeChunkPayload(provider.cfg.Channel, seq), "") {
		t.Fatal("storeChunk refused a generator payload")
	}
	provider.insertIndex(seq)
	var bystander *Node // alive, neither the key's owner nor the viewer
	for _, nd := range s.Nodes[2:] {
		if nd.Addr() != owner.Addr {
			bystander = nd
		}
	}
	// settle is the pause a lookupProviders call that gave up on an attempt
	// would have slept.
	const settle = 100 * time.Millisecond

	for i, wrong := range []dht.Member{
		{ID: bystander.ID(), Addr: bystander.Addr()}, // answers: not the owner
		{ID: 1, Addr: "mem://nobody"},                // does not answer
	} {
		redirects := viewer.Stats().RouteCacheRedirects
		viewer.routes.Store(dht.Route{Owner: wrong, Lo: key - 1, Hi: key})
		start := time.Now()
		ps, err := viewer.lookupProviders(key, seq, time.Time{})
		if err != nil || len(ps) == 0 {
			t.Fatalf("wrong arc %d: lookup through a stale arc: providers %v, err %v", i, ps, err)
		}
		if d := time.Since(start); d >= settle && wrong.Addr == bystander.Addr() {
			t.Errorf("wrong arc %d: the redirected lookup took %v: it slept instead of routing at once", i, d)
		}
		if got := viewer.Stats().RouteCacheRedirects - redirects; got != 1 {
			t.Errorf("wrong arc %d: %d redirects for one stale arc", i, got)
		}
		if m, ok := viewer.routes.Owner(key); !ok || m.Addr != owner.Addr {
			t.Errorf("wrong arc %d: after the redirect the cache names %q (hit=%v), want the routed owner %s", i, m.Addr, ok, owner.Addr)
		}

		viewer.routes.Store(dht.Route{Owner: wrong, Lo: key - 1, Hi: key})
		start = time.Now()
		viewer.insertIndex(seq)
		if d := time.Since(start); d >= 2*settle && wrong.Addr == bystander.Addr() {
			t.Errorf("wrong arc %d: the redirected insert took %v: it waited instead of routing at once", i, d)
		}
		st := viewer.Stats()
		if st.RouteCacheRedirects-redirects != 2 || st.IndexInsertFailures != 0 {
			t.Errorf("wrong arc %d: %d redirects, %d insert failures after a lookup and an insert; want 2 and 0",
				i, st.RouteCacheRedirects-redirects, st.IndexInsertFailures)
		}
	}
	ps, _ := viewer.lookupProviders(key, seq, time.Time{})
	if !hasAddr(ps, viewer.Addr()) {
		t.Fatalf("the viewer's redirected insert did not reach the owner's index: providers %v", ps)
	}

	// A node that never joined claims every key and knows no provider: a
	// superseded owner in miniature. Its empty answer must not be believed.
	if err := s.add(len(s.Nodes)); err != nil {
		t.Fatal(err)
	}
	loner := s.Nodes[len(s.Nodes)-1]
	const unheld = seq + 1
	key = uint64(provider.cfg.Channel.Ref(unheld).ID())
	viewer.routes.Store(dht.Route{Owner: dht.Member{ID: loner.ID(), Addr: loner.Addr()}, Lo: key - 1, Hi: key})
	ps, err = viewer.lookupProviders(key, unheld, time.Now().Add(50*time.Millisecond))
	if err != nil || len(ps) != 0 {
		t.Fatalf("lookup of a chunk nobody holds: providers %v, err %v", ps, err)
	}
	if m, ok := viewer.routes.Owner(key); ok && m.Addr == loner.Addr() {
		t.Fatal("the arc survived the empty answer it produced")
	}
}

func hasAddr(es []wire.Entry, addr string) bool {
	for _, e := range es {
		if e.Addr == addr {
			return true
		}
	}
	return false
}

// kindCounter counts the RPCs a swarm's nodes send, by kind:
// transport.Metrics has no per-kind counts.
type kindCounter struct {
	transport.Transport
	calls *[256]atomic.Int64 // indexed by wire.Kind
}

func (c kindCounter) Call(addr string, req wire.Message, timeout time.Duration) (wire.Message, error) {
	c.calls[req.Kind()].Add(1)
	return c.Transport.Call(addr, req, timeout)
}

// countKinds is the SwarmSpec.Wrap that counts every node's calls into one
// table.
func countKinds() (*[256]atomic.Int64, func(transport.Transport) transport.Transport) {
	calls := new([256]atomic.Int64)
	return calls, func(tr transport.Transport) transport.Transport { return kindCounter{tr, calls} }
}

// TestRoutingCallBudget is the control-plane twin of the allocation
// budgets: on a settled 8-node swarm at the maintenance cadences nodes ship
// with, a delivered (viewer, seq) pair may cost at most 0.03 routing RPCs
// (0.023 measured, plus a quarter). It cost 4.5 before index requests rode
// cached arcs, 0.65 while fix_fingers routed every finger start, and 0.30
// while every node re-inserted four seqs a RepublishEvery, each through a
// fresh route. Re-registration routes once per coordinator per indexTTL/3,
// which this 3-s stream never reaches; finger repair routes only a start
// beyond the successor list's span, and 8 nodes with a list of 8 have none.
// Kademlia's lookups prove single keys and, in a swarm smaller than a
// bucket, ask every member: its line is the one routed lookup a pair needs
// plus three quarters of one for the repair paths (12.25 calls), where it
// made two and a half (17).
func TestRoutingCallBudget(t *testing.T) {
	t.Parallel()
	const n, chunks, warm = 8, 100, 20
	calls, wrap := countKinds()
	routing := func() int64 { return calls[wire.KindFindSuccessor].Load() + calls[wire.KindKadFindNode].Load() }
	cfg := DefaultNodeConfig()
	cfg.StabilizeEvery = 50 * time.Millisecond // ring formation in test time; a stabilize round routes nothing
	cfg.LookupWait = 500 * time.Millisecond
	cfg.Channel = stream.Params{Channel: "B", ChunkBits: 8 * 1024, Period: 30 * time.Millisecond, Count: chunks}
	s := testSwarm(t, SwarmSpec{N: n, Base: cfg, Wrap: wrap})
	// A steady-state budget: the stream starts into a whole ring (an insert
	// routed through a forming one can land on the wrong coordinator and
	// wait for a re-registration, see bench/README.md), and the count
	// starts once the caches are warm.
	if err := s.up((*Node).startMaint); err != nil {
		t.Fatal(err)
	}
	await(t, s, 20*time.Second, "ring to converge", func() bool { return RingCorrect(s.Nodes) })
	for _, nd := range s.Nodes {
		nd.startStream()
	}
	await(t, s, 20*time.Second, "caches to warm", func() bool { return MinDelivered(s.Viewers(), warm) >= 100 })
	callsWarm, pairsWarm := routing(), SumStats(s.Viewers()).ChunksFetched
	await(t, s, 30*time.Second, "the stream to complete", func() bool { return MinDelivered(s.Viewers(), chunks) >= 100 })
	perPair := float64(routing()-callsWarm) / float64(SumStats(s.Viewers()).ChunksFetched-pairsWarm)

	budget := 0.03
	if s.Source().DHTName() == "kademlia" {
		budget = 1.75 * (n - 1)
	}
	t.Logf("%s: %.3f routing calls per delivered pair after warm-up (budget %.3f)", s.Source().DHTName(), perPair, budget)

	if perPair > budget {
		t.Fatalf("%.2f routing calls per delivered (viewer, seq) pair, budget %.2f", perPair, budget)
	}
}

// TestMaintenanceCallBudget holds ring upkeep to what it learns. Per
// round: on a settled 8-node ring with no stream, a stabilize round is one
// Ping to the predecessor and one Notify to the successor — whose reply
// carries what GetState used to be asked for — and a fix_fingers tick
// answers from the successor list unless the finger starts beyond it. A
// round cost Ping + GetState + Notify, and a tick 1.3 FindSuccessor calls,
// before. Per second: the settled ring's rounds change nothing, so each
// node's stabilize has backed off to one round per dht.UpkeepBackoff base
// intervals, with a quarter of slack; at a fixed cadence it ran eight times
// that. The ring runs at fastConfig's base cadence, not the shipped one,
// so the capped rounds of the window fit in a few seconds.
func TestMaintenanceCallBudget(t *testing.T) {
	t.Parallel()
	const n = 8
	calls, wrap := countKinds()
	cfg := fastConfig()
	s := testSwarm(t, SwarmSpec{N: n, Base: cfg, Wrap: wrap})
	if s.Source().DHTName() != "chord" {
		t.Skip("stabilize and fix_fingers are the Chord kernel's ticks")
	}
	if err := s.up((*Node).startMaint); err != nil {
		t.Fatal(err)
	}
	awaitBackedOff(t, s)

	type sample struct {
		at                                           time.Time
		rounds, fixes, ping, notify, getState, route float64
	}
	take := func() (v sample) {
		v.at = time.Now()
		for i := range s.Nodes {
			v.rounds += float64(s.Registry(i).Counter("dco_ring_stabilize_runs_total").Value())
			v.fixes += float64(s.Registry(i).Counter("dco_ring_finger_fixes_total").Value())
		}
		v.ping, v.notify = float64(calls[wire.KindPing].Load()), float64(calls[wire.KindNotify].Load())
		v.getState, v.route = float64(calls[wire.KindGetState].Load()), float64(calls[wire.KindFindSuccessor].Load())
		return v
	}
	// A window of fifteen capped rounds.
	capped := dht.UpkeepBackoff * cfg.StabilizeEvery
	a := take()
	time.Sleep(15 * capped)
	b := take()
	rounds, fixes, secs := b.rounds-a.rounds, b.fixes-a.fixes, b.at.Sub(a.at).Seconds()
	t.Logf("%d nodes, %.2f s: %.0f stabilize rounds, %.0f finger fixes: Ping %.0f, Notify %.0f, GetState %.0f, FindSuccessor %.0f",
		n, secs, rounds, fixes, b.ping-a.ping, b.notify-a.notify, b.getState-a.getState, b.route-a.route)
	if fixes == 0 {
		t.Fatal("fix_fingers did not run inside the window")
	}
	if perSec, budget := rounds/n/secs, 1.25/capped.Seconds(); perSec > budget {
		t.Errorf("%.2f stabilize rounds per node per second on a settled ring, budget %.2f (1.25 per %v)", perSec, budget, capped)
	}
	// A round that straddles either end of the window has its run counted on
	// one side and its calls on the other: one round per node of slack.
	if b.getState != 0 {
		t.Errorf("%.0f GetState calls were sent: nothing asks for what Notify's reply carries", b.getState)
	}
	if got := b.notify - a.notify; got > 1.05*rounds+n {
		t.Errorf("%.0f Notify calls in %.0f stabilize rounds, budget 1.05 per round", got, rounds)
	}
	if got := b.ping - a.ping; got > rounds+n {
		t.Errorf("%.0f Ping calls in %.0f stabilize rounds, budget 1 per round", got, rounds)
	}
	if got := b.route - a.route; got > 0.25*fixes {
		t.Errorf("%.0f FindSuccessor calls in %.0f fix_fingers ticks, budget 0.25 per tick", got, fixes)
	}
}

// TestSequentialJoinsNeedNoStabilize: with no upkeep running, the ring is
// correct — every successor and every predecessor — after each of fourteen
// joins in turn, once one stabilize tick of the source has linked it to the
// first viewer. A joiner's Notifies to both neighbours are the whole of its
// adoption.
func TestSequentialJoinsNeedNoStabilize(t *testing.T) {
	t.Parallel()
	s := testSwarm(t, SwarmSpec{N: 16, Base: fastConfig()})
	if s.Source().DHTName() != "chord" {
		t.Skip("a join's adoption by both neighbours is the Chord kernel's")
	}
	src := s.Source()
	if err := s.Nodes[1].Join(src.Addr()); err != nil {
		t.Fatal(err)
	}
	for _, tk := range src.kern.Ticks() {
		if tk.Name == "stabilize" {
			tk.Fn()
		}
	}
	if !RingCorrect(s.Nodes[:2]) {
		t.Fatal("one stabilize tick of a ring of one did not link it to its first member")
	}
	for i := 2; i < len(s.Nodes); i++ {
		if err := s.Nodes[i].Join(src.Addr()); err != nil {
			t.Fatal(err)
		}
		if !RingCorrect(s.Nodes[:i+1]) {
			t.Fatalf("after node %d joined, the ring of %d is not correct", i, i+1)
		}
	}
}

// TestUntracedNodeAllocatesNothingForTracing pins what a chunk may cost in
// trace strings on a node without a trace: nothing. The serve path is held
// to its whole budget — the reply — so a detail string built before the
// trace check shows up here.
func TestUntracedNodeAllocatesNothingForTracing(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	cfg := fastConfig()
	cfg.Trace = nil
	n := soloNode(t, cfg)
	if !n.storeChunk(7, MakeChunkPayload(cfg.Channel, 7), "") {
		t.Fatal("storeChunk refused a generator payload")
	}
	peer := n.Addr()
	if a := testing.AllocsPerRun(200, func() {
		n.traceSeq("chunk.serve", 123456)
		n.traceSeqPeer("chunk.fetch", 123456, "peer", peer)
	}); a != 0 {
		t.Errorf("the fetch and serve paths' trace calls allocate %.0f times on an untraced node", a)
	}
	hit, miss := &wire.GetChunk{Seq: 7}, &wire.GetChunk{Seq: 123456}
	if a := testing.AllocsPerRun(200, func() { n.onGetChunk(hit) }); a > 1 {
		t.Errorf("an untraced serve allocates %.0f times, budget 1 (the reply)", a)
	}
	if a := testing.AllocsPerRun(200, func() { n.onGetChunk(miss) }); a > 1 {
		t.Errorf("an untraced miss allocates %.0f times, budget 1 (the reply)", a)
	}
}
