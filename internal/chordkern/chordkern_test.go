package chordkern

import (
	"errors"
	"fmt"
	"testing"

	"dco/internal/chord"
	"dco/internal/dht"
	"dco/internal/israce"
	"dco/internal/wire"
)

// testNet joins kernels by direct calls: one goroutine, no clock, ticks run
// when the test runs them — so "within two stabilize rounds" means exactly
// that, and every call is counted by kind.
type testNet struct {
	kerns map[string]*Kernel
	calls map[wire.Kind]int
	// drop, if set, loses the calls it returns true for: counted, never
	// delivered.
	drop func(to string, req wire.Message) bool
}

// endpoint is one kernel's dht.Caller on a testNet.
type endpoint struct {
	net  *testNet
	self string
}

func (e endpoint) Call(addr string, req wire.Message) (wire.Message, error) {
	e.net.calls[req.Kind()]++
	if e.net.drop != nil && e.net.drop(addr, req) {
		return nil, fmt.Errorf("testNet: %T to %s lost", req, addr)
	}
	k := e.net.kerns[addr]
	if k == nil {
		return nil, fmt.Errorf("testNet: no endpoint at %s", addr)
	}
	if _, ok := req.(*wire.Ping); ok {
		return &wire.Pong{}, nil
	}
	resp, ok := k.HandleRPC(e.self, req)
	if !ok {
		return nil, fmt.Errorf("testNet: %s does not serve %T", addr, req)
	}
	return resp, nil
}

func (e endpoint) CallIdem(addr string, req wire.Message) (wire.Message, error) {
	return e.Call(addr, req)
}

func (tn *testNet) add(t *testing.T, id uint64, succListSize int, bootstrap string) *Kernel {
	t.Helper()
	addr := fmt.Sprintf("n%x", id)
	k := New(Config{SuccListSize: succListSize}, dht.Options{
		Self:   dht.Member{ID: id, Addr: addr},
		Caller: endpoint{tn, addr},
	})
	tn.kerns[addr] = k
	if bootstrap != "" {
		if err := k.Join(bootstrap); err != nil {
			t.Fatalf("join %s: %v", addr, err)
		}
	}
	return k
}

// round runs one stabilize tick on every member, in ring order.
func (tn *testNet) round(members []*Kernel) {
	for _, k := range members {
		k.stabilize()
	}
}

// settledRing builds n members evenly spaced round the circle (member i at
// i·2^64/n + 1), joined one by one through member 0 and stabilized until
// every successor list is exact.
func settledRing(t *testing.T, n, succListSize int) (*testNet, []*Kernel) {
	t.Helper()
	tn := &testNet{kerns: map[string]*Kernel{}, calls: map[wire.Kind]int{}}
	step := ^uint64(0)/uint64(n) + 1
	var members []*Kernel
	for i := 0; i < n; i++ {
		bootstrap := ""
		if i > 0 {
			bootstrap = members[0].self.Addr
		}
		members = append(members, tn.add(t, uint64(i)*step+1, succListSize, bootstrap))
		tn.round(members)
	}
	for r := 0; r < 2*n && !exact(members); r++ {
		tn.round(members)
	}
	if !exact(members) {
		t.Fatal("the ring did not settle")
	}
	return tn, members
}

// exact reports whether every member (given in ring order) holds its true
// predecessor and the longest true successor list its capacity allows.
func exact(members []*Kernel) bool {
	n := len(members)
	for i, k := range members {
		if p := k.cs.Predecessor(); !p.OK || p.Addr != members[(i+n-1)%n].self.Addr {
			return false
		}
		list := k.cs.Successors()
		if len(list) != min(k.cfg.SuccListSize, n-1) {
			return false
		}
		for j, e := range list {
			if e.Addr != members[(i+1+j)%n].self.Addr {
				return false
			}
		}
	}
	return true
}

// TestStabilizeIsOneExchange pins what a round costs and how fast it
// converges. Settled: one Ping to the predecessor and one Notify to the
// successor per member, nothing else. A member joining between two others
// is already the successor of the member behind it when Join returns, so
// that member's next round is one Notify, to the newcomer, whose reply
// brings the newcomer's list. If the joiner's notify to its predecessor was
// lost, the member behind it learns of it from the reply to its own Notify
// to the old successor, adopts it, and notifies it in the same round: two
// Notifies, and the same state at the end.
func TestStabilizeIsOneExchange(t *testing.T) {
	const n, listSize = 8, 4
	tn, members := settledRing(t, n, listSize)

	tn.calls = map[wire.Kind]int{}
	tn.round(members)
	if got, want := fmt.Sprint(tn.calls), fmt.Sprint(map[wire.Kind]int{wire.KindPing: n, wire.KindNotify: n}); got != want {
		t.Fatalf("a settled round of %d members made calls %v, want %v", n, got, want)
	}
	if !exact(members) {
		t.Fatal("a settled round changed the ring")
	}

	joinBetween := func(before, after *Kernel, notifies int) *Kernel {
		t.Helper()
		mid := tn.add(t, before.self.ID+(after.self.ID-before.self.ID)/2, listSize, members[0].self.Addr)
		tn.calls = map[wire.Kind]int{}
		before.stabilize()
		if got := tn.calls[wire.KindNotify]; got != notifies {
			t.Fatalf("the round behind the newcomer made %d Notify calls, want %d", got, notifies)
		}
		if tn.calls[wire.KindGetState] != 0 {
			t.Fatalf("stabilize sent GetState: %v", tn.calls)
		}
		list := before.cs.Successors()
		if len(list) < 2 || list[0].Addr != mid.self.Addr || list[1].Addr != after.self.Addr {
			t.Fatalf("one round after the join, the member behind the newcomer holds %v, want the newcomer and then its successor", list)
		}
		if p := mid.cs.Predecessor(); p.Addr != before.self.Addr {
			t.Fatalf("the newcomer's predecessor is %v, want %s", p, before.self.Addr)
		}
		if p := after.cs.Predecessor(); p.Addr != mid.self.Addr {
			t.Fatalf("the newcomer's successor has predecessor %v, want the newcomer", p)
		}
		return mid
	}
	mid := joinBetween(members[3], members[4], 1)
	// The joiner's best-effort notify to its predecessor is lost: the
	// closer-successor branch does the adopting.
	tn.drop = func(to string, req wire.Message) bool {
		return to == members[5].self.Addr && req.Kind() == wire.KindNotify
	}
	mid2 := joinBetween(members[5], members[6], 2)
	tn.drop = nil

	with := append(append(append(append(append([]*Kernel{}, members[:4]...), mid), members[4:6]...), mid2), members[6:]...)
	for r := 0; r < listSize; r++ { // a newcomer moves one member further back in the lists each round
		tn.round(with)
	}
	if !exact(with) {
		t.Fatalf("%d rounds after two joins between members the ring is not exact again", listSize)
	}
}

// TestJoinIsAdoptedInOneRoundTrip: when Join returns, the newcomer is its
// predecessor's successor and its successor's predecessor, at the cost of
// one Notify to each and no stabilize round. A predecessor that lost its
// own predecessor takes the newcomer as successor, never as predecessor; a
// quarantined newcomer is adopted by neither; a notifier outside (self,
// successor) and outside (predecessor, self) changes nothing; and a ring
// of one takes its first member as predecessor only: the successor waits
// for its stabilize tick.
func TestJoinIsAdoptedInOneRoundTrip(t *testing.T) {
	const n, listSize = 8, 4
	tn, members := settledRing(t, n, listSize)
	runs := func() (sum uint64) {
		for _, k := range tn.kerns {
			sum += k.stabilizeRuns.Value()
		}
		return sum
	}
	stabilized := runs()

	before, after := members[3], members[4]
	tn.calls = map[wire.Kind]int{}
	mid := tn.add(t, before.self.ID+(after.self.ID-before.self.ID)/2, listSize, members[0].self.Addr)
	if got := tn.calls[wire.KindNotify]; got != 2 {
		t.Fatalf("Join made %d Notify calls, want 2 (successor, predecessor)", got)
	}
	if got := runs(); got != stabilized {
		t.Fatalf("%d stabilize rounds ran during Join", got-stabilized)
	}
	if s := before.cs.Successor(); s.Addr != mid.self.Addr {
		t.Fatalf("after Join the member behind the newcomer has successor %v, want %s", s, mid.self.Addr)
	}
	if p := after.cs.Predecessor(); p.Addr != mid.self.Addr {
		t.Fatalf("after Join the member ahead of the newcomer has predecessor %v, want %s", p, mid.self.Addr)
	}
	if p := mid.cs.Predecessor(); p.Addr != before.self.Addr {
		t.Fatalf("the newcomer's predecessor is %v, want %s", p, before.self.Addr)
	}
	if s := mid.cs.Successor(); s.Addr != after.self.Addr {
		t.Fatalf("the newcomer's successor is %v, want %s", s, after.self.Addr)
	}

	// A predecessor that knows no predecessor of its own takes the
	// newcomer as successor only.
	before, after = members[1], members[2]
	before.cs.ClearPredecessor()
	mid = tn.add(t, before.self.ID+(after.self.ID-before.self.ID)/2, listSize, members[0].self.Addr)
	if s := before.cs.Successor(); s.Addr != mid.self.Addr {
		t.Fatalf("a member with no predecessor did not take the newcomer ahead of it as successor: %v", s)
	}
	if p := before.cs.Predecessor(); p.OK {
		t.Fatalf("a member with no predecessor took the newcomer ahead of it as predecessor: %v", p)
	}

	// A quarantined newcomer: both neighbours condemned its address.
	before, after = members[5], members[6]
	id := before.self.ID + (after.self.ID-before.self.ID)/2
	addr := fmt.Sprintf("n%x", id)
	before.PeerFailed(addr)
	after.PeerFailed(addr)
	tn.add(t, id, listSize, members[0].self.Addr)
	if s := before.cs.Successor(); s.Addr != after.self.Addr {
		t.Fatalf("a quarantined newcomer became its predecessor's successor: %v", s)
	}
	if p := after.cs.Predecessor(); p.Addr != before.self.Addr {
		t.Fatalf("a quarantined newcomer became its successor's predecessor: %v", p)
	}

	// A notifier outside both intervals: a settled member is unmoved, and
	// answers with the reply it had cached.
	k := members[0]
	st := k.getState()
	far := members[2].self.ID + (members[3].self.ID-members[2].self.ID)/2
	if got := k.onNotify(&wire.Notify{From: wire.Entry{ID: far, Addr: "far"}}); got != st {
		t.Fatalf("a notifier outside (self, successor) changed the state: %+v, was %+v", got, st)
	}

	// A ring of one.
	solo := tn.add(t, 1<<40, listSize, "")
	first := tn.add(t, 1<<41, listSize, solo.self.Addr)
	if p := solo.cs.Predecessor(); p.Addr != first.self.Addr {
		t.Fatalf("a ring of one did not take its first member as predecessor: %v", p)
	}
	if s := solo.cs.Successor(); s.Addr != solo.self.Addr {
		t.Fatalf("a ring of one adopted its first member as successor in onNotify: %v", s)
	}
	solo.stabilize()
	if s := solo.cs.Successor(); s.Addr != first.self.Addr {
		t.Fatalf("a ring of one did not adopt its first member at its tick: successor %v", s)
	}
}

// TestFixFingerAnswersFromTheList: a finger start inside the successor
// list's span is installed with no call; one beyond it is routed; both are
// the start's true successor.
func TestFixFingerAnswersFromTheList(t *testing.T) {
	const n, listSize = 16, 4
	tn, members := settledRing(t, n, listSize)
	k := members[0]
	span := chord.Dist(k.cs.Self.ID, k.cs.Successors()[listSize-1].ID)

	tn.calls = map[wire.Kind]int{}
	routed := 0
	for i := 0; i < chord.M; i++ {
		start := chord.FingerStart(k.cs.Self.ID, i)
		callsBefore := tn.calls[wire.KindFindSuccessor]
		k.fixFinger()
		want := members[0]
		for _, m := range members { // the first member at or after start
			if chord.Dist(start, chord.ID(m.self.ID)) < chord.Dist(start, chord.ID(want.self.ID)) {
				want = m
			}
		}
		if got := k.cs.Finger(i); got.Addr != want.self.Addr {
			t.Fatalf("finger %d is %v, want %s", i, got, want.self.Addr)
		}
		made := tn.calls[wire.KindFindSuccessor] - callsBefore
		if inSpan := chord.Dist(k.cs.Self.ID, start) <= span; inSpan && made != 0 {
			t.Fatalf("finger %d starts inside the successor list's span and cost %d routing calls", i, made)
		} else if !inSpan && made == 0 {
			t.Fatalf("finger %d starts beyond the successor list's span and was not routed", i)
		}
		routed += made
	}
	if routed == 0 {
		t.Fatal("no finger of this ring starts beyond the list's span: the routed case went untested")
	}
	if got := k.fingerFixes.Value(); got != chord.M {
		t.Fatalf("dco_ring_finger_fixes_total is %d after %d fixes: local fixes count too", got, chord.M)
	}
}

func TestUpkeepAllocations(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	_, members := settledRing(t, 8, 4) // every finger start lies inside four of eight evenly spaced members
	k := members[0]
	if a := testing.AllocsPerRun(2*chord.M, func() { k.fixFinger() }); a != 0 {
		t.Errorf("a locally resolved fix_fingers tick allocates %.0f times", a)
	}
	if a := testing.AllocsPerRun(100, func() { k.getState() }); a != 0 {
		t.Errorf("getState on a settled ring allocates %.0f times: the cached reply was rebuilt", a)
	}
	// A settled exchange changes neither end's state, so neither end builds
	// anything: the callee answers with its cached reply, the caller adopts
	// the list through its scratch. (Over a real transport the codec adds
	// the decoded Notify and the decoded reply with its list.)
	succ := k.cs.Successor()
	if a := testing.AllocsPerRun(100, func() { k.notifySuccessor(succ) }); a != 0 {
		t.Errorf("a settled notifySuccessor exchange allocates %.0f times, budget 0", a)
	}
	if !exact(members) {
		t.Fatal("settled exchanges changed the ring")
	}
}

// TestSharedStateIsNeverModified: the reply stateLocked caches is handed out
// to every caller, so a change of predecessor or list must build a new one
// and leave every reply already handed out as it was.
func TestSharedStateIsNeverModified(t *testing.T) {
	tn, members := settledRing(t, 8, 4)
	k := members[0]
	before := k.getState()
	want := fmt.Sprint(*before)
	if again := k.getState(); again != before {
		t.Fatal("an unchanged ring rebuilt the cached reply")
	}
	found := k.onFindSuccessor(&wire.FindSuccessor{Key: k.self.ID}).(*wire.FindSuccessorResp)
	if !found.Done || &found.Succs[0] != &before.Succs[0] {
		t.Fatalf("the owner's FindSuccessor reply does not share the cached list: %+v", found)
	}

	// A member joins right behind k: k's predecessor changes.
	last := members[len(members)-1]
	mid := tn.add(t, last.self.ID+(k.self.ID-last.self.ID)/2, 4, members[1].self.Addr)
	mid.stabilize()
	after := k.getState()
	if after == before || after.Pred.Addr != mid.self.Addr {
		t.Fatalf("after a new predecessor notified, getState returned %+v (same object: %v)", after, after == before)
	}
	if got := fmt.Sprint(*before); got != want {
		t.Fatalf("a reply already handed out changed from %s to %s", want, got)
	}

	// k's successor dies: the list changes.
	wantAfter := fmt.Sprint(*after)
	k.PeerFailed(members[1].self.Addr)
	if next := k.getState(); next == after || next.Succs[0].Addr == members[1].self.Addr {
		t.Fatalf("after the successor failed, getState returned %+v (same object: %v)", next, next == after)
	}
	if got := fmt.Sprint(*after); got != wantAfter {
		t.Fatalf("a reply already handed out changed from %s to %s", wantAfter, got)
	}
}

// scriptedCaller answers FindSuccessor from a table: next[addr] is where
// addr redirects to, "" means addr owns the key.
type scriptedCaller struct {
	next  map[string]string
	calls int
}

func (c *scriptedCaller) Call(addr string, req wire.Message) (wire.Message, error) {
	c.calls++
	to, ok := c.next[addr]
	if !ok {
		return nil, fmt.Errorf("scriptedCaller: no endpoint at %s", addr)
	}
	if to == "" {
		return &wire.FindSuccessorResp{Done: true, Owner: wire.Entry{ID: 1, Addr: addr}}, nil
	}
	return &wire.FindSuccessorResp{Owner: wire.Entry{ID: 1, Addr: to}}, nil
}

func (c *scriptedCaller) CallIdem(addr string, req wire.Message) (wire.Message, error) {
	return c.Call(addr, req)
}

// TestFindOwnerLoopFailsFast: a route that comes back to a member it has
// been through fails there, not at the 128-hop bound; a route that keeps
// making progress is left alone, however long.
func TestFindOwnerLoopFailsFast(t *testing.T) {
	chain := func(hops int) map[string]string {
		next := map[string]string{}
		for i := 0; i < hops-1; i++ {
			next[fmt.Sprint("h", i)] = fmt.Sprint("h", i+1)
		}
		next[fmt.Sprint("h", hops-1)] = ""
		return next
	}
	for _, tc := range []struct {
		name     string
		next     map[string]string
		maxCalls int
		loops    bool
	}{
		{"three-member cycle", map[string]string{"h0": "h1", "h1": "h2", "h2": "h0"}, 4, true},
		{"cycle entered after two hops", map[string]string{"h0": "h1", "h1": "h2", "h2": "h3", "h3": "h4", "h4": "h2"}, 6, true},
		{"a member that names itself", map[string]string{"h0": "h0"}, 1, true},
		{"six-hop route", chain(6), 6, false},
		{"route longer than the visited window", chain(40), 40, false},
	} {
		c := &scriptedCaller{next: tc.next}
		k := New(Config{}, dht.Options{Self: dht.Member{ID: 7, Addr: "self"}, Caller: c})
		owner, err := k.FindOwnerFrom("h0", 42)
		switch {
		case tc.loops && !errors.Is(err, dht.ErrNoRoute):
			t.Errorf("%s: err = %v, want dht.ErrNoRoute", tc.name, err)
		case !tc.loops && (err != nil || tc.next[owner.Addr] != ""):
			t.Errorf("%s: owner %v, err %v", tc.name, owner, err)
		}
		if c.calls > tc.maxCalls {
			t.Errorf("%s: %d calls, want at most %d", tc.name, c.calls, tc.maxCalls)
		}
	}
}

// TestUpkeepReportsChange pins what a round reports to the host's backoff
// (dht.Tick.Run): a settled round changes nothing; a round after a Notify
// that moved the predecessor, or one whose Ping or Notify failed, is a
// change; a fix_fingers tick is a change only when its finger moved or its
// lookup failed.
func TestUpkeepReportsChange(t *testing.T) {
	const n, listSize = 16, 4 // some finger starts lie beyond the list's span
	tn, members := settledRing(t, n, listSize)
	for _, k := range members {
		k.stabilize() // the first round has no earlier one to compare with
	}
	for i, k := range members {
		if k.stabilize() {
			t.Fatalf("a settled round of member %d reported a change", i)
		}
	}
	k := members[0]

	// A newcomer between k's predecessor and k notifies it.
	last := members[n-1]
	mid := tn.add(t, last.self.ID+(k.self.ID-last.self.ID)/2, listSize, "")
	k.onNotify(mid.notify)
	if p := k.cs.Predecessor(); p.Addr != mid.self.Addr {
		t.Fatalf("the notify did not move the predecessor: %v", p)
	}
	if !k.stabilize() {
		t.Fatal("the round after a Notify that moved the predecessor reported no change")
	}
	if k.stabilize() {
		t.Fatal("the round after that reported a change")
	}

	for _, kind := range []wire.Kind{wire.KindPing, wire.KindNotify} {
		tn.drop = func(_ string, req wire.Message) bool { return req.Kind() == kind }
		if !k.stabilize() {
			t.Fatalf("a round whose %v failed reported no change", kind)
		}
		tn.drop = nil
		if k.stabilize() {
			t.Fatalf("the clean round after a failed %v reported a change", kind)
		}
	}

	// Fingers: one pass fills the table, the next moves nothing.
	for i := 0; i < chord.M; i++ {
		k.fixFinger()
	}
	for i := 0; i < chord.M; i++ {
		if k.fixFinger() {
			t.Fatalf("refreshing settled finger %d reported a change", i)
		}
	}
	k.cs.SetFinger(0, toEntry(members[5].self)) // the cursor is back at 0
	if !k.fixFinger() {
		t.Fatal("a finger that moved reported no change")
	}
	// A finger start beyond the list's span, whose lookup fails.
	span := chord.Dist(k.cs.Self.ID, k.cs.Successors()[listSize-1].ID)
	for i := 1; chord.Dist(k.cs.Self.ID, chord.FingerStart(k.cs.Self.ID, i)) <= span; i++ {
		k.cs.NextFingerToFix()
	}
	tn.drop = func(_ string, req wire.Message) bool { return req.Kind() == wire.KindFindSuccessor }
	if !k.fixFinger() {
		t.Fatal("a finger whose lookup failed reported no change")
	}
	tn.drop = nil
}

// TestUpkeepWakes: news learned between rounds wakes both ticks — a Notify
// that moved a pointer, PeerFailed of a member in the tables, Merge and a
// Leave — and a Notify that changed nothing does not.
func TestUpkeepWakes(t *testing.T) {
	const n, listSize = 8, 4
	_, members := settledRing(t, n, listSize)
	k := members[0]
	ticks := k.Ticks()
	woken := func() bool {
		all := true
		for _, tk := range ticks {
			select {
			case <-tk.Wake:
			default:
				all = false
			}
		}
		return all
	}
	woken() // the settling rounds' news

	k.onNotify(members[n-1].notify)
	if woken() {
		t.Fatal("a Notify from the settled predecessor woke the ticks")
	}
	last := members[n-1]
	k.onNotify(&wire.Notify{From: wire.Entry{ID: last.self.ID + (k.self.ID-last.self.ID)/2, Addr: "newcomer"}})
	if !woken() {
		t.Fatal("a Notify that moved the predecessor did not wake both ticks")
	}
	for _, tc := range []struct {
		what string
		news func()
	}{
		{"PeerFailed", func() { k.PeerFailed(members[2].self.Addr) }},
		{"Merge", func() { k.Merge(members[3].self, nil) }},
		{"a Leave", func() { k.onLeave(&wire.Leave{From: members[1].self.Wire(), NewPred: k.selfWire(), PredOK: true}) }},
	} {
		tc.news()
		if !woken() {
			t.Fatalf("%s did not wake both ticks", tc.what)
		}
	}
	k.PeerFailed("never-seen")
	if woken() {
		t.Fatal("PeerFailed of a peer in no table woke the ticks")
	}
}

// TestFirstMemberRunsStabilizeNow: the first Notify into a ring of one
// raises the stabilize tick's RunNow, and the round it runs links the ring
// of two. A second notifier does not raise it, and neither does a Notify
// that moves a settled ring's predecessor.
func TestFirstMemberRunsStabilizeNow(t *testing.T) {
	const listSize = 4
	tn := &testNet{kerns: map[string]*Kernel{}, calls: map[wire.Kind]int{}}
	raised := func(k *Kernel) bool {
		select {
		case <-k.Ticks()[0].RunNow:
			return true
		default:
			return false
		}
	}
	solo := tn.add(t, 1<<40, listSize, "")
	if raised(solo) {
		t.Fatal("a fresh ring of one holds a RunNow")
	}
	first := tn.add(t, 1<<41, listSize, solo.self.Addr)
	if !raised(solo) {
		t.Fatal("the first Notify into a ring of one did not raise the RunNow")
	}
	second := tn.add(t, 1<<42, listSize, solo.self.Addr)
	if p := solo.cs.Predecessor(); p.Addr != second.self.Addr {
		t.Fatalf("the second notifier did not become the predecessor: %v", p)
	}
	if raised(solo) {
		t.Fatal("a second notifier raised the RunNow")
	}
	// The round takes the predecessor as successor, and the reply names
	// the first member, which lies between them.
	solo.stabilize()
	if s := solo.cs.Successor(); s.Addr != first.self.Addr {
		t.Fatalf("the round did not link the ring: successor %v", s)
	}
	if p := first.cs.Predecessor(); p.Addr != solo.self.Addr {
		t.Fatalf("the round did not tell the first member its predecessor: %v", p)
	}
	ring := []*Kernel{solo, first, second}
	tn.round(ring)
	if !exact(ring) {
		t.Fatal("the ring of three is not exact one round later")
	}
	for _, k := range ring {
		if raised(k) {
			t.Fatalf("%s raised a RunNow while the ring grew", k.self.Addr)
		}
	}

	_, members := settledRing(t, 8, listSize)
	k, last := members[0], members[7]
	raised(k) // member 0 was a ring of one once
	k.onNotify(&wire.Notify{From: wire.Entry{ID: last.self.ID + (k.self.ID-last.self.ID)/2, Addr: "newcomer"}})
	if p := k.cs.Predecessor(); p.Addr != "newcomer" {
		t.Fatalf("the notify did not move the settled ring's predecessor: %v", p)
	}
	if raised(k) {
		t.Fatal("a Notify to a settled ring raised the RunNow")
	}
}

// TestJoinThroughALoopTakesTheNamedOwner builds the crowd-join loop from
// constructed states: the bootstrap S knows no predecessor and forwards
// the joiner's ID to its successor B, and B, whose successor is still S,
// answers Final naming S — so the route goes back to S. A lookup fails
// there, as it must; the join takes S as its successor and B as its
// predecessor, and two stabilize rounds make the ring exact.
func TestJoinThroughALoopTakesTheNamedOwner(t *testing.T) {
	const listSize = 4
	tn := &testNet{kerns: map[string]*Kernel{}, calls: map[wire.Kind]int{}}
	b := tn.add(t, 1<<60, listSize, "")
	s := tn.add(t, 3<<60, listSize, "")
	entry := func(k *Kernel) entryT { return entryT{ID: chord.ID(k.self.ID), Addr: k.self.Addr, OK: true} }
	s.cs.SetSuccessor(entry(b))
	b.cs.SetSuccessor(entry(s))
	const joinID = 2 << 60

	probe := New(Config{}, dht.Options{Self: dht.Member{ID: 5 << 60, Addr: "probe"}, Caller: endpoint{tn, "probe"}})
	if _, err := probe.FindOwnerFrom(s.self.Addr, joinID); !errors.Is(err, dht.ErrNoRoute) {
		t.Fatalf("a lookup through the loop: err = %v, want dht.ErrNoRoute", err)
	}

	j := tn.add(t, joinID, listSize, s.self.Addr)
	if got := j.cs.Successor(); got.Addr != s.self.Addr {
		t.Fatalf("the joiner's successor is %v, want %s", got, s.self.Addr)
	}
	if got := j.cs.Predecessor(); got.Addr != b.self.Addr {
		t.Fatalf("the joiner's predecessor is %v, want %s", got, b.self.Addr)
	}
	members := []*Kernel{b, j, s}
	for r := 0; r < 2; r++ {
		tn.round(members)
	}
	if !exact(members) {
		t.Fatal("two stabilize rounds did not make the ring exact")
	}
}
