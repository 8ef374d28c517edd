package kademlia

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"dco/internal/dht"
	"dco/internal/wire"
)

// stubCaller serves KadFindNode against a shared set of stub kernels, so
// table mechanics are testable without a transport.
type stubCaller struct {
	mu    sync.Mutex
	peers map[string]*Kernel
	dead  map[string]bool
	calls map[string]int
}

func newStubCaller() *stubCaller {
	return &stubCaller{
		peers: map[string]*Kernel{},
		dead:  map[string]bool{},
		calls: map[string]int{},
	}
}

func (s *stubCaller) Call(addr string, req wire.Message) (wire.Message, error) {
	s.mu.Lock()
	s.calls[addr]++
	k, ok := s.peers[addr]
	dead := s.dead[addr]
	s.mu.Unlock()
	if !ok || dead {
		return nil, fmt.Errorf("stub: %s unreachable", addr)
	}
	if _, isPing := req.(*wire.Ping); isPing {
		return &wire.Pong{}, nil
	}
	resp, handled := k.HandleRPC("test", req)
	if !handled {
		return nil, fmt.Errorf("stub: %s does not handle %T", addr, req)
	}
	return resp, nil
}

func (s *stubCaller) CallIdem(addr string, req wire.Message) (wire.Message, error) {
	return s.Call(addr, req)
}

func member(id uint64) dht.Member {
	return dht.Member{ID: id, Addr: fmt.Sprintf("stub://%d", id)}
}

func newTestKernel(c *stubCaller, self dht.Member, cfg Config) *Kernel {
	k := New(cfg, dht.Options{Self: self, Caller: c})
	c.mu.Lock()
	c.peers[self.Addr] = k
	c.mu.Unlock()
	return k
}

func TestBucketIndex(t *testing.T) {
	c := newStubCaller()
	k := newTestKernel(c, member(0), Config{})
	cases := []struct {
		id   uint64
		want int
	}{
		{1, 0}, {2, 1}, {3, 1}, {4, 2}, {0x8000000000000000, 63},
	}
	for _, tc := range cases {
		if got := k.bucketIndex(tc.id); got != tc.want {
			t.Errorf("bucketIndex(%#x) = %d, want %d", tc.id, got, tc.want)
		}
	}
	if got := k.bucketIndex(0); got != -1 {
		t.Errorf("bucketIndex(self) = %d, want -1", got)
	}
}

func TestObserveInsertRefreshAndLRU(t *testing.T) {
	c := newStubCaller()
	k := newTestKernel(c, member(0), Config{K: 3})

	// Self and empty addresses are rejected.
	if k.Observe(dht.Member{ID: 0, Addr: "stub://0"}) {
		t.Fatal("observed self")
	}
	if k.Observe(dht.Member{ID: 9, Addr: ""}) {
		t.Fatal("observed empty address")
	}

	// IDs 4..7 share bucket 2 (distance prefix bit 2). K=3: the first
	// three insert, the fourth waits in the replacement cache.
	for id := uint64(4); id <= 6; id++ {
		if !k.Observe(member(id)) {
			t.Fatalf("insert of %d rejected", id)
		}
	}
	if k.Observe(member(7)) {
		t.Fatal("full bucket accepted a fourth contact")
	}
	k.mu.Lock()
	b := &k.buckets[2]
	head := b.contacts[0].m.ID
	repl := len(b.replace)
	k.mu.Unlock()
	if head != 4 || repl != 1 {
		t.Fatalf("head=%d replacements=%d, want head=4 replacements=1", head, repl)
	}

	// Re-observing a known contact moves it to the most-recently-seen
	// tail without counting as an insert.
	if k.Observe(member(4)) {
		t.Fatal("refresh of a known contact counted as insert")
	}
	k.mu.Lock()
	tail := b.contacts[len(b.contacts)-1].m.ID
	k.mu.Unlock()
	if tail != 4 {
		t.Fatalf("refreshed contact at tail = %d, want 4", tail)
	}
}

func TestPeerFailedPromotesReplacement(t *testing.T) {
	c := newStubCaller()
	k := newTestKernel(c, member(0), Config{K: 2})
	// Bucket 2 holds 4,5; 6 and 7 queue as replacements (newest last).
	for id := uint64(4); id <= 7; id++ {
		k.Observe(member(id))
	}
	k.PeerFailed(member(4).Addr)
	k.mu.Lock()
	var ids []uint64
	for _, ct := range k.buckets[2].contacts {
		ids = append(ids, ct.m.ID)
	}
	repl := len(k.buckets[2].replace)
	k.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// The newest replacement (7) takes the freed slot; 6 keeps waiting.
	if len(ids) != 2 || ids[0] != 5 || ids[1] != 7 {
		t.Fatalf("bucket after purge = %v, want [5 7]", ids)
	}
	if repl != 1 {
		t.Fatalf("replacements after promotion = %d, want 1", repl)
	}
	// Failing an unknown address only scrubs replacement caches.
	k.PeerFailed("stub://999")
}

func TestRekeyedAddressReplacesStaleEntry(t *testing.T) {
	c := newStubCaller()
	k := newTestKernel(c, member(0), Config{})
	m := dht.Member{ID: 4, Addr: "stub://fixed"}
	k.Observe(m)
	// Same address returns under a different ID (process restart): the
	// stale entry must vanish, not linger in the old bucket.
	k.Observe(dht.Member{ID: 0x8000000000000001, Addr: "stub://fixed"})
	k.mu.Lock()
	oldBucket := len(k.buckets[2].contacts)
	newBucket := len(k.buckets[63].contacts)
	k.mu.Unlock()
	if oldBucket != 0 || newBucket != 1 {
		t.Fatalf("after re-key: old bucket %d entries, new bucket %d, want 0 and 1", oldBucket, newBucket)
	}
}

func TestOwns(t *testing.T) {
	c := newStubCaller()
	k := newTestKernel(c, member(8), Config{})
	// Empty table: Owns claims everything.
	if !k.Owns(0x7000) {
		t.Fatal("lone node must claim every key")
	}
	k.Observe(member(0x1000))
	// Key 9: 8^9=1, 0x1000^9 is much larger -> self is closest.
	if !k.Owns(9) {
		t.Fatal("self is XOR-closest to 9 and must own it")
	}
	// Key 0x1001: contact distance 1 beats self's -> not owned.
	if k.Owns(0x1001) {
		t.Fatal("key next to a contact must not be owned")
	}
}

func TestClosestOrderingAndReplicaSet(t *testing.T) {
	c := newStubCaller()
	k := newTestKernel(c, member(0), Config{})
	for _, id := range []uint64{0x10, 0x11, 0x20, 0x40, 0x80} {
		k.Observe(member(id))
	}
	rs := k.ReplicaSet(0x12, 3)
	if len(rs) != 3 {
		t.Fatalf("ReplicaSet returned %d members, want 3", len(rs))
	}
	// XOR distance from 0x12: 0x10->2, 0x11->3, 0x20->0x32, ...
	if rs[0].ID != 0x10 || rs[1].ID != 0x11 || rs[2].ID != 0x20 {
		t.Fatalf("ReplicaSet order = %v", rs)
	}
	if got := k.ReplicaSet(0x12, 0); got != nil {
		t.Fatalf("ReplicaSet(r=0) = %v, want nil", got)
	}
	for _, m := range rs {
		if m.Addr == k.self.Addr {
			t.Fatal("ReplicaSet must never include self")
		}
	}
}

// TestHeirAndView: the heir — the contact nearest self, ReplicaSet(self,
// 1) — and the view of self plus the K nearest.
func TestHeirAndView(t *testing.T) {
	c := newStubCaller()
	k := newTestKernel(c, member(8), Config{K: 2})
	if h := k.ReplicaSet(8, 1); len(h) != 0 {
		t.Fatalf("lone node has heir %v", h)
	}
	if v := k.View(); len(v) != 1 || v[0].ID != 8 {
		t.Fatalf("lone view = %v", v)
	}
	k.Observe(member(9))  // distance 1
	k.Observe(member(12)) // distance 4
	k.Observe(member(40)) // distance 32
	if h := k.ReplicaSet(8, 1); len(h) != 1 || h[0].ID != 9 {
		t.Fatalf("heir = %v, want member 9", h)
	}
	v := k.View()
	if len(v) != 3 || v[0].ID != 8 || v[1].ID != 9 || v[2].ID != 12 {
		t.Fatalf("view = %v, want [8 9 12] (self + K nearest)", v)
	}
}

func TestIterativeLookupConverges(t *testing.T) {
	c := newStubCaller()
	// A chain of knowledge: each kernel knows only its neighbors, so the
	// lookup must iterate through strangers to reach the key's region.
	ids := []uint64{0x01, 0x10, 0x20, 0x40, 0x80, 0xF0}
	kerns := make([]*Kernel, len(ids))
	for i, id := range ids {
		kerns[i] = newTestKernel(c, member(id), Config{K: 16, Alpha: 2})
	}
	for i := range kerns {
		if i > 0 {
			kerns[i].Observe(member(ids[i-1]))
		}
		if i < len(kerns)-1 {
			kerns[i].Observe(member(ids[i+1]))
		}
	}
	r, err := kerns[0].FindOwner(0xF1)
	if err != nil {
		t.Fatalf("FindOwner: %v", err)
	}
	if r.Owner.ID != 0xF0 {
		t.Fatalf("owner = %#x, want 0xF0 (XOR-closest to 0xF1)", r.Owner.ID)
	}
	if len(r.Fallbacks) == 0 {
		t.Fatal("no fallbacks returned")
	}
	if r.Lo != 0xF0 || r.Hi != 0xF1 {
		t.Fatalf("answer reaches (%#x, %#x], want the routed key alone", r.Lo, r.Hi)
	}
	// The iterative walk verified responders along the way: the starting
	// kernel's table must now hold contacts it was never told about.
	kerns[0].mu.Lock()
	learned := len(kerns[0].addrIdx)
	kerns[0].mu.Unlock()
	if learned < 3 {
		t.Fatalf("table after lookup has %d contacts, want the walk to verify several", learned)
	}
	if l, h := kerns[0].lookups.Value(), kerns[0].lookupHops.Value(); l != 1 || h == 0 {
		t.Fatalf("after one lookup: %d lookups, %d hops", l, h)
	}
}

func TestLookupRoutesAroundFailures(t *testing.T) {
	c := newStubCaller()
	ids := []uint64{0x01, 0x80, 0x90, 0xA0}
	kerns := make([]*Kernel, len(ids))
	for i, id := range ids {
		kerns[i] = newTestKernel(c, member(id), Config{K: 16, Alpha: 2})
	}
	// Kernel 0 knows everyone; 0x90 (the key's closest) is dead.
	for _, id := range ids[1:] {
		kerns[0].Observe(member(id))
	}
	c.mu.Lock()
	c.dead[member(0x90).Addr] = true
	c.mu.Unlock()
	r, err := kerns[0].FindOwner(0x91)
	if err != nil {
		t.Fatalf("FindOwner with one dead candidate: %v", err)
	}
	if r.Owner.ID == 0x90 {
		t.Fatal("lookup returned the dead candidate as owner")
	}
	if r.Owner.ID != 0x90 && r.Owner.ID != 0xA0 && r.Owner.ID != 0x80 {
		t.Fatalf("owner = %#x, want a live near contact", r.Owner.ID)
	}
}

func TestFindOwnerFromIgnoresLocalTable(t *testing.T) {
	c := newStubCaller()
	a := newTestKernel(c, member(0x10), Config{})
	b := newTestKernel(c, member(0x80), Config{})
	_ = b
	// a's own table says a is closest to 0x11, but FindOwnerFrom must
	// route exclusively through b's network, which has never heard of a's
	// neighbors (only of a itself, once the query arrives).
	a.Observe(member(0x80))
	owner, err := a.FindOwnerFrom(member(0x80).Addr, 0x11)
	if err != nil {
		t.Fatalf("FindOwnerFrom: %v", err)
	}
	// b knows nobody, so it answers with itself only; a is not pre-seeded
	// and must not win from its own table.
	if owner.ID != 0x80 {
		t.Fatalf("owner = %#x, want 0x80 (start's network only)", owner.ID)
	}
}

func TestJoinPopulatesBothSides(t *testing.T) {
	c := newStubCaller()
	boot := newTestKernel(c, member(0x10), Config{})
	joiner := newTestKernel(c, member(0x90), Config{})
	if err := joiner.Join(boot.self.Addr); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if len(joiner.View()) == 1 {
		t.Fatal("joiner learned nobody")
	}
	boot.mu.Lock()
	knows := len(boot.addrIdx)
	boot.mu.Unlock()
	if knows != 1 {
		t.Fatalf("bootstrap learned %d contacts from the join, want 1", knows)
	}
}

func TestLeaveNotifiesNeighbors(t *testing.T) {
	c := newStubCaller()
	a := newTestKernel(c, member(0x10), Config{})
	departed := make(chan dht.Member, 1)
	bOpts := dht.Options{Self: member(0x20), Caller: c, Events: dht.Events{
		Departed: func(m dht.Member) { departed <- m },
	}}
	b := New(Config{}, bOpts)
	c.mu.Lock()
	c.peers[member(0x20).Addr] = b
	c.mu.Unlock()

	a.Observe(member(0x20))
	b.Observe(member(0x10))
	a.Leave()
	select {
	case m := <-departed:
		if m.ID != 0x10 {
			t.Fatalf("departed %v, want member 0x10", m)
		}
	case <-time.After(time.Second):
		t.Fatal("Leave never reached the neighbor")
	}
	if v := b.View(); len(v) != 1 {
		t.Fatalf("leaver still in the neighbor's table: view %v", v)
	}
}

func TestOnFindNodeFiresRangeChangedOncePerNewContact(t *testing.T) {
	c := newStubCaller()
	var mu sync.Mutex
	var changed []dht.Member
	opts := dht.Options{Self: member(0x10), Caller: c, Events: dht.Events{
		RangeChanged: func(m dht.Member) {
			mu.Lock()
			changed = append(changed, m)
			mu.Unlock()
		},
	}}
	k := New(Config{}, opts)
	req := &wire.KadFindNode{From: wire.Entry{ID: 0x20, Addr: "stub://32"}, Key: 5}
	k.HandleRPC("stub://32", req)
	k.HandleRPC("stub://32", req) // already known: no second event
	mu.Lock()
	defer mu.Unlock()
	if len(changed) != 1 || changed[0].ID != 0x20 {
		t.Fatalf("RangeChanged events = %v, want exactly one for the new contact", changed)
	}
}

func TestRefreshTickWalksBuckets(t *testing.T) {
	c := newStubCaller()
	a := newTestKernel(c, member(0x10), Config{RefreshEvery: time.Hour, ProbeEvery: time.Hour})
	// Lone node: refresh is a no-op, not a crash.
	a.refreshTick()
	b := newTestKernel(c, member(0x80), Config{})
	a.Observe(b.self)
	b.Observe(a.self)
	before := a.lookups.Value()
	for i := 0; i < 64; i++ {
		a.refreshTick()
	}
	if got := c.calls[b.self.Addr]; got == 0 {
		t.Fatal("a full refresh rotation never queried the only contact")
	}
	// Refresh lookups are maintenance: they must not count as demand
	// lookups (the dhtcompare hop distribution would be polluted).
	if a.lookups.Value() != before {
		t.Fatal("refresh counted toward dco_dht_lookups_total")
	}
	ticks := a.Ticks()
	if len(ticks) != 2 || ticks[0].Name != "refresh" || ticks[1].Name != "probe" {
		t.Fatalf("Ticks = %v", ticks)
	}
}

func TestProbeTickRevivesOrEvicts(t *testing.T) {
	c := newStubCaller()
	k := newTestKernel(c, member(0), Config{K: 1})
	live := newTestKernel(c, member(4), Config{})
	_ = live
	k.Observe(member(4)) // bucket 2 head
	k.Observe(member(5)) // replacement candidate for bucket 2
	k.probeTick()
	c.mu.Lock()
	probed := c.calls[member(4).Addr]
	c.mu.Unlock()
	if probed == 0 {
		t.Fatal("probe tick never pinged the stale head")
	}
	// The live head stays; the replacement keeps waiting.
	k.mu.Lock()
	headID := k.buckets[2].contacts[0].m.ID
	k.mu.Unlock()
	if headID != 4 {
		t.Fatalf("live head evicted: bucket head = %d", headID)
	}
}

func TestMergeFoldsForeignMembers(t *testing.T) {
	c := newStubCaller()
	a := newTestKernel(c, member(0x10), Config{})
	b := newTestKernel(c, member(0x80), Config{})
	b2 := newTestKernel(c, member(0x90), Config{})
	b.Observe(b2.self)
	b2.Observe(b.self)
	a.Merge(b.self, []dht.Member{b2.self, a.self /* self must be skipped */})
	a.mu.Lock()
	n := len(a.addrIdx)
	a.mu.Unlock()
	if n < 2 {
		t.Fatalf("merge folded %d contacts, want both foreign members", n)
	}
	// The advertising self-lookup told the foreign side about a.
	b.mu.Lock()
	knowsA := false
	if _, ok := b.addrIdx[a.self.Addr]; ok {
		knowsA = true
	}
	b.mu.Unlock()
	if !knowsA {
		t.Fatal("foreign network never learned the merging node")
	}
}
