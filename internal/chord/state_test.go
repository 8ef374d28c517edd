package chord

import (
	"math/rand"
	"testing"
)

func e(id ID, addr int) Entry[int] { return Entry[int]{ID: id, Addr: addr, OK: true} }

func TestNewStateSingleton(t *testing.T) {
	s := NewState(e(100, 1), 4)
	if got := s.Successor(); got.Addr != 1 {
		t.Fatalf("lone node's successor = %v, want itself", got)
	}
	if !s.OwnsKey(0) || !s.OwnsKey(^ID(0)) {
		t.Fatal("lone node must own the whole circle")
	}
	hop, done := s.NextHop(12345)
	if !done || hop.Addr != 1 {
		t.Fatalf("lone node routes to itself, got %v done=%v", hop, done)
	}
}

func TestNotifyAdoptsCloserPredecessor(t *testing.T) {
	s := NewState(e(100, 1), 4)
	if !s.Notify(e(40, 2)) {
		t.Fatal("first notify should adopt")
	}
	if !s.Notify(e(90, 3)) {
		t.Fatal("closer candidate (90 in (40,100)) should be adopted")
	}
	if s.Notify(e(20, 4)) {
		t.Fatal("farther candidate (20 not in (90,100)) must be rejected")
	}
	if s.Notify(s.Self) {
		t.Fatal("self-notify must be ignored")
	}
	if p := s.Predecessor(); p.Addr != 3 {
		t.Fatalf("predecessor = %v, want node 3", p)
	}
}

func TestOwnsKeyWithPredecessor(t *testing.T) {
	s := NewState(e(100, 1), 4)
	s.SetPredecessor(e(50, 2))
	for _, c := range []struct {
		k    ID
		want bool
	}{{51, true}, {100, true}, {50, false}, {101, false}, {0, false}} {
		if got := s.OwnsKey(c.k); got != c.want {
			t.Errorf("OwnsKey(%d) = %v, want %v", c.k, got, c.want)
		}
	}
}

func TestSetSuccessorDedupes(t *testing.T) {
	s := NewState(e(100, 1), 3)
	s.SetSuccessor(e(200, 2))
	s.SetSuccessor(e(150, 3))
	s.SetSuccessor(e(150, 3)) // duplicate: no-op
	list := s.SuccessorList()
	if len(list) != 2 || list[0].Addr != 3 || list[1].Addr != 2 {
		t.Fatalf("successor list = %v", list)
	}
}

func TestAdoptSuccessorListTruncates(t *testing.T) {
	s := NewState(e(0, 1), 3)
	s.AdoptSuccessorList(e(10, 2), []Entry[int]{e(20, 3), e(30, 4), e(40, 5), e(50, 6)})
	list := s.SuccessorList()
	if len(list) != 3 {
		t.Fatalf("list should be capped at 3, got %d", len(list))
	}
	if list[0].Addr != 2 || list[1].Addr != 3 || list[2].Addr != 4 {
		t.Fatalf("unexpected list %v", list)
	}
}

func TestAdoptSuccessorListSkipsSelf(t *testing.T) {
	s := NewState(e(0, 1), 3)
	s.AdoptSuccessorList(e(10, 2), []Entry[int]{e(0, 1), e(30, 4)})
	for i, en := range s.SuccessorList() {
		if i > 0 && en.Addr == 1 {
			t.Fatalf("self leaked into successor list: %v", s.SuccessorList())
		}
	}
}

func TestRemoveFailed(t *testing.T) {
	s := NewState(e(0, 1), 3)
	s.AdoptSuccessorList(e(10, 2), []Entry[int]{e(20, 3), e(30, 4)})
	s.SetPredecessor(e(90, 4))
	s.SetFinger(5, e(10, 2))

	if changed := s.RemoveFailed(2); !changed {
		t.Fatal("removing the immediate successor must report a change")
	}
	if got := s.Successor(); got.Addr != 3 {
		t.Fatalf("successor after removal = %v, want node 3", got)
	}
	if f := s.Finger(5); f.OK {
		t.Fatal("finger pointing at the failed node must be cleared")
	}
	if changed := s.RemoveFailed(4); changed {
		t.Fatal("removing a non-successor must not report a successor change")
	}
	if s.Predecessor().OK {
		t.Fatal("failed predecessor must be cleared")
	}
	// Removing everything leaves the node pointing at itself.
	s.RemoveFailed(3)
	if got := s.Successor(); got.Addr != 1 {
		t.Fatalf("empty list should fall back to self, got %v", got)
	}
}

func TestNextHopForwardsToCloserNode(t *testing.T) {
	s := NewState(e(0, 1), 2)
	s.SetPredecessor(e(900, 9))
	s.AdoptSuccessorList(e(100, 2), []Entry[int]{e(200, 3)})
	s.SetFinger(9, e(512, 4)) // long-range finger

	// Key owned by us.
	if hop, done := s.NextHop(950); !done || hop.Addr != 1 {
		t.Fatalf("key in (pred,self] must terminate here, got %v %v", hop, done)
	}
	// Key owned by the successor.
	if hop, done := s.NextHop(50); !done || hop.Addr != 2 {
		t.Fatalf("key in (self,succ] must route to successor, got %v %v", hop, done)
	}
	// Distant key: with fingers, the long finger wins.
	if hop, done := s.NextHop(600); done || hop.Addr != 4 {
		t.Fatalf("distant key should use finger, got %v done=%v", hop, done)
	}
	// Without fingers, the farthest successor-list entry preceding the key.
	if hop, done := s.NextHopUsing(600, false); done || hop.Addr != 3 {
		t.Fatalf("succ-list routing should pick node 3, got %v done=%v", hop, done)
	}
}

func TestNeighborsDistinct(t *testing.T) {
	s := NewState(e(0, 1), 4)
	s.AdoptSuccessorList(e(10, 2), []Entry[int]{e(20, 3)})
	s.SetPredecessor(e(90, 4))
	s.SetFinger(3, e(10, 2)) // duplicate of successor
	s.SetFinger(7, e(50, 5))
	n := s.Neighbors()
	seen := map[int]bool{}
	for _, en := range n {
		if seen[en.Addr] || en.Addr == 1 {
			t.Fatalf("neighbors not distinct or contains self: %v", n)
		}
		seen[en.Addr] = true
	}
	if len(n) != 4 {
		t.Fatalf("expected 4 distinct neighbors, got %v", n)
	}
}

// Property: greedy succ-list-only routing on a converged ring always makes
// clockwise progress and terminates at the key's true owner.
func TestRingRoutingTerminatesAtOwner(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 16 + rng.Intn(64)
		members := make([]Entry[int], n)
		used := map[ID]bool{}
		for i := range members {
			id := ID(rng.Uint64())
			for used[id] {
				id = ID(rng.Uint64())
			}
			used[id] = true
			members[i] = e(id, i)
		}
		states := BuildRing(members, 8)
		if problems := CheckRing(states); len(problems) > 0 {
			t.Fatalf("BuildRing inconsistent: %v", problems)
		}

		// The true owner of k is the member with the first ID >= k.
		owner := func(k ID) int {
			best, bestDist := -1, ^ID(0)
			for _, m := range members {
				d := Dist(k, m.ID)
				if best == -1 || d < bestDist {
					best, bestDist = m.Addr, d
				}
			}
			return best
		}

		for q := 0; q < 50; q++ {
			k := ID(rng.Uint64())
			cur := members[rng.Intn(n)].Addr
			hops := 0
			for {
				if hops > 2*n {
					t.Fatalf("routing for key %v did not terminate", k)
				}
				st := states[cur]
				hop, done := st.NextHopUsing(k, false)
				if done && hop.Addr == cur {
					break
				}
				cur = hop.Addr
				hops++
				if done {
					// hop owns the key; one more iteration confirms.
					continue
				}
			}
			if want := owner(k); cur != want {
				t.Fatalf("key %v routed to %d, true owner %d", k, cur, want)
			}
		}
	}
}

// Property: with finger tables, routing hop counts stay O(log n).
func TestFingerRoutingLogHops(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 512
	members := make([]Entry[int], n)
	used := map[ID]bool{}
	for i := range members {
		id := ID(rng.Uint64())
		for used[id] {
			id = ID(rng.Uint64())
		}
		used[id] = true
		members[i] = e(id, i)
	}
	states := BuildRing(members, 8)
	maxHops := 0
	for q := 0; q < 500; q++ {
		k := ID(rng.Uint64())
		cur := members[rng.Intn(n)].Addr
		hops := 0
		for {
			st := states[cur]
			hop, done := st.NextHop(k)
			if done && hop.Addr == cur {
				break
			}
			cur = hop.Addr
			hops++
			if hops > 64 {
				t.Fatalf("excessive hops for key %v", k)
			}
		}
		if hops > maxHops {
			maxHops = hops
		}
	}
	// log2(512) = 9; allow slack for the tail of the distribution.
	if maxHops > 16 {
		t.Fatalf("max hops %d exceeds O(log n) expectation for n=512", maxHops)
	}
}

func TestNextFingerToFixCycles(t *testing.T) {
	s := NewState(e(0, 1), 2)
	seen := map[int]bool{}
	for i := 0; i < M; i++ {
		idx, start := s.NextFingerToFix()
		if seen[idx] {
			t.Fatalf("finger index %d repeated before a full cycle", idx)
		}
		seen[idx] = true
		if start != FingerStart(0, idx) {
			t.Fatalf("wrong start for finger %d", idx)
		}
	}
	if idx, _ := s.NextFingerToFix(); idx != 0 {
		t.Fatalf("cursor should wrap to 0, got %d", idx)
	}
}

// stabilizeOnce runs one Chord stabilize round for s against the (shared,
// in-memory) states map: check the successor's predecessor, adopt it if it
// sits between, merge the successor list, then notify.
func stabilizeOnce(s *State[int], states map[int]*State[int]) {
	succ := s.Successor()
	if succ.Addr == s.Self.Addr {
		return
	}
	peer := states[succ.Addr]
	if x := peer.Predecessor(); x.OK && x.Addr != s.Self.Addr && InOO(s.Self.ID, x.ID, succ.ID) {
		s.SetSuccessor(x)
		succ = x
		peer = states[succ.Addr]
	}
	s.AdoptSuccessorList(succ, peer.SuccessorList())
	peer.Notify(s.Self)
}

// TestConcurrentJoinsConvergeAndPartitionKeys: two nodes join between the
// SAME pair of a converged two-node ring — the worst case for ownership
// transfer, because each joiner initially believes the old owner is its
// direct successor and neither knows about the other. Whatever order
// stabilization interleaves in, the ring must converge to the sorted order
// and key ownership must end exclusive and complete (every key owned by
// exactly one node: the index-takeover invariant the live replication
// layer leans on).
func TestConcurrentJoinsConvergeAndPartitionKeys(t *testing.T) {
	orders := map[string][]int{
		"first-joiner-first": {3, 4, 1, 2},
		"last-joiner-first":  {4, 3, 2, 1},
	}
	for name, order := range orders {
		t.Run(name, func(t *testing.T) {
			// Converged pair: A=10 (addr 1), B=100 (addr 2).
			a := NewState(e(10, 1), 4)
			b := NewState(e(100, 2), 4)
			a.SetSuccessor(b.Self)
			b.SetSuccessor(a.Self)
			a.SetPredecessor(b.Self)
			b.SetPredecessor(a.Self)

			// C=40 (addr 3) and D=70 (addr 4) both join between A and B: a
			// joiner's find_successor(self) resolves to B in both cases, and a
			// joiner starts with no predecessor.
			c := NewState(e(40, 3), 4)
			d := NewState(e(70, 4), 4)
			c.SetSuccessor(b.Self)
			d.SetSuccessor(b.Self)

			states := map[int]*State[int]{1: a, 2: b, 3: c, 4: d}
			for round := 0; round < 8; round++ {
				for _, addr := range order {
					stabilizeOnce(states[addr], states)
				}
			}

			// Sorted ring: A(10) -> C(40) -> D(70) -> B(100) -> A.
			wantSucc := map[int]int{1: 3, 3: 4, 4: 2, 2: 1}
			wantPred := map[int]int{3: 1, 4: 3, 2: 4, 1: 2}
			for addr, s := range states {
				if got := s.Successor().Addr; got != wantSucc[addr] {
					t.Fatalf("node %d successor = %d, want %d", addr, got, wantSucc[addr])
				}
				if p := s.Predecessor(); !p.OK || p.Addr != wantPred[addr] {
					t.Fatalf("node %d predecessor = %v, want %d", addr, p, wantPred[addr])
				}
			}

			// Ownership is exclusive and complete over the whole circle,
			// sampled densely around the member IDs and at the extremes.
			keys := []ID{0, 5, 10, 11, 39, 40, 41, 69, 70, 71, 99, 100, 101, 1 << 40, ^ID(0)}
			for _, k := range keys {
				owners := 0
				for _, s := range states {
					if s.OwnsKey(k) {
						owners++
					}
				}
				if owners != 1 {
					t.Errorf("key %d owned by %d nodes, want exactly 1", k, owners)
				}
			}

			// Successor lists absorbed the joiners: B's list must route around
			// the full ring, so a takeover walk from any node finds live heirs.
			list := a.SuccessorList()
			if len(list) < 3 || list[0].Addr != 3 || list[1].Addr != 4 || list[2].Addr != 2 {
				t.Fatalf("A's successor list %v did not absorb both joiners", list)
			}
		})
	}
}

// closestPrecedingInOO is closest_preceding_node as first written: every
// candidate is tested with InOO against self and against the best so far.
// TestClosestPrecedingMatchesInOO holds the distance form to it.
func closestPrecedingInOO(s *State[int], k ID, useFingers bool) Entry[int] {
	best := Entry[int]{}
	consider := func(e Entry[int]) {
		if !e.OK || e.Addr == s.Self.Addr {
			return
		}
		if !InOO(s.Self.ID, e.ID, k) {
			return
		}
		if !best.OK || InOO(best.ID, e.ID, k) {
			best = e
		}
	}
	if useFingers {
		for i := M - 1; i >= 0; i-- {
			consider(s.finger[i])
		}
	}
	for _, e := range s.succ {
		consider(e)
	}
	if best.OK {
		return best
	}
	return s.Successor()
}

// TestClosestPrecedingMatchesInOO compares the two forms over random
// states built to reach the edge cases: IDs that wrap past zero, k == self,
// fingers out of ring order (stale), duplicate IDs under different
// addresses, unset entries (some with a leftover ID) and entries carrying
// self's address.
func TestClosestPrecedingMatchesInOO(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	const selfAddr = 0
	for trial := 0; trial < 20000; trial++ {
		self := ID(rng.Uint64())
		if trial%4 == 0 {
			self = ^ID(0) - ID(rng.Intn(3)) // near the top, so candidates wrap
		}
		k := ID(rng.Uint64())
		switch trial % 5 {
		case 0:
			k = self
		case 1:
			k = self + ID(rng.Intn(3)) // an empty or one-point interval
		case 2:
			k = self + ID(rng.Intn(64)) - 32
		}
		// A small pool of IDs near self, near k and at the circle's ends
		// makes duplicates and boundary hits common.
		pool := []ID{self, self + 1, self - 1, k, k - 1, k + 1, 0, ^ID(0), ID(rng.Uint64()), ID(rng.Uint64())}
		draw := func() Entry[int] {
			id := pool[rng.Intn(len(pool))]
			if rng.Intn(3) == 0 {
				id = ID(rng.Uint64())
			}
			en := Entry[int]{ID: id, Addr: rng.Intn(8), OK: rng.Intn(6) != 0}
			if rng.Intn(8) == 0 {
				en = Entry[int]{} // never set
			}
			return en
		}
		s := NewState(e(self, selfAddr), 8)
		s.succ = s.succ[:0]
		for n := 1 + rng.Intn(8); n > 0; n-- {
			s.succ = append(s.succ, draw())
		}
		for i := range s.finger {
			if rng.Intn(3) != 0 {
				s.finger[i] = draw()
			}
		}
		for _, useFingers := range []bool{false, true} {
			got, want := s.closestPreceding(k, useFingers), closestPrecedingInOO(s, k, useFingers)
			if got != want {
				t.Fatalf("trial %d: self %v k %v fingers=%v: got %+v, want %+v\nsucc %+v\nfingers %+v",
					trial, self, k, useFingers, got, want, s.succ, s.finger)
			}
		}
	}
}

// nextHopSink keeps BenchmarkNextHop's calls from being optimised away.
var nextHopSink Entry[int]

// BenchmarkNextHop routes random keys from one member of a settled
// 512-member ring, fingers included: mostly closest_preceding_node.
func BenchmarkNextHop(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	states := BuildRing(randomMembers(rng, 512), 32)
	st := states[0]
	keys := make([]ID, 1024)
	for i := range keys {
		keys[i] = ID(rng.Uint64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nextHopSink, _ = st.NextHop(keys[i&(len(keys)-1)])
	}
}
