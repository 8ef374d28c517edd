package chord

import (
	"fmt"
	"sort"
	"testing"
)

// stabilizeRound emulates one global round of Chord stabilization over pure
// states, the way internal/live's loop drives it over RPC: each node asks its
// successor for its predecessor (adopting it when closer), adopts the
// successor's list, and notifies. Deterministic node order keeps the test
// reproducible. Returns the number of pointer changes made.
func stabilizeRound(states map[int]*State[int]) int {
	addrs := make([]int, 0, len(states))
	for a := range states {
		addrs = append(addrs, a)
	}
	sort.Ints(addrs)
	changes := 0
	for _, a := range addrs {
		st := states[a]
		succ := st.Successor()
		if succ.Addr == st.Self.Addr {
			continue
		}
		ss := states[succ.Addr]
		if p := ss.Predecessor(); p.OK && p.Addr != st.Self.Addr && InOO(st.Self.ID, p.ID, succ.ID) {
			st.SetSuccessor(p)
			succ = p
			ss = states[p.Addr]
			changes++
		}
		st.AdoptSuccessorList(succ, ss.SuccessorList())
		if ss.Notify(st.Self) {
			changes++
		}
	}
	return changes
}

// isSingleRing reports whether every node's successor is its true clockwise
// neighbor by ID — the fully merged state. Note CheckRing alone cannot detect
// a split: two disjoint rings are each internally consistent.
func isSingleRing(states map[int]*State[int]) bool {
	sorted := make([]Entry[int], 0, len(states))
	for _, st := range states {
		sorted = append(sorted, st.Self)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	n := len(sorted)
	for i, self := range sorted {
		if states[self.Addr].Successor().Addr != sorted[(i+1)%n].Addr {
			return false
		}
	}
	return true
}

// findOwner emulates the live node's findOwnerFrom: iterative routing from a
// given start member toward the owner of k.
func findOwner(states map[int]*State[int], from Entry[int], k ID) Entry[int] {
	cur := from
	for i := 0; i < 4*M; i++ {
		hop, done := states[cur.Addr].NextHopUsing(k, true)
		if done {
			return hop
		}
		cur = hop
	}
	return cur
}

// mergeVia emulates the live merge protocol's core exchange: the detector
// routes its own ID through the foreign member, then detector and foreign
// owner fold each other in. The owner's side always tightens (the detector's
// ID lies in the owner's claimed range by construction), which is what seeds
// the stabilize cascade even when the raw foreign member tightens nothing
// for the detector.
func mergeVia(states map[int]*State[int], detector *State[int], foreign Entry[int]) {
	owner := findOwner(states, foreign, detector.Self.ID)
	detector.MergeCandidate(owner)
	states[owner.Addr].MergeCandidate(detector.Self)
}

// twoRings builds two disjoint converged rings whose IDs interleave on the
// circle — the worst case for a merge, since nearly every node must change
// its successor.
func twoRings(n int) (states map[int]*State[int], a, b []Entry[int]) {
	states = make(map[int]*State[int])
	for i := 0; i < n; i++ {
		a = append(a, e(ID(i)*1000+100, i))
		b = append(b, e(ID(i)*1000+600, 1000+i))
	}
	for addr, st := range BuildRing(a, 4) {
		states[addr] = st
	}
	for addr, st := range BuildRing(b, 4) {
		states[addr] = st
	}
	return states, a, b
}

func TestMergeCandidateLoneNode(t *testing.T) {
	s := NewState(e(100, 1), 4)
	if !s.MergeCandidate(e(200, 2)) {
		t.Fatal("lone node must adopt any candidate")
	}
	if s.Successor().Addr != 2 {
		t.Fatalf("successor = %v, want candidate", s.Successor())
	}
	if s.Predecessor().Addr != 2 {
		t.Fatalf("predecessor = %v, want candidate", s.Predecessor())
	}
	if s.MergeCandidate(s.Self) {
		t.Fatal("self candidate must be a no-op")
	}
}

func TestMergeCandidateOnlyTightens(t *testing.T) {
	s := NewState(e(100, 1), 4)
	s.SetSuccessor(e(200, 2))
	s.SetPredecessor(e(50, 3))
	// 300 is farther than the current successor 200: neither pointer moves.
	if s.MergeCandidate(e(300, 4)) {
		t.Fatal("farther candidate must not change pointers")
	}
	// 150 tightens (100, 200).
	if !s.MergeCandidate(e(150, 5)) {
		t.Fatal("closer candidate must be adopted as successor")
	}
	if s.Successor().Addr != 5 {
		t.Fatalf("successor = %v, want addr 5", s.Successor())
	}
	// Re-applying the same candidate is a fixpoint: no oscillation.
	if s.MergeCandidate(e(150, 5)) {
		t.Fatal("re-applying an adopted candidate must be a no-op")
	}
}

// TestTightenSuccessor: only a member inside (self, successor) is adopted,
// the predecessor is never touched, and a ring of one takes no successor.
func TestTightenSuccessor(t *testing.T) {
	s := NewState(e(100, 1), 4)
	if s.TightenSuccessor(e(200, 2)) || s.Successor().Addr != 1 {
		t.Fatalf("a ring of one must keep itself as successor, got %v", s.Successor())
	}
	s.SetSuccessor(e(200, 2))
	if s.TightenSuccessor(e(300, 3)) || s.TightenSuccessor(e(200, 2)) || s.TightenSuccessor(s.Self) {
		t.Fatal("a candidate outside (self, successor) must be a no-op")
	}
	if !s.TightenSuccessor(e(150, 4)) || s.Successor().Addr != 4 {
		t.Fatalf("successor = %v, want the closer candidate", s.Successor())
	}
	if s.Predecessor().OK {
		t.Fatalf("predecessor = %v, want none", s.Predecessor())
	}
}

func TestTwoRingsMergeViaSingleDetector(t *testing.T) {
	states, a, b := twoRings(8)
	// One detector in ring A learns of one member of ring B.
	mergeVia(states, states[a[0].Addr], b[3])
	waitMerge(t, states)
}

func TestTwoRingsMergeWithSimultaneousDetectors(t *testing.T) {
	// Both halves detect the split in the same instant and merge toward each
	// other — the tie-break case. Monotone adoption must converge without
	// oscillating even when the cross-links point in "opposite" directions.
	states, a, b := twoRings(8)
	mergeVia(states, states[a[2].Addr], b[6])
	mergeVia(states, states[b[1].Addr], a[5])
	waitMerge(t, states)
}

func TestTwoRingsMergeEveryDetectorPair(t *testing.T) {
	// Exhaustively: any pair of simultaneous cross-detections (one per half)
	// must converge. Catches positional livelocks a single sample could miss.
	const n = 4
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			t.Run(fmt.Sprintf("a%d-b%d", i, j), func(t *testing.T) {
				states, a, b := twoRings(n)
				mergeVia(states, states[a[i].Addr], b[j])
				mergeVia(states, states[b[j].Addr], a[i])
				waitMerge(t, states)
			})
		}
	}
}

// waitMerge runs stabilization rounds until the union forms one clockwise
// ring, bounding the rounds, then asserts quiescence (no further pointer
// changes — the no-livelock guarantee).
func waitMerge(t *testing.T, states map[int]*State[int]) {
	t.Helper()
	maxRounds := 4 * len(states)
	for r := 0; r < maxRounds; r++ {
		stabilizeRound(states)
		if isSingleRing(states) {
			if probs := CheckRing(states); len(probs) != 0 {
				// Predecessors may trail the successors by one round.
				stabilizeRound(states)
				if probs = CheckRing(states); len(probs) != 0 {
					t.Fatalf("merged ring violates invariants: %v", probs)
				}
			}
			if c := stabilizeRound(states); c != 0 {
				t.Fatalf("ring oscillated after convergence: %d changes in quiescent round", c)
			}
			return
		}
	}
	t.Fatalf("rings did not merge within %d stabilization rounds", maxRounds)
}
