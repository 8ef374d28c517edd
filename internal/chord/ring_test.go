package chord

import (
	"math/rand"
	"slices"
	"testing"
)

func randomMembers(rng *rand.Rand, n int) []Entry[int] {
	used := map[ID]bool{}
	members := make([]Entry[int], n)
	for i := range members {
		id := ID(rng.Uint64())
		for used[id] {
			id = ID(rng.Uint64())
		}
		used[id] = true
		members[i] = e(id, i)
	}
	return members
}

func TestBuildRingEmptyAndSingleton(t *testing.T) {
	if got := BuildRing([]Entry[int]{}, 4); len(got) != 0 {
		t.Fatal("empty membership should build an empty map")
	}
	states := BuildRing([]Entry[int]{e(100, 1)}, 4)
	st := states[1]
	if st.Successor().Addr != 1 {
		t.Fatal("singleton ring must self-loop")
	}
	if !st.OwnsKey(0) || !st.OwnsKey(^ID(0)) {
		t.Fatal("singleton must own the whole circle")
	}
}

func TestBuildRingDuplicatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate IDs must panic")
		}
	}()
	BuildRing([]Entry[int]{e(5, 1), e(5, 2)}, 2)
}

// Property: BuildRing's ownership partitions the circle — every key has
// exactly one owner among the members.
func TestBuildRingOwnershipPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		members := randomMembers(rng, 8+rng.Intn(40))
		states := BuildRing(members, 4)
		for q := 0; q < 200; q++ {
			k := ID(rng.Uint64())
			owners := 0
			for _, st := range states {
				if st.OwnsKey(k) {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("key %v has %d owners", k, owners)
			}
		}
	}
}

// Property: successor lists wrap the ring in ID order.
func TestBuildRingSuccessorListOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	members := randomMembers(rng, 24)
	states := BuildRing(members, 6)
	for _, st := range states {
		prev := st.Self.ID
		for _, s := range st.SuccessorList() {
			// Each entry is strictly clockwise of the previous.
			if Dist(st.Self.ID, s.ID) == 0 {
				t.Fatalf("self in successor list of %v", st.Self.Addr)
			}
			if Dist(st.Self.ID, s.ID) < Dist(st.Self.ID, prev) && prev != st.Self.ID {
				t.Fatalf("successor list out of ring order at %v", st.Self.Addr)
			}
			prev = s.ID
		}
		if got := len(st.SuccessorList()); got != 6 {
			t.Fatalf("successor list length %d, want 6", got)
		}
	}
}

// Property: every finger i points at the first member at or after
// self + 2^i.
func TestBuildRingFingerCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	members := randomMembers(rng, 16)
	states := BuildRing(members, 4)
	// Brute-force owner: minimal clockwise distance from the start point.
	ownerOf := func(k ID) int {
		best, bestDist := -1, ^ID(0)
		for _, m := range members {
			d := Dist(k, m.ID)
			if best == -1 || d < bestDist {
				best, bestDist = m.Addr, d
			}
		}
		return best
	}
	for _, st := range states {
		for i := 0; i < M; i += 7 { // sample fingers
			start := FingerStart(st.Self.ID, i)
			f := st.Finger(i)
			if !f.OK {
				t.Fatalf("finger %d unset", i)
			}
			if f.Addr != ownerOf(start) {
				t.Fatalf("finger %d of %d points at %d, want %d", i, st.Self.Addr, f.Addr, ownerOf(start))
			}
		}
	}
}

func TestCheckRingDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	members := randomMembers(rng, 12)
	states := BuildRing(members, 4)
	if problems := CheckRing(states); len(problems) != 0 {
		t.Fatalf("fresh ring reported problems: %v", problems)
	}
	// Corrupt one node's predecessor and expect a complaint.
	for _, st := range states {
		st.SetPredecessor(Entry[int]{ID: st.Self.ID + 1, Addr: 999, OK: true})
		break
	}
	if problems := CheckRing(states); len(problems) == 0 {
		t.Fatal("corrupted ring passed CheckRing")
	}
}

// Property: on a converged ring LocalSuccessor answers exactly the finger
// starts the successor list spans, and answers them as a routed lookup
// would — BuildRing's finger i is the brute-force successor of start i.
func TestLocalSuccessorMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{16, 64} {
		for _, succSize := range []int{4, 8} {
			answered := 0
			for _, st := range BuildRing(randomMembers(rng, n), succSize) {
				list := st.SuccessorList()
				span := Dist(st.Self.ID, list[len(list)-1].ID)
				for i := 0; i < M; i++ {
					start := FingerStart(st.Self.ID, i)
					got, ok := st.LocalSuccessor(start)
					if inSpan := Dist(st.Self.ID, start) <= span; ok != inSpan {
						t.Fatalf("n=%d: node %d finger %d: answered=%v, start inside the list's span=%v", n, st.Self.Addr, i, ok, inSpan)
					}
					if ok {
						answered++
						if want := st.Finger(i); got != want {
							t.Fatalf("n=%d: node %d finger %d: local answer %v, successor is %v", n, st.Self.Addr, i, got, want)
						}
					}
				}
			}
			if answered < n*(M-8) {
				t.Fatalf("n=%d list=%d: only %d of %d finger starts resolved locally", n, succSize, answered, n*M)
			}
		}
	}
}

func TestLocalSuccessorRingOfOne(t *testing.T) {
	st := NewState(e(100, 1), 4)
	for i := 0; i < M; i++ {
		if got, ok := st.LocalSuccessor(FingerStart(100, i)); ok {
			t.Fatalf("a ring of one answered finger %d with %v", i, got)
		}
	}
}

// The per-round paths of ring maintenance — adopting the list the successor
// already had, reading it — must not allocate.
func TestSettledMaintenanceDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	states := BuildRing(randomMembers(rng, 16), 8)
	st := states[0]
	succ := states[st.Successor().Addr]
	list := succ.SuccessorList()
	start := FingerStart(st.Self.ID, 3)
	st.AdoptSuccessorList(succ.Self, list)
	before := st.SuccessorList()
	if a := testing.AllocsPerRun(100, func() {
		st.AdoptSuccessorList(succ.Self, list)
		st.LocalSuccessor(start)
		_ = st.Successors()
	}); a != 0 {
		t.Fatalf("a settled round allocates %.0f times", a)
	}
	if after := st.SuccessorList(); !slices.Equal(after, before) {
		t.Fatalf("re-adopting the same list changed it: %v -> %v", before, after)
	}
}
