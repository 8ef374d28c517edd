package chord

import "sort"

// BuildRing constructs fully converged States for a static membership set:
// successor lists, predecessors and finger tables all exact. The paper's
// evaluation starts from an already formed 512-node DHT; building it
// directly avoids simulating thousands of join rounds before t=0. Churn
// experiments still exercise the incremental join/leave/fail paths.
//
// Entries with duplicate IDs or addresses panic: the caller controls naming
// and collisions would corrupt ownership.
func BuildRing[A comparable](members []Entry[A], succListSize int) map[A]*State[A] {
	if len(members) == 0 {
		return map[A]*State[A]{}
	}
	sorted := make([]Entry[A], len(members))
	copy(sorted, members)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].ID == sorted[i-1].ID {
			panic("chord: duplicate ID in BuildRing")
		}
	}

	// successorOf returns the first member with ID >= k (circular).
	successorOf := func(k ID) Entry[A] {
		i := sort.Search(len(sorted), func(i int) bool { return sorted[i].ID >= k })
		if i == len(sorted) {
			i = 0
		}
		return sorted[i]
	}

	out := make(map[A]*State[A], len(sorted))
	n := len(sorted)
	// list is every node's successor-list scratch: AdoptSuccessorList
	// copies out of it.
	list := make([]Entry[A], 0, min(succListSize, n-1))
	for i, self := range sorted {
		if _, dup := out[self.Addr]; dup {
			panic("chord: duplicate address in BuildRing")
		}
		self.OK = true
		st := NewState(self, succListSize)
		// Successor list: the next succListSize members clockwise.
		list = list[:0]
		for j := 1; j <= succListSize && j < n; j++ {
			list = append(list, sorted[(i+j)%n])
		}
		if len(list) > 0 {
			st.AdoptSuccessorList(list[0], list[1:])
		}
		st.SetPredecessor(sorted[(i-1+n)%n])
		for f := 0; f < M; f++ {
			st.SetFinger(f, successorOf(FingerStart(self.ID, f)))
		}
		out[self.Addr] = st
	}
	return out
}

// CheckRing verifies global ring invariants over a set of converged states
// (used by tests and the simulator's self-checks). It returns a list of
// violations; empty means the ring is consistent.
func CheckRing[A comparable](states map[A]*State[A]) []string {
	var problems []string
	byAddr := states
	for addr, st := range byAddr {
		succ := st.Successor()
		if succ.Addr == st.Self.Addr {
			if len(byAddr) > 1 {
				problems = append(problems, "node is its own successor on a multi-node ring")
			}
			continue
		}
		ss, ok := byAddr[succ.Addr]
		if !ok {
			problems = append(problems, "successor not in membership")
			continue
		}
		pred := ss.Predecessor()
		if !pred.OK || pred.Addr != addr {
			// Not fatal during convergence, but BuildRing output must hold it.
			problems = append(problems, "successor's predecessor is not this node")
		}
	}
	return problems
}
