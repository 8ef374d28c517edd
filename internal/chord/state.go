package chord

import "fmt"

// Entry names a remote node: its ring ID plus a transport address of
// caller-chosen type A (a simnet.NodeID in simulation, a TCP address in the
// live node).
type Entry[A comparable] struct {
	ID   ID
	Addr A
	OK   bool // false = no entry
}

// State is one node's view of the Chord ring. All methods are pure
// manipulations of local state; the caller performs the RPCs that feed them.
// State is not safe for concurrent use; wrap it in a mutex when the
// transport is concurrent (internal/live does).
type State[A comparable] struct {
	Self Entry[A]

	pred     Entry[A]
	succ     []Entry[A] // successor list, invariant: len <= succSize, [0] is the successor
	succSize int
	finger   [M]Entry[A]
	nextFix  int

	// Maintenance counters (pure, guarded by the caller's lock like the
	// rest of the state): how often the immediate successor changed and
	// how many failed peers were purged. The live node's telemetry layer
	// exposes them; the simulator ignores them.
	succChanges     uint64
	failuresRemoved uint64
}

// MaintenanceStats reports how many times the immediate successor changed
// and how many failed-peer purges removed at least one table entry, since
// the state was created.
func (s *State[A]) MaintenanceStats() (succChanges, failuresRemoved uint64) {
	return s.succChanges, s.failuresRemoved
}

// NewState creates the state for a node with the given identity.
// succListSize is the length of the successor list (the paper's evaluation
// treats it as the node's neighbor set, varying it from 8 to 64).
func NewState[A comparable](self Entry[A], succListSize int) *State[A] {
	if succListSize < 1 {
		panic("chord: successor list size must be >= 1")
	}
	s := &State[A]{Self: self, succSize: succListSize}
	// A lone node is its own successor: the ring of one.
	s.succ = []Entry[A]{self}
	return s
}

// Successor returns the immediate successor (self on a one-node ring).
func (s *State[A]) Successor() Entry[A] { return s.succ[0] }

// SuccessorList returns a copy of the successor list.
func (s *State[A]) SuccessorList() []Entry[A] {
	out := make([]Entry[A], len(s.succ))
	copy(out, s.succ)
	return out
}

// Successors returns the successor list itself, for reading in place under
// whatever lock guards the state: the slice is only valid until the next
// call that changes the state, and must not be modified.
func (s *State[A]) Successors() []Entry[A] { return s.succ }

// Predecessor returns the predecessor entry (OK=false if unknown).
func (s *State[A]) Predecessor() Entry[A] { return s.pred }

// SetPredecessor overwrites the predecessor (used on explicit notifications
// such as a graceful leave).
func (s *State[A]) SetPredecessor(e Entry[A]) { s.pred = e }

// ClearPredecessor forgets the predecessor (e.g. after it fails).
func (s *State[A]) ClearPredecessor() { s.pred = Entry[A]{} }

// SetSuccessor replaces the head of the successor list (join/repair).
func (s *State[A]) SetSuccessor(e Entry[A]) {
	if !e.OK {
		panic("chord: SetSuccessor with empty entry")
	}
	if len(s.succ) == 0 {
		s.succ = []Entry[A]{e}
		return
	}
	if s.succ[0].ID == e.ID && s.succ[0].Addr == e.Addr {
		return
	}
	s.succChanges++
	s.succ = append(s.succ, e) // room for one more; then shift up, in place
	copy(s.succ[1:], s.succ)
	s.succ[0] = e
	s.dedupeSucc()
}

// AdoptSuccessorList installs succ's own successor list after a stabilize
// round: our list becomes [succ, succ.list...] truncated to capacity. It is
// built in the held list's own array — a round that changes nothing
// allocates nothing — so list must not be a view of this state's list
// (Successors); a copy (SuccessorList) or another node's list is fine.
func (s *State[A]) AdoptSuccessorList(succ Entry[A], list []Entry[A]) {
	oldHead := s.Successor().Addr
	merged := s.succ[:0]
	if cap(merged) < s.succSize {
		merged = make([]Entry[A], 0, s.succSize)
	}
	merged = append(merged, succ)
	for _, e := range list {
		if len(merged) >= s.succSize {
			break
		}
		merged = append(merged, e)
	}
	s.succ = merged
	s.dedupeSucc()
	if len(s.succ) > 0 && s.Successor().Addr != oldHead {
		s.succChanges++
	}
}

func (s *State[A]) dedupeSucc() {
	out := s.succ[:0]
	for _, e := range s.succ {
		// out holds every address kept so far, and the list is short.
		if !e.OK || hasAddr(out, e.Addr) {
			continue
		}
		// Never list ourselves behind other nodes; self only belongs on a
		// one-node ring.
		if e.Addr == s.Self.Addr && len(out) > 0 {
			continue
		}
		out = append(out, e)
		if len(out) >= s.succSize {
			break
		}
	}
	if len(out) == 0 {
		out = append(out, s.Self)
	}
	s.succ = out
}

func hasAddr[A comparable](es []Entry[A], addr A) bool {
	for _, e := range es {
		if e.Addr == addr {
			return true
		}
	}
	return false
}

// Notify implements Chord's notify rule: candidate thinks it might be our
// predecessor. Adopt it if we have none or it falls in (pred, self). It
// returns true if the predecessor changed.
func (s *State[A]) Notify(candidate Entry[A]) bool {
	if !candidate.OK || candidate.Addr == s.Self.Addr {
		return false
	}
	if !s.pred.OK || InOO(s.pred.ID, candidate.ID, s.Self.ID) {
		s.pred = candidate
		return true
	}
	return false
}

// MergeCandidate folds a member discovered outside normal stabilization —
// census probes, ring-merge traffic — into this node's view. It applies only
// the two monotone Chord repairs: adopt the candidate as successor when it
// tightens (self, successor), and as predecessor under the standard Notify
// rule. Monotonicity is what makes concurrent merges safe: both operations
// only ever shrink their interval toward self, so two detectors merging two
// halves simultaneously can race but never oscillate — repeated application
// reaches a fixpoint. A candidate that tightens nothing is a no-op here
// (the caller's member cache remembers it). On a ring of one, any candidate
// becomes the successor: this is the lone-node re-bootstrap step.
// Returns true if the successor or predecessor changed.
func (s *State[A]) MergeCandidate(e Entry[A]) bool {
	if !e.OK || e.Addr == s.Self.Addr {
		return false
	}
	changed := false
	if s.Successor().Addr == s.Self.Addr {
		s.SetSuccessor(e)
		changed = true
	} else if s.TightenSuccessor(e) {
		changed = true
	}
	if s.Notify(e) {
		changed = true
	}
	return changed
}

// TightenSuccessor adopts e as successor when it lies inside
// (self, successor) on a ring of more than one: the repair only ever moves
// the pointer closer. A ring of one is left alone — whether a lone node
// takes its first member as successor is the caller's decision. Returns
// true if the successor changed.
func (s *State[A]) TightenSuccessor(e Entry[A]) bool {
	if !e.OK || e.Addr == s.Self.Addr {
		return false
	}
	succ := s.Successor()
	if succ.Addr == s.Self.Addr || !InOO(s.Self.ID, e.ID, succ.ID) {
		return false
	}
	s.SetSuccessor(e)
	return true
}

// OwnsKey reports whether this node is the owner (the paper's "owner of the
// ID"): the key lies in (predecessor, self]. With no known predecessor a
// node conservatively claims the key; stabilization corrects transients.
func (s *State[A]) OwnsKey(k ID) bool {
	if !s.pred.OK {
		return true
	}
	return InOC(s.pred.ID, k, s.Self.ID)
}

// NextHop decides the next routing step for key k:
//
//   - done=true, hop=self: this node owns k.
//   - done=true, hop=successor: k lies between self and successor, so the
//     successor owns it (Chord's find_successor base case).
//   - done=false: forward the query to hop (closest preceding node).
func (s *State[A]) NextHop(k ID) (hop Entry[A], done bool) {
	return s.NextHopUsing(k, true)
}

// NextHopUsing is NextHop with finger use selectable. The paper's
// evaluation treats a node's successor list as its whole neighbor set
// (§IV: "we regard the neighbors in a node's successor list in DCO as the
// node's neighbors"), so the simulated experiments route with
// useFingers=false; the live node routes with fingers for log n hops.
func (s *State[A]) NextHopUsing(k ID, useFingers bool) (hop Entry[A], done bool) {
	if s.OwnsKey(k) && s.pred.OK {
		return s.Self, true
	}
	succ := s.Successor()
	if succ.Addr == s.Self.Addr { // ring of one
		return s.Self, true
	}
	if InOC(s.Self.ID, k, succ.ID) {
		return succ, true
	}
	return s.closestPreceding(k, useFingers), false
}

// LocalSuccessor answers successor(k) from the successor list alone, when
// the list reaches that far: walking clockwise from self, the first entry e
// with k in (previous entry, e] owns k, by the same argument as NextHop's
// base case one link further on. false means k lies beyond the list's
// span (or the ring is a ring of one) and has to be routed. fix_fingers
// uses it: a finger whose start the list already covers needs no RPC.
func (s *State[A]) LocalSuccessor(k ID) (Entry[A], bool) {
	prev := s.Self
	for _, e := range s.succ {
		if e.Addr == s.Self.Addr {
			break
		}
		if InOC(prev.ID, k, e.ID) {
			return e, true
		}
		prev = e
	}
	return Entry[A]{}, false
}

// closestPreceding returns the finger (when useFingers) or successor-list
// entry whose ID most closely precedes k, falling back to the immediate
// successor. This is Chord's closest_preceding_node, in clockwise distance
// from self: a candidate lies at 0 < e.ID-self < k-self (k == self spans
// the whole circle), and the one farthest along wins, the first seen on a
// tie. Subtracting one from both sides turns that into a single unsigned
// compare: k == self wraps span to the largest ID.
func (s *State[A]) closestPreceding(k ID, useFingers bool) Entry[A] {
	self := s.Self.ID
	span := k - self - 1
	var best Entry[A]
	var bestOff ID
	if useFingers {
		for i := M - 1; i >= 0; i-- {
			e := &s.finger[i]
			if off := e.ID - self - 1; e.OK && off < span && (!best.OK || off > bestOff) && e.Addr != s.Self.Addr {
				best, bestOff = *e, off
			}
		}
	}
	for i := range s.succ {
		e := &s.succ[i]
		if off := e.ID - self - 1; e.OK && off < span && (!best.OK || off > bestOff) && e.Addr != s.Self.Addr {
			best, bestOff = *e, off
		}
	}
	if best.OK {
		return best
	}
	return s.Successor()
}

// Finger returns finger i (OK=false when unset).
func (s *State[A]) Finger(i int) Entry[A] { return s.finger[i] }

// SetFinger installs finger i.
func (s *State[A]) SetFinger(i int, e Entry[A]) {
	if i < 0 || i >= M {
		panic(fmt.Sprintf("chord: finger index %d out of range", i))
	}
	s.finger[i] = e
}

// NextFingerToFix returns the index and ring origin of the next finger the
// periodic fix_fingers step should refresh, advancing the cursor.
func (s *State[A]) NextFingerToFix() (i int, start ID) {
	i = s.nextFix
	s.nextFix = (s.nextFix + 1) % M
	return i, FingerStart(s.Self.ID, i)
}

// RemoveFailed purges a dead node from every table. Returns true if the
// immediate successor changed (the caller should then re-stabilize).
func (s *State[A]) RemoveFailed(addr A) bool {
	oldSucc := s.Successor().Addr
	removed := false
	if s.pred.OK && s.pred.Addr == addr {
		s.pred = Entry[A]{}
		removed = true
	}
	out := s.succ[:0]
	for _, e := range s.succ {
		if e.Addr != addr {
			out = append(out, e)
		} else {
			removed = true
		}
	}
	s.succ = out
	if len(s.succ) == 0 {
		s.succ = []Entry[A]{s.Self}
	}
	for i := range s.finger {
		if s.finger[i].OK && s.finger[i].Addr == addr {
			s.finger[i] = Entry[A]{}
			removed = true
		}
	}
	if removed {
		s.failuresRemoved++
	}
	changed := s.Successor().Addr != oldSucc
	if changed {
		s.succChanges++
	}
	return changed
}

// Neighbors returns the distinct nodes this state knows about (successor
// list + fingers + predecessor), excluding self. In the paper's evaluation
// the successor-list members count as the node's "neighbors".
func (s *State[A]) Neighbors() []Entry[A] {
	seen := map[A]bool{s.Self.Addr: true}
	var out []Entry[A]
	add := func(e Entry[A]) {
		if e.OK && !seen[e.Addr] {
			seen[e.Addr] = true
			out = append(out, e)
		}
	}
	for _, e := range s.succ {
		add(e)
	}
	add(s.pred)
	for i := range s.finger {
		add(s.finger[i])
	}
	return out
}
