package live

import (
	"testing"
	"time"

	"dco/internal/dht"
)

// quietRing brings up an 8-node ring at fastConfig's cadences that runs
// ring upkeep only, and returns once that upkeep has backed off.
func quietRing(t *testing.T) *Swarm {
	t.Helper()
	s := testSwarm(t, SwarmSpec{N: 8, Base: fastConfig()})
	if s.Source().DHTName() != "chord" {
		t.Skip("backing off while the ring is quiet is the Chord kernel's")
	}
	if err := s.up((*Node).startRingMaint); err != nil {
		t.Fatal(err)
	}
	awaitBackedOff(t, s)
	return s
}

// awaitBackedOff waits until the ring's stabilize ticks have backed off to
// the cap: every successor list names the whole ring, then every node runs
// five more rounds — three quiet rounds take a tick from its base cadence
// to dht.UpkeepBackoff times it, and the first two may still carry the
// lists' last moves.
func awaitBackedOff(t *testing.T, s *Swarm) {
	t.Helper()
	await(t, s, 10*time.Second, "every list to name the whole ring", func() bool {
		return RingCorrect(s.Nodes) && viewsConverged(s.Nodes)
	})
	runs := func(i int) uint64 { return s.Registry(i).Counter("dco_ring_stabilize_runs_total").Value() }
	from := make([]uint64, len(s.Nodes))
	for i := range s.Nodes {
		from[i] = runs(i)
	}
	await(t, s, 10*time.Second, "five more stabilize rounds on every node", func() bool {
		for i := range s.Nodes {
			if runs(i) < from[i]+5 {
				return false
			}
		}
		return true
	})
}

// cappedWait is one backed-off stabilize interval at fastConfig's cadence.
const cappedWait = dht.UpkeepBackoff * 20 * time.Millisecond // fastConfig's StabilizeEvery

// TestBackedOffRingHealsAKill: a node of a ring whose upkeep has backed
// off dies without a word, and the survivors are a correct ring again
// within killHealBound. A backed-off neighbour's first failed probe comes
// at most one capped interval late; from there the failures run at the
// base cadence, as they always did.
func TestBackedOffRingHealsAKill(t *testing.T) {
	t.Parallel()
	// At a fixed cadence the slowest of 23 heals under the race detector
	// (20 alone, 3 inside the whole package) took 135 ms. The bound is
	// three times that, rounded up, for a loaded host, plus one capped
	// interval.
	const killHealBound = 3*140*time.Millisecond + cappedWait
	s := quietRing(t)
	victim := s.Nodes[3]
	victim.Close()
	survivors := Without(s.Nodes, victim)
	start := time.Now()
	await(t, s, killHealBound, "the survivors to re-link", func() bool { return RingCorrect(survivors) })
	t.Logf("backed-off ring of %d healed around an abrupt failure in %v (bound %v)", len(s.Nodes), time.Since(start), killHealBound)
}

// TestBackedOffRingAdoptsAJoin: a node joins a ring whose upkeep has
// backed off; the ring including it is correct within joinBound, and the
// source routes the joiner's own ID to it.
func TestBackedOffRingAdoptsAJoin(t *testing.T) {
	t.Parallel()
	// At a fixed cadence the slowest of 23 adoptions under the race
	// detector (20 alone, 3 inside the whole package) took 3.2 ms: Join's
	// two Notifies are the adoption. The bound is three times that,
	// rounded up to 10 ms, for a loaded host, plus one capped interval.
	const joinBound = 3*10*time.Millisecond + cappedWait
	s := quietRing(t)
	if err := s.add(len(s.Nodes)); err != nil {
		t.Fatal(err)
	}
	joiner := s.Nodes[len(s.Nodes)-1]
	start := time.Now()
	if err := joiner.Join(s.Source().Addr()); err != nil {
		t.Fatal(err)
	}
	joiner.startRingMaint()
	await(t, s, joinBound, "the ring to take the joiner in", func() bool { return RingCorrect(s.Nodes) })
	t.Logf("backed-off ring of %d took a joiner in within %v (bound %v)", len(s.Nodes)-1, time.Since(start), joinBound)
	owner, _, err := s.Source().FindOwner(joiner.ID())
	if err != nil {
		t.Fatalf("routing the joiner's ID: %v", err)
	}
	if owner.Addr != joiner.Addr() {
		t.Fatalf("the source routes the joiner's ID to %s, want the joiner %s", owner.Addr, joiner.Addr())
	}
}

// TestLoneNodeTakesItsFirstMemberAtOnce: at DefaultNodeConfig's cadences,
// a lone node whose upkeep runs and its first joiner are a correct ring
// within firstMemberBound, well inside the 300 ms stabilize wait: the
// joiner's Notify runs the lone node's round at once.
func TestLoneNodeTakesItsFirstMemberAtOnce(t *testing.T) {
	t.Parallel()
	const firstMemberBound = 50 * time.Millisecond
	s := testSwarm(t, SwarmSpec{N: 2, Base: DefaultNodeConfig()})
	if s.Source().DHTName() != "chord" {
		t.Skip("a ring of one is the Chord kernel's")
	}
	s.Source().startRingMaint()
	start := time.Now()
	if err := s.Viewers()[0].Join(s.Source().Addr()); err != nil {
		t.Fatal(err)
	}
	s.Viewers()[0].startRingMaint()
	await(t, s, firstMemberBound, "the ring of two", func() bool { return RingCorrect(s.Nodes) })
	t.Logf("a lone node took its first member in %v (bound %v, stabilize every %v)", time.Since(start), firstMemberBound, DefaultNodeConfig().StabilizeEvery)
}
