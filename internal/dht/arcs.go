package dht

import (
	"sort"
	"sync"

	"dco/internal/chord"
)

// ArcCache remembers which member owned which arc of the key space the
// last time a routed lookup proved it (Route.Lo/Hi), so a host that keeps
// asking about the same few arcs — a viewer resolves thousands of chunk
// keys onto at most n owners — routes each arc once instead of each key.
// It holds one arc per arc end: a Chord owner's range always ends at the
// owner's ID, so that is one arc per owner, re-proved in place, while the
// single keys a Kademlia lookup proves (or a Chord owner that knows no
// predecessor) sit side by side, each good for the later requests about
// that key. At most capacity arcs are kept — the one proved longest ago
// makes room — and nothing here does I/O.
//
// A cached arc is a claim about the past. The host keeps it honest: Drop
// when the owner bounces a request, fails or departs, Trim when a member
// turns up inside an arc, Store over it whenever a lookup is routed
// anyway. What is left wrong costs the host one redirect.
//
// Safe for concurrent use. It has its own lock and calls nothing while
// holding it, so it may be used with or without the host's lock held.
type ArcCache struct {
	mu    sync.Mutex
	cap   int
	arcs  []arc // sorted by hi
	clock uint64
}

type arc struct {
	lo, hi uint64
	owner  Member
	proved uint64 // ArcCache.clock when stored: the eviction order
}

// NewArcCache builds a cache of at most capacity arcs.
func NewArcCache(capacity int) *ArcCache {
	if capacity < 1 {
		capacity = 1
	}
	return &ArcCache{cap: capacity}
}

// Len returns the number of cached arcs.
func (c *ArcCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.arcs)
}

func (a *arc) holds(key uint64) bool {
	return chord.InOC(chord.ID(a.lo), chord.ID(key), chord.ID(a.hi))
}

// Holds reports whether the route's proof reaches key.
func (r Route) Holds(key uint64) bool { return (&arc{lo: r.Lo, hi: r.Hi}).holds(key) }

// nearest returns the index of the arc that ends nearest clockwise of key
// — the only arc that may answer for it. An arc beginning before a nearer
// one ends is stale there: an owner sits inside it. Caller holds c.mu and
// has checked that arcs is not empty.
func (c *ArcCache) nearest(key uint64) int {
	i := sort.Search(len(c.arcs), func(i int) bool { return c.arcs[i].hi >= key })
	if i == len(c.arcs) {
		return 0 // past the highest end: the arc that wraps across zero, if any
	}
	return i
}

// Owner returns the cached owner of key, if an arc covers it.
func (c *ArcCache) Owner(key uint64) (Member, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.arcs) == 0 {
		return Member{}, false
	}
	if a := &c.arcs[c.nearest(key)]; a.holds(key) {
		return a.owner, true
	}
	return Member{}, false
}

// Store records a freshly routed answer. The newest proof wins: it
// replaces the arc that ends where it ends, and removes every arc that ends
// inside it — the ring just said no owner sits there.
func (c *ArcCache) Store(r Route) {
	if r.Owner.Addr == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := c.arcs[:0]
	for _, a := range c.arcs {
		if a.hi == r.Hi || chord.InOO(chord.ID(r.Lo), chord.ID(a.hi), chord.ID(r.Hi)) {
			continue
		}
		kept = append(kept, a)
	}
	c.arcs = kept
	if len(c.arcs) >= c.cap {
		oldest := 0
		for i := range c.arcs {
			if c.arcs[i].proved < c.arcs[oldest].proved {
				oldest = i
			}
		}
		c.arcs = append(c.arcs[:oldest], c.arcs[oldest+1:]...)
	}
	c.clock++
	at := sort.Search(len(c.arcs), func(i int) bool { return c.arcs[i].hi >= r.Hi })
	c.arcs = append(c.arcs, arc{})
	copy(c.arcs[at+1:], c.arcs[at:])
	c.arcs[at] = arc{lo: r.Lo, hi: r.Hi, owner: r.Owner, proved: c.clock}
}

// Drop forgets every arc owned by addr.
func (c *ArcCache) Drop(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := c.arcs[:0]
	for _, a := range c.arcs {
		if a.owner.Addr != addr {
			kept = append(kept, a)
		}
	}
	c.arcs = kept
}

// Trim records sightings of members: one whose ID lies strictly inside the
// arc that would answer for it now owns the keys up to itself, so that
// arc shrinks to (member, owner].
func (c *ArcCache) Trim(ms ...Member) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.arcs) == 0 {
		return
	}
	for _, m := range ms {
		a := &c.arcs[c.nearest(m.ID)]
		if m.Addr != a.owner.Addr && chord.InOO(chord.ID(a.lo), chord.ID(m.ID), chord.ID(a.hi)) {
			a.lo = m.ID
		}
	}
}
