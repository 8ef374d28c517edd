package dht

import (
	"sort"
	"sync"
	"time"
)

// MemberCache is a bounded memory of previously-seen overlay members, kept
// beside (not inside) a kernel's routing tables. Routing tables forget a
// peer the moment it is purged, which is correct for failure handling but
// fatal for partitions: after a network split heals, maintenance alone can
// never re-merge two self-consistent overlays because neither side retains
// any pointer into the other. The cache deliberately keeps condemned
// members — an unreachable entry is exactly the breadcrumb the census
// needs to rediscover the other half once the partition heals.
//
// It is pure local bookkeeping with no I/O, safe for concurrent use; the
// host (internal/live) feeds it passively from the kernel's Seen events.
type MemberCache struct {
	self string
	cap  int
	mu   sync.Mutex
	recs map[string]*memberRec
}

type memberRec struct {
	m    Member
	seen time.Time
}

// NewMemberCache builds a cache that never stores self and holds at most
// capacity entries (oldest last-seen evicted first).
func NewMemberCache(self string, capacity int) *MemberCache {
	if capacity < 1 {
		capacity = 1
	}
	return &MemberCache{self: self, cap: capacity, recs: make(map[string]*memberRec)}
}

// Len returns the number of cached members.
func (c *MemberCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.recs)
}

// Note records (or refreshes) a sighting of m at time now. Entries dedupe
// by address — a re-noted member updates its ID and last-seen stamp instead
// of growing the cache. When the cache is full the member with the oldest
// sighting is evicted to make room.
func (c *MemberCache) Note(m Member, now time.Time) {
	if m.Addr == "" || m.Addr == c.self {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if rec, ok := c.recs[m.Addr]; ok {
		rec.m = m
		if now.After(rec.seen) {
			rec.seen = now
		}
		return
	}
	if len(c.recs) >= c.cap {
		c.evictOldest()
	}
	c.recs[m.Addr] = &memberRec{m: m, seen: now}
}

func (c *MemberCache) evictOldest() {
	var victim string
	var oldest time.Time
	first := true
	for addr, rec := range c.recs {
		if first || rec.seen.Before(oldest) {
			victim, oldest, first = addr, rec.seen, false
		}
	}
	if !first {
		delete(c.recs, victim)
	}
}

// Forget drops addr from the cache. Used when a member departs for good
// (graceful leave) — abrupt failures are deliberately NOT forgotten, since
// an unreachable member may just be on the far side of a partition.
func (c *MemberCache) Forget(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.recs, addr)
}

// Members returns the cached members sorted by ID (deterministic iteration
// for probe rotation and tests).
func (c *MemberCache) Members() []Member {
	c.mu.Lock()
	out := make([]Member, 0, len(c.recs))
	for _, rec := range c.recs {
		out = append(out, rec.m)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
