package dht

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// route is a Route for owner addr over (lo, hi].
func route(lo, hi uint64, addr string) Route {
	return Route{Owner: mm(hi, addr), Lo: lo, Hi: hi}
}

func wantOwner(t *testing.T, c *ArcCache, key uint64, addr string) {
	t.Helper()
	got, ok := c.Owner(key)
	if addr == "" {
		if ok {
			t.Fatalf("Owner(%#x) = %s, want a miss", key, got.Addr)
		}
		return
	}
	if !ok || got.Addr != addr {
		t.Fatalf("Owner(%#x) = %q (hit=%v), want %q", key, got.Addr, ok, addr)
	}
}

func TestArcCacheAnswersInsideArcsOnly(t *testing.T) {
	c := NewArcCache(8)
	wantOwner(t, c, 5, "") // empty cache
	c.Store(route(100, 200, "b"))
	c.Store(route(300, 400, "d"))
	for _, tc := range []struct {
		key  uint64
		addr string
	}{
		{100, ""}, {101, "b"}, {200, "b"}, {201, ""}, {300, ""}, {301, "d"}, {400, "d"}, {401, ""}, {0, ""}, {math.MaxUint64, ""},
	} {
		wantOwner(t, c, tc.key, tc.addr)
	}
}

func TestArcCacheWrapsAcrossZero(t *testing.T) {
	c := NewArcCache(8)
	c.Store(route(math.MaxUint64-10, 20, "a")) // wraps
	c.Store(route(20, 500, "b"))
	for _, tc := range []struct {
		key  uint64
		addr string
	}{
		{math.MaxUint64 - 10, ""}, {math.MaxUint64 - 9, "a"}, {math.MaxUint64, "a"}, {0, "a"}, {20, "a"}, {21, "b"}, {500, "b"}, {501, ""},
	} {
		wantOwner(t, c, tc.key, tc.addr)
	}
	// A lone key at zero: (MaxUint64, 0].
	c = NewArcCache(8)
	c.Store(route(math.MaxUint64, 0, "z"))
	wantOwner(t, c, 0, "z")
	wantOwner(t, c, 1, "")
	wantOwner(t, c, math.MaxUint64, "")
}

func TestArcCacheWholeRingAndSingleKey(t *testing.T) {
	c := NewArcCache(8)
	c.Store(route(700, 700, "solo")) // lo == hi: a ring of one owns everything
	for _, key := range []uint64{0, 699, 700, 701, math.MaxUint64} {
		wantOwner(t, c, key, "solo")
	}
	// The first member sighted splits it.
	c.Trim(mm(300, "joiner"))
	wantOwner(t, c, 300, "")
	wantOwner(t, c, 200, "")
	wantOwner(t, c, 301, "solo")
	wantOwner(t, c, 700, "solo")

	c = NewArcCache(8)
	c.Store(Route{Owner: mm(9000, "kad"), Lo: 41, Hi: 42}) // the routed key alone
	wantOwner(t, c, 42, "kad")
	wantOwner(t, c, 41, "")
	wantOwner(t, c, 43, "")
	c.Trim(mm(42, "other"), mm(41, "other")) // nothing lies strictly inside
	wantOwner(t, c, 42, "kad")
}

func TestArcCacheTrimOnSeen(t *testing.T) {
	c := NewArcCache(8)
	c.Store(route(100, 200, "b"))
	c.Trim(mm(100, "pred"), mm(200, "b"), mm(250, "succ")) // the ends and outside: no change
	wantOwner(t, c, 101, "b")
	c.Trim(mm(150, "b")) // the owner under another ID is not a newcomer
	wantOwner(t, c, 101, "b")
	c.Trim(mm(150, "j"))
	wantOwner(t, c, 150, "")
	wantOwner(t, c, 101, "")
	wantOwner(t, c, 151, "b")
	c.Trim(mm(120, "k")) // now outside (150, 200]
	wantOwner(t, c, 151, "b")

	// Across zero.
	c = NewArcCache(8)
	c.Store(route(math.MaxUint64-10, 20, "a"))
	c.Trim(mm(5, "j"))
	wantOwner(t, c, math.MaxUint64, "")
	wantOwner(t, c, 5, "")
	wantOwner(t, c, 6, "a")
}

func TestArcCacheOneArcPerOwner(t *testing.T) {
	c := NewArcCache(8)
	c.Store(route(100, 200, "b"))
	c.Store(route(150, 200, "b")) // re-proved smaller: a join in front
	if c.Len() != 1 {
		t.Fatalf("len = %d, want the owner's one arc", c.Len())
	}
	wantOwner(t, c, 120, "")
	wantOwner(t, c, 151, "b")
	c.Store(route(50, 200, "b")) // re-proved larger: the joiner left
	if c.Len() != 1 {
		t.Fatalf("len = %d, want the owner's one arc", c.Len())
	}
	wantOwner(t, c, 120, "b")
	// Single keys are proofs of their own: one owner, several of them.
	c.Store(Route{Owner: mm(9, "k"), Lo: 6, Hi: 7})
	c.Store(Route{Owner: mm(9, "k"), Lo: 1000, Hi: 1001})
	wantOwner(t, c, 7, "k")
	wantOwner(t, c, 1001, "k")
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	c.Drop("k") // all of an owner's arcs go with it
	wantOwner(t, c, 7, "")
	wantOwner(t, c, 1001, "")
	wantOwner(t, c, 120, "b")
}

func TestArcCacheNewestProofWins(t *testing.T) {
	c := NewArcCache(8)
	c.Store(route(100, 200, "b"))
	c.Store(route(200, 300, "c"))
	c.Store(route(300, 400, "d"))
	// c died: d's range now reaches back to b. c's arc ends inside the new
	// proof, so it goes; b's does not.
	c.Store(route(200, 400, "d"))
	wantOwner(t, c, 250, "d")
	wantOwner(t, c, 150, "b")
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2 (c superseded)", c.Len())
	}
	// The same end under a new owner (an address that re-keyed, or XOR
	// ownership of one key moving) replaces rather than shadows.
	c.Store(route(200, 400, "e"))
	wantOwner(t, c, 250, "e")
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	// An overlap left standing is resolved towards the nearer end: b knows
	// nothing of a joiner at 180, but a proof for it shadows b's tail.
	c.Store(route(150, 180, "j"))
	wantOwner(t, c, 170, "j")
	wantOwner(t, c, 190, "b")
	wantOwner(t, c, 120, "") // j's arc is nearest and does not hold it: a miss, not b
}

func TestArcCacheDrop(t *testing.T) {
	c := NewArcCache(8)
	c.Store(route(100, 200, "b"))
	c.Store(route(200, 300, "c"))
	c.Drop("b")
	c.Drop("b") // nothing left to drop: fine
	wantOwner(t, c, 150, "")
	wantOwner(t, c, 250, "c")
}

func TestArcCacheBound(t *testing.T) {
	const capacity = 4
	c := NewArcCache(capacity)
	for i := uint64(0); i < 10; i++ {
		c.Store(route(i*100, i*100+50, fmt.Sprint("n", i)))
		if c.Len() > capacity {
			t.Fatalf("len = %d after %d stores, capacity %d", c.Len(), i+1, capacity)
		}
	}
	// The four proved last survive.
	for i := uint64(0); i < 10; i++ {
		addr := ""
		if i >= 6 {
			addr = fmt.Sprint("n", i)
		}
		wantOwner(t, c, i*100+1, addr)
	}
	// Re-proving an arc makes it young again.
	c.Store(route(600, 650, "n6"))
	c.Store(route(5000, 5050, "new"))
	wantOwner(t, c, 601, "n6")
	wantOwner(t, c, 701, "")
}

// TestArcCacheConcurrentUse is for the race detector: every method from
// several goroutines at once, and whatever an Owner call returns must be an
// owner somebody stored for an arc holding that key.
func TestArcCacheConcurrentUse(t *testing.T) {
	c := NewArcCache(16)
	const owners = 32
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				o := uint64((i*7 + g) % owners)
				switch i % 4 {
				case 0:
					c.Store(route(o*1000, o*1000+900, fmt.Sprint("n", o)))
				case 1:
					c.Drop(fmt.Sprint("n", o))
				case 2:
					c.Trim(mm(o*1000+uint64(i%900), "t"))
				}
				key := o*1000 + 500
				if m, ok := c.Owner(key); ok && m.Addr != fmt.Sprint("n", o) {
					t.Errorf("Owner(%d) = %s, want n%d or a miss", key, m.Addr, o)
					return
				}
				c.Len()
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("len = %d, capacity 16", c.Len())
	}
}
