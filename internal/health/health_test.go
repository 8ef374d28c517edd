package health

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock steps time manually so decay arithmetic is exact.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestTracker(cfg Config) (*Tracker, *fakeClock) {
	tr := NewTracker(cfg)
	clk := newFakeClock()
	tr.SetNow(clk.now)
	return tr, clk
}

func TestUnknownPeerNeutral(t *testing.T) {
	tr, _ := newTestTracker(Config{})
	if tr.Suspicion("ghost") != 0 || tr.Suspected("ghost") {
		t.Fatal("unknown peer must be neutral")
	}
	if tr.FactorMilli("ghost") != 1000 {
		t.Fatal("unknown peer factor must be 1000")
	}
}

func TestErrorsRaiseSuspicionAndDecayBackToNeutral(t *testing.T) {
	tr, clk := newTestTracker(Config{})
	for i := 0; i < 3; i++ {
		tr.Observe("p", 0, false)
	}
	if s := tr.Suspicion("p"); s < 3 {
		t.Fatalf("3 errors should reach the threshold, got %v", s)
	}
	if !tr.Suspected("p") {
		t.Fatal("peer should be suspected")
	}
	if f := tr.FactorMilli("p"); f <= 1000 {
		t.Fatalf("suspected peer factor = %d, want > 1000", f)
	}
	// Two half-lives with no evidence: suspicion quarters — back under
	// threshold, aging toward neutral.
	clk.advance(2 * halfLife)
	if s := tr.Suspicion("p"); s >= 1 {
		t.Fatalf("suspicion after 2 half-lives = %v, want < 1", s)
	}
	if tr.Suspected("p") {
		t.Fatal("peer should have aged back under the threshold")
	}
}

func TestTimelyResponsesClearSuspicionFast(t *testing.T) {
	tr, _ := newTestTracker(Config{}) // the clock stands still: only the ok-decay acts
	// Establish a latency baseline.
	for i := 0; i < 5; i++ {
		tr.Observe("p", 10*time.Millisecond, true)
	}
	tr.Observe("p", 0, false)
	tr.Observe("p", 0, false)
	before := tr.Suspicion("p")
	for i := 0; i < 10; i++ {
		tr.Observe("p", 10*time.Millisecond, true)
	}
	after := tr.Suspicion("p")
	if after >= before/10 {
		t.Fatalf("timely responses should decay suspicion fast: before=%v after=%v", before, after)
	}
}

func TestSlowResponsesRaiseSuspicion(t *testing.T) {
	tr, _ := newTestTracker(Config{})
	for i := 0; i < 10; i++ {
		tr.Observe("p", 10*time.Millisecond, true)
	}
	base := tr.Suspicion("p")
	// A persistent slow lane: every response far past the p95 line.
	for i := 0; i < 20; i++ {
		tr.Observe("p", 500*time.Millisecond, true)
	}
	if s := tr.Suspicion("p"); s <= base {
		t.Fatalf("persistently slow responses should raise suspicion (base=%v now=%v)", base, s)
	}
}

// TestExpectedLatencyTracksEWMA reads the latency estimate through
// HedgeAfter with clamps wide enough never to bind: a steady peer's
// estimate settles near its round trip, and errors do not move it.
func TestExpectedLatencyTracksEWMA(t *testing.T) {
	tr, _ := newTestTracker(Config{})
	expected := func() time.Duration { return tr.HedgeAfter("p", 0, time.Hour) }
	if d := expected(); d != time.Hour {
		t.Fatalf("estimate with no samples = %v, want the ceiling", d)
	}
	for i := 0; i < 20; i++ {
		tr.Observe("p", 40*time.Millisecond, true)
	}
	got := expected()
	if got < 30*time.Millisecond || got > 50*time.Millisecond {
		t.Fatalf("estimate = %v, want ~40ms", got)
	}
	// Errors must not pollute the latency estimate.
	tr.Observe("p", 5*time.Second, false)
	if got2 := expected(); got2 != got {
		t.Fatalf("error observation moved the estimate: %v -> %v", got, got2)
	}
}

func TestHedgeAfterClampsAndDefaults(t *testing.T) {
	tr, _ := newTestTracker(Config{})
	min, max := 20*time.Millisecond, 300*time.Millisecond
	// Stranger: conservative (max).
	if d := tr.HedgeAfter("new", min, max); d != max {
		t.Fatalf("stranger hedge = %v, want %v", d, max)
	}
	// Fast stable peer: clamped up to min.
	for i := 0; i < 20; i++ {
		tr.Observe("fast", time.Millisecond, true)
	}
	if d := tr.HedgeAfter("fast", min, max); d != min {
		t.Fatalf("fast peer hedge = %v, want floor %v", d, min)
	}
	// Slow peer: clamped down to max.
	for i := 0; i < 20; i++ {
		tr.Observe("slow", 2*time.Second, true)
	}
	if d := tr.HedgeAfter("slow", min, max); d != max {
		t.Fatalf("slow peer hedge = %v, want ceiling %v", d, max)
	}
	// Mid peer: between the clamps, above its own EWMA.
	for i := 0; i < 50; i++ {
		tr.Observe("mid", 50*time.Millisecond, true)
	}
	d := tr.HedgeAfter("mid", min, max)
	if d <= 50*time.Millisecond || d >= max {
		t.Fatalf("mid peer hedge = %v, want in (50ms, %v)", d, max)
	}
}

func TestMaxPeersEvictsOldest(t *testing.T) {
	tr, clk := newTestTracker(Config{})
	for i := 0; i <= MaxPeers; i++ {
		tr.Observe(fmt.Sprintf("p%d", i), 0, false)
		clk.advance(time.Millisecond)
	}
	if n := tr.Len(); n != MaxPeers {
		t.Fatalf("tracker holds %d peers, want %d", n, MaxPeers)
	}
	// Newest survives, oldest evicted: only a held row remembers the
	// failure it was fed.
	if tr.Suspicion(fmt.Sprintf("p%d", MaxPeers)) == 0 {
		t.Fatal("newest peer evicted")
	}
	if tr.Suspicion("p0") != 0 {
		t.Fatal("oldest peer retained")
	}
}

func TestSuspectedCount(t *testing.T) {
	tr, _ := newTestTracker(Config{})
	for i := 0; i < suspectThreshold; i++ {
		tr.Observe("bad", 0, false)
	}
	tr.Observe("meh", 0, false)
	tr.Observe("good", time.Millisecond, true)
	if c, _, _ := tr.Counts(); c != 1 {
		t.Fatalf("suspected count = %d, want 1", c)
	}
}

func TestConcurrentObserve(t *testing.T) {
	tr, _ := newTestTracker(Config{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			addr := fmt.Sprintf("p%d", g%3)
			for i := 0; i < 200; i++ {
				tr.Observe(addr, time.Duration(i)*time.Microsecond, i%7 != 0)
				tr.Suspicion(addr)
				tr.FactorMilli(addr)
				tr.HedgeAfter(addr, time.Millisecond, time.Second)
			}
		}(g)
	}
	wg.Wait()
}

// --- Integrity / quarantine state machine ---

func TestIntegrityDemeritAccrualAndQuarantineEntry(t *testing.T) {
	tr, _ := newTestTracker(Config{})
	if tr.IntegrityScore("p") != 0 || tr.Quarantined("p") {
		t.Fatal("unknown peer must start clean")
	}
	if tr.IntegrityDemerit("p") {
		t.Fatal("first demerit must not quarantine at threshold 3")
	}
	if tr.IntegrityDemerit("p") {
		t.Fatal("second demerit must not quarantine at threshold 3")
	}
	if s := tr.IntegrityScore("p"); s != 2 {
		t.Fatalf("score after two demerits = %v, want 2", s)
	}
	if !tr.IntegrityDemerit("p") {
		t.Fatal("third demerit must trip quarantine")
	}
	if !tr.Quarantined("p") {
		t.Fatal("peer must be quarantined after crossing threshold")
	}
	if s := tr.IntegrityScore("p"); s != 0 {
		t.Fatalf("score must reset on quarantine entry, got %v", s)
	}
	if _, c, _ := tr.Counts(); c != 1 {
		t.Fatalf("quarantined count = %d, want 1", c)
	}
	if qs := tr.QuarantinedPeers(); len(qs) != 1 || qs[0] != "p" {
		t.Fatalf("QuarantinedPeers = %v, want [p]", qs)
	}
}

func TestIntegrityDecayPreventsQuarantine(t *testing.T) {
	tr, clk := newTestTracker(Config{})
	tr.IntegrityDemerit("p")
	tr.IntegrityDemerit("p")
	// Two half-lives: 2.0 decays to 0.5; the next demerit lands at 1.5,
	// well under the threshold.
	clk.advance(2 * integrityHalfLife)
	if tr.IntegrityDemerit("p") {
		t.Fatal("decayed demerits must not trip quarantine")
	}
	if s := tr.IntegrityScore("p"); s != 1.5 {
		t.Fatalf("score = %v, want 1.5", s)
	}
}

func TestIntegrityNotWashedOutByGoodResponses(t *testing.T) {
	tr, _ := newTestTracker(Config{})
	tr.IntegrityDemerit("p")
	tr.IntegrityDemerit("p")
	// A selective poisoner serves plenty of clean chunks between poisoned
	// ones; integrity must not decay on them (only time decays it).
	for i := 0; i < 50; i++ {
		tr.Observe("p", time.Millisecond, true)
	}
	if s := tr.IntegrityScore("p"); s != 2 {
		t.Fatalf("score after good responses = %v, want 2 (no ok-decay)", s)
	}
	if !tr.IntegrityDemerit("p") {
		t.Fatal("third demerit must still trip quarantine")
	}
}

func TestQuarantineExpiryAndReentry(t *testing.T) {
	tr, clk := newTestTracker(Config{})
	for i := 0; i < quarantineThreshold; i++ {
		tr.IntegrityDemerit("p")
	}
	if !tr.Quarantined("p") {
		t.Fatal("want quarantined")
	}
	clk.advance(QuarantineTTL - time.Second)
	if !tr.Quarantined("p") {
		t.Fatal("quarantine lapsed before its TTL")
	}
	clk.advance(2 * time.Second)
	if tr.Quarantined("p") {
		t.Fatal("quarantine must expire after TTL")
	}
	// Clean slate after release: two demerits are not enough again.
	if tr.IntegrityDemerit("p") || tr.IntegrityDemerit("p") {
		t.Fatal("demerits under the threshold after release must not re-quarantine")
	}
	if !tr.IntegrityDemerit("p") {
		t.Fatal("fresh accumulation must re-quarantine")
	}
	if !tr.Quarantined("p") {
		t.Fatal("want re-quarantined")
	}
}

func TestForceQuarantine(t *testing.T) {
	tr, clk := newTestTracker(Config{})
	tr.ForceQuarantine("p")
	if !tr.Quarantined("p") {
		t.Fatal("ForceQuarantine must quarantine immediately")
	}
	step := QuarantineTTL * 3 / 5
	clk.advance(step)
	tr.ForceQuarantine("p") // extend
	clk.advance(step)
	if !tr.Quarantined("p") {
		t.Fatal("second ForceQuarantine must extend the window")
	}
	clk.advance(step)
	if tr.Quarantined("p") {
		t.Fatal("extended quarantine must still expire")
	}
}

// TestQuarantinedFastPath: until some peer has been quarantined,
// Quarantined answers false without reading the clock; the answers before
// and after the first ForceQuarantine are the ones the locked path gives,
// under any clock SetNow installs.
func TestQuarantinedFastPath(t *testing.T) {
	tr, clk := newTestTracker(Config{})
	var reads atomic.Int64
	tr.SetNow(func() time.Time { reads.Add(1); return clk.now() })
	tr.Observe("p", time.Millisecond, true)
	tr.IntegrityDemerit("p") // a demerit below the threshold quarantines nobody
	reads.Store(0)
	for _, a := range []string{"p", "q", ""} {
		if tr.Quarantined(a) {
			t.Fatalf("%q quarantined before anyone was", a)
		}
	}
	if n := reads.Load(); n != 0 {
		t.Fatalf("the fast path read the clock %d times", n)
	}
	tr.ForceQuarantine("q")
	if !tr.Quarantined("q") || tr.Quarantined("p") {
		t.Fatalf("after ForceQuarantine(q): q=%v p=%v, want true false", tr.Quarantined("q"), tr.Quarantined("p"))
	}
	clk.advance(QuarantineTTL + time.Second)
	if tr.Quarantined("q") {
		t.Fatal("the quarantine outlived its TTL")
	}
	// A clock set back inside the window answers from the row again.
	tr.SetNow(func() time.Time { return clk.now().Add(-QuarantineTTL / 2) })
	if !tr.Quarantined("q") || tr.Quarantined("p") {
		t.Fatal("a clock inside the window lost the quarantine")
	}
	// The demerit path arms the slow path too.
	tr2, _ := newTestTracker(Config{})
	for i := 0; i < quarantineThreshold; i++ {
		tr2.IntegrityDemerit("r")
	}
	if !tr2.Quarantined("r") || tr2.Quarantined("p") {
		t.Fatal("a demerit quarantine is not seen")
	}
}

func TestMaxIntegrityScore(t *testing.T) {
	tr, _ := newTestTracker(Config{})
	tr.IntegrityDemerit("a")
	tr.IntegrityDemerit("b")
	tr.IntegrityDemerit("b")
	if s := tr.MaxIntegrityScore(); s != 2 {
		t.Fatalf("MaxIntegrityScore = %v, want 2", s)
	}
}
