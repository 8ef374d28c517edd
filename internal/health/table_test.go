package health

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The circuit, the fetch blacklist, the load reports and the ranking that
// reads them: the parts of the table that used to be retry.Breaker and
// three maps of the live node.

func TestCircuitOpensAndProbes(t *testing.T) {
	tr, clk := newTestTracker(Config{Circuit: CircuitConfig{Threshold: 3, Cooldown: time.Hour}})
	for i := 0; i < 2; i++ {
		tr.Observe("x", 0, false)
		if !tr.Allow("x") {
			t.Fatalf("circuit opened after %d failures, threshold 3", i+1)
		}
	}
	tr.Observe("x", 0, false)
	if tr.Allow("x") {
		t.Fatal("circuit still closed after threshold failures")
	}
	if !tr.Open("x") {
		t.Fatal("Open() disagrees with Allow()")
	}

	// After cooldown: exactly one half-open probe.
	clk.advance(2 * time.Hour)
	if tr.Open("x") {
		t.Fatal("circuit still reports open past its cooldown")
	}
	if !tr.Allow("x") {
		t.Fatal("no probe admitted after cooldown")
	}
	if tr.Allow("x") {
		t.Fatal("second concurrent probe admitted in half-open")
	}
	// Failed probe re-opens immediately.
	tr.Observe("x", 0, false)
	if tr.Allow("x") {
		t.Fatal("circuit closed after failed probe")
	}
	// Next probe succeeds → closed again.
	clk.advance(2 * time.Hour)
	if !tr.Allow("x") {
		t.Fatal("no probe after second cooldown")
	}
	tr.Observe("x", time.Millisecond, true)
	if !tr.Allow("x") || !tr.Allow("x") {
		t.Fatal("circuit not closed after successful probe")
	}
}

func TestCircuitIsPerAddress(t *testing.T) {
	tr, _ := newTestTracker(Config{Circuit: CircuitConfig{Threshold: 1, Cooldown: time.Hour}})
	tr.Observe("dead", 0, false)
	if tr.Allow("dead") {
		t.Fatal("dead address allowed")
	}
	if !tr.Allow("alive") {
		t.Fatal("unrelated address rejected")
	}
}

func TestCircuitDisabledBelowThresholdOne(t *testing.T) {
	tr, _ := newTestTracker(Config{Circuit: CircuitConfig{Cooldown: time.Hour}})
	for i := 0; i < 50; i++ {
		tr.Observe("x", 0, false)
	}
	if !tr.Allow("x") || tr.Open("x") {
		t.Fatal("a zero threshold must never open a circuit")
	}
}

func TestCircuitHalfOpenConcurrentProbes(t *testing.T) {
	tr, clk := newTestTracker(Config{Circuit: CircuitConfig{Threshold: 1, Cooldown: time.Hour}})
	tr.Observe("x", 0, false)
	if tr.Allow("x") {
		t.Fatal("circuit should be open")
	}

	// A stampede of callers races for the half-open slot: exactly one probe
	// is admitted, every loser is rejected (no queueing, no second probe).
	const racers = 32
	stampede := func() int64 {
		var wg sync.WaitGroup
		var admitted atomic.Int64
		start := make(chan struct{})
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if tr.Allow("x") {
					admitted.Add(1)
				}
			}()
		}
		close(start)
		wg.Wait()
		return admitted.Load()
	}
	clk.advance(2 * time.Hour)
	if got := stampede(); got != 1 {
		t.Fatalf("half-open admitted %d concurrent probes, want exactly 1", got)
	}
	if tr.Allow("x") {
		t.Fatal("second probe admitted while the first is outstanding")
	}

	// Probe failure re-opens: everyone is rejected until the next cooldown.
	tr.Observe("x", 0, false)
	for i := 0; i < racers; i++ {
		if tr.Allow("x") {
			t.Fatal("re-opened circuit admitted a caller")
		}
	}

	// Next cooldown: again exactly one winner, and its success closes the
	// circuit for everyone.
	clk.advance(2 * time.Hour)
	if got := stampede(); got != 1 {
		t.Fatalf("second half-open round admitted %d probes, want exactly 1", got)
	}
	tr.Observe("x", time.Millisecond, true)
	for i := 0; i < racers; i++ {
		if !tr.Allow("x") {
			t.Fatal("closed circuit rejected a caller")
		}
	}
}

func TestCircuitTransitionHook(t *testing.T) {
	type transition struct {
		addr   string
		opened bool
	}
	var seen []transition
	tr, clk := newTestTracker(Config{Circuit: CircuitConfig{Threshold: 2, Cooldown: time.Second},
		OnCircuit: func(addr string, opened bool) { seen = append(seen, transition{addr, opened}) }})

	tr.Observe("x", 0, false)
	if len(seen) != 0 {
		t.Fatal("hook fired before the threshold")
	}
	tr.Observe("x", 0, false) // opens
	if len(seen) != 1 || !seen[0].opened || seen[0].addr != "x" {
		t.Fatalf("after open: %+v", seen)
	}
	tr.Observe("x", 0, false) // already open: no transition
	if len(seen) != 1 {
		t.Fatalf("re-failure of an open circuit fired the hook: %+v", seen)
	}

	clk.advance(2 * time.Second)
	if !tr.Allow("x") {
		t.Fatal("half-open probe not admitted after cooldown")
	}
	tr.Observe("x", time.Millisecond, true) // closes
	if len(seen) != 2 || seen[1].opened {
		t.Fatalf("after close: %+v", seen)
	}

	// An answer from a clean (never-tripped) peer is not a close transition.
	tr.Observe("y", time.Millisecond, true)
	if len(seen) != 2 {
		t.Fatalf("clean success counted as a close: %+v", seen)
	}
}

// TestNilHookAndNilTrackerSafe: a table without a hook takes every circuit
// call.
func TestNilHookAndNilTrackerSafe(t *testing.T) {
	tr, _ := newTestTracker(Config{Circuit: CircuitConfig{Threshold: 1, Cooldown: time.Hour}})
	tr.Observe("x", 0, false) // opens, no hook to call
	if tr.Allow("x") {
		t.Fatal("the circuit did not open")
	}
	tr.Observe("x", time.Millisecond, true) // closes
	if !tr.Allow("x") {
		t.Fatal("the circuit did not close")
	}
}

// TestOneObservationFeedsBothVerdicts: there is one liveness feed. A
// transport failure raises suspicion and counts toward the circuit; an
// answered call — a wire.Error reply is one, the caller says ok=true for
// it — resets the count and decays suspicion.
func TestOneObservationFeedsBothVerdicts(t *testing.T) {
	tr, _ := newTestTracker(Config{Circuit: CircuitConfig{Threshold: 3, Cooldown: time.Hour}})
	for i := 0; i < 5; i++ { // a latency baseline, so an answer decays suspicion
		tr.Observe("p", 10*time.Millisecond, true)
	}
	tr.Observe("p", 0, false)
	tr.Observe("p", 0, false)
	before := tr.Suspicion("p")
	if before < 2 {
		t.Fatalf("two failures left suspicion at %v, want >= 2", before)
	}
	if tr.Open("p") {
		t.Fatal("circuit opened below its threshold")
	}

	tr.Observe("p", 10*time.Millisecond, true) // the peer answered
	if after := tr.Suspicion("p"); after >= before {
		t.Fatalf("an answer did not decay suspicion: %v -> %v", before, after)
	}
	// The count restarted: two more failures are still below three.
	tr.Observe("p", 0, false)
	tr.Observe("p", 0, false)
	if tr.Open("p") {
		t.Fatal("consecutive-failure count not reset by an answer")
	}
	tr.Observe("p", 0, false)
	if !tr.Open("p") {
		t.Fatal("three consecutive failures did not open the circuit")
	}
	if !tr.Suspected("p") {
		t.Fatal("the failures that opened the circuit left the peer unsuspected")
	}
}

// TestRank pins the fetch order of a lookup answer: who is left out, and
// what sorts the rest.
func TestRank(t *testing.T) {
	answer := []string{"a", "b", "c"}
	fails := func(addr string, n int) func(*Tracker, *fakeClock) {
		return func(tr *Tracker, _ *fakeClock) {
			for i := 0; i < n; i++ {
				tr.Observe(addr, 50*time.Millisecond, false)
			}
		}
	}
	latency := func(tr *Tracker, addr string, d time.Duration) {
		for i := 0; i < 8; i++ {
			tr.Observe(addr, d, true)
		}
	}
	cases := []struct {
		name    string
		prep    func(*Tracker, *fakeClock)
		addrs   []string
		want    []string
		clamped int
	}{
		{name: "strangers keep the coordinator's rotation", want: answer},
		{name: "self is never asked", addrs: []string{"a", "self", "b"}, want: []string{"a", "b"}},
		{name: "a repeated address is asked once", addrs: []string{"a", "b", "a"}, want: []string{"a", "b"}},
		{name: "quarantined peer excluded", want: []string{"a", "c"},
			prep: func(tr *Tracker, _ *fakeClock) { tr.ForceQuarantine("b") }},
		{name: "quarantine lapses", want: answer,
			prep: func(tr *Tracker, clk *fakeClock) { tr.ForceQuarantine("b"); clk.advance(QuarantineTTL + time.Second) }},
		{name: "cooling peer excluded", want: []string{"b", "c"},
			prep: func(tr *Tracker, clk *fakeClock) { tr.Cool("a", time.Second); clk.advance(999 * time.Millisecond) }},
		{name: "cooldown expires", want: answer,
			prep: func(tr *Tracker, clk *fakeClock) { tr.Cool("a", time.Second); clk.advance(time.Second) }},
		{name: "every provider cooling: nobody to ask", want: nil,
			prep: func(tr *Tracker, _ *fakeClock) {
				for _, a := range answer {
					tr.Cool(a, time.Second)
				}
			}},
		{name: "least loaded first, unheard counts as idle", want: []string{"c", "b", "a"},
			prep: func(tr *Tracker, _ *fakeClock) { tr.NoteLoad("a", 900, false); tr.NoteLoad("b", 300, false) }},
		{name: "stale load = unknown", want: []string{"a", "c", "b"},
			prep: func(tr *Tracker, clk *fakeClock) {
				tr.NoteLoad("a", 900, false)
				clk.advance(2 * time.Second)
				tr.NoteLoad("b", 300, false)
				clk.advance(time.Second) // a's report is 3s old, b's 1s
			}},
		{name: "Busy-contradiction clamp: a nack claiming idle is recorded saturated", want: []string{"c", "b", "a"},
			prep: func(tr *Tracker, _ *fakeClock) {
				if !tr.NoteLoad("a", 0, true) {
					panic("Busy at load 0 not reported as clamped")
				}
				if tr.NoteLoad("b", 1500, true) {
					panic("Busy at an honest load reported as clamped")
				}
				tr.NoteLoad("b", 800, false)
			}},
		{name: "latency-contradiction clamp: slow peer claiming idle sorts behind the honest one",
			addrs: []string{"liar", "honest"}, want: []string{"honest", "liar"}, clamped: 1,
			prep: func(tr *Tracker, _ *fakeClock) {
				latency(tr, "liar", 120*time.Millisecond)
				latency(tr, "honest", 4*time.Millisecond)
				tr.NoteLoad("liar", 0, false)
				tr.NoteLoad("honest", 800, false)
			}},
		{name: "no clamp under the latency floor", addrs: []string{"liar", "honest"}, want: []string{"liar", "honest"},
			prep: func(tr *Tracker, _ *fakeClock) {
				latency(tr, "liar", 15*time.Millisecond)
				latency(tr, "honest", time.Millisecond)
				tr.NoteLoad("honest", 800, false)
			}},
		{name: "no clamp without a cohort to compare with", addrs: []string{"liar", "b"}, want: []string{"liar", "b"},
			prep: func(tr *Tracker, _ *fakeClock) { latency(tr, "liar", 120*time.Millisecond) }},
		{name: "suspected idle peer behind healthy idle peers, never dropped", want: []string{"a", "c", "b"},
			prep: fails("b", 3)},
		{name: "suspicion decays: the peer regains its place", want: answer,
			prep: func(tr *Tracker, clk *fakeClock) { fails("b", 3)(tr, clk); clk.advance(10 * time.Minute) }},
		{name: "only MaxRank providers are considered",
			addrs: []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "10"},
			want:  []string{"1", "2", "3", "4", "5", "6", "7", "8"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, clk := newTestTracker(Config{})
			if tc.prep != nil {
				tc.prep(tr, clk)
			}
			addrs := tc.addrs
			if addrs == nil {
				addrs = answer
			}
			order, n, clamped := tr.Rank("self", addrs)
			if !slices.Equal(order[:n], tc.want) {
				t.Fatalf("Rank(%v) = %v, want %v", addrs, order[:n], tc.want)
			}
			if clamped != tc.clamped {
				t.Fatalf("clamped = %d, want %d", clamped, tc.clamped)
			}
		})
	}
}

// TestPeerStateStaysBounded: circuits, cooldowns and load reports live in the
// LRU-bounded rows, so peers that die for good cannot accumulate.
func TestPeerStateStaysBounded(t *testing.T) {
	tr, clk := newTestTracker(Config{Circuit: CircuitConfig{Threshold: 2, Cooldown: time.Hour}})
	const dead = MaxPeers + 64
	for i := 0; i < dead; i++ {
		addr := fmt.Sprintf("p%d", i)
		tr.Observe(addr, 0, false)
		tr.Observe(addr, 0, false)
		tr.Cool(addr, time.Hour)
		tr.NoteLoad(addr, 500, false)
		clk.advance(time.Millisecond)
	}
	if n := tr.Len(); n != MaxPeers {
		t.Fatalf("table holds %d rows, want MaxPeers = %d", n, MaxPeers)
	}
	if _, _, cooling := tr.Counts(); cooling > MaxPeers {
		t.Fatalf("%d peers cooling in a %d-row table", cooling, MaxPeers)
	}
	// What eviction costs: the evicted peer's open circuit is gone, and is
	// re-earned in Threshold calls.
	if tr.Open("p0") || !tr.Open(fmt.Sprintf("p%d", dead-1)) {
		t.Fatal("want the oldest row evicted and the newest kept")
	}
}
