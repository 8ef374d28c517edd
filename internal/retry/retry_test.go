package retry

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dco/internal/health"
)

func TestBackoffGrowsAndCaps(t *testing.T) {
	p := Policy{InitialBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 80, 80}
	for i, w := range want {
		if got := p.backoff(i+1, nil); got != w*time.Millisecond {
			t.Fatalf("backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
}

func TestBackoffJitterSeeded(t *testing.T) {
	p := Policy{InitialBackoff: 100 * time.Millisecond, MaxBackoff: time.Second}
	a := New(p, nil, 42)
	b := New(p, nil, 42)
	c := New(p, nil, 43)
	var sa, sb, sc []time.Duration
	for i := 1; i <= 8; i++ {
		sa = append(sa, a.pause(i))
		sb = append(sb, b.pause(i))
		sc = append(sc, c.pause(i))
	}
	same, diff := true, false
	for i := range sa {
		if sa[i] != sb[i] {
			same = false
		}
		if sa[i] != sc[i] {
			diff = true
		}
		lo := time.Duration(float64(p.backoff(i+1, nil)) * (1 - jitter))
		if sa[i] < lo-time.Millisecond || sa[i] > p.backoff(i+1, nil) {
			t.Fatalf("jittered pause %v outside [%v, %v]", sa[i], lo, p.backoff(i+1, nil))
		}
	}
	if !same {
		t.Fatal("equal seeds produced different backoff schedules")
	}
	if !diff {
		t.Fatal("different seeds produced identical backoff schedules")
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	r := New(Policy{MaxAttempts: 5, InitialBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}, nil, 1)
	calls := 0
	err := r.Do(nil, "a", nil, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestDoStopsOnTerminalError(t *testing.T) {
	terminal := errors.New("terminal")
	r := New(Policy{MaxAttempts: 5, InitialBackoff: time.Millisecond}, nil, 1)
	calls := 0
	err := r.Do(nil, "a", func(err error) bool { return !errors.Is(err, terminal) }, func() error {
		calls++
		return terminal
	})
	if !errors.Is(err, terminal) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want terminal after 1 call", err, calls)
	}
}

func TestDoRespectsAttemptCap(t *testing.T) {
	r := New(Policy{MaxAttempts: 3, InitialBackoff: time.Millisecond}, nil, 1)
	calls := 0
	fail := errors.New("nope")
	if err := r.Do(nil, "a", nil, func() error { calls++; return fail }); !errors.Is(err, fail) {
		t.Fatalf("err=%v", err)
	}
	if calls != 3 {
		t.Fatalf("calls=%d, want 3", calls)
	}
}

func TestDoRespectsBudget(t *testing.T) {
	r := New(Policy{MaxAttempts: 100, InitialBackoff: 50 * time.Millisecond, MaxBackoff: 50 * time.Millisecond, Budget: 60 * time.Millisecond}, nil, 1)
	calls := 0
	start := time.Now()
	_ = r.Do(nil, "a", nil, func() error { calls++; return errors.New("x") })
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("budget ignored: ran %v", elapsed)
	}
	if calls > 3 {
		t.Fatalf("calls=%d, budget should have stopped the loop early", calls)
	}
}

func TestDoAbortsWhenDoneCloses(t *testing.T) {
	done := make(chan struct{})
	close(done)
	r := New(Policy{MaxAttempts: 100, InitialBackoff: time.Hour}, nil, 1)
	calls := 0
	start := time.Now()
	_ = r.Do(done, "a", nil, func() error { calls++; return errors.New("x") })
	if calls != 1 || time.Since(start) > time.Second {
		t.Fatalf("calls=%d elapsed=%v; done should abort before the pause", calls, time.Since(start))
	}
}

// The circuit itself is a row of the peer table (internal/health, where its
// state machine is tested); these tests run the Retrier behind that table's
// gate, each op reporting its attempt to the table as the live node's does.

func TestDoGateIgnoresApplicationErrors(t *testing.T) {
	// An answered call (the peer replied, it just said no) must never open
	// the circuit, however often it repeats.
	tr := health.NewTracker(health.Config{Circuit: health.CircuitConfig{Threshold: 2, Cooldown: time.Hour}})
	r := New(Policy{MaxAttempts: 1}, tr.Allow, 1)
	appErr := errors.New("rejected")
	rejected := func() error { tr.Observe("x", time.Millisecond, true); return appErr }
	for i := 0; i < 10; i++ {
		if err := r.Do(nil, "x", nil, rejected); !errors.Is(err, appErr) {
			t.Fatalf("err=%v, want the application error", err)
		}
	}
	if !tr.Allow("x") {
		t.Fatal("application-level rejections opened the circuit")
	}
	// And an application answer resets prior transport failures.
	tr.Observe("x", 0, false)
	_ = r.Do(nil, "x", nil, rejected)
	tr.Observe("x", 0, false)
	if !tr.Allow("x") {
		t.Fatal("consecutive-failure count not reset by an application answer")
	}
}

func TestDoFailsFastWhenOpen(t *testing.T) {
	tr := health.NewTracker(health.Config{Circuit: health.CircuitConfig{Threshold: 1, Cooldown: time.Hour}})
	r := New(Policy{MaxAttempts: 3, InitialBackoff: time.Millisecond}, tr.Allow, 1)
	calls := 0
	down := errors.New("down")
	err := r.Do(nil, "x", nil, func() error { calls++; tr.Observe("x", 0, false); return down })
	if calls != 1 {
		t.Fatalf("calls=%d; the circuit (threshold 1) should stop retries", calls)
	}
	if !errors.Is(err, ErrOpen) || !strings.Contains(err.Error(), "down") {
		t.Fatalf("err=%v, want ErrOpen carrying the last error", err)
	}
	err = r.Do(nil, "x", nil, func() error { calls++; return nil })
	if !errors.Is(err, ErrOpen) {
		t.Fatalf("err=%v, want ErrOpen", err)
	}
	if calls != 1 {
		t.Fatal("open circuit still let the op run")
	}
	// Circuits are per address: another peer's calls go through.
	if err := r.Do(nil, "y", nil, func() error { calls++; return nil }); err != nil || calls != 2 {
		t.Fatalf("err=%v calls=%d; an unrelated address was gated", err, calls)
	}
}
