// Package retry gives the live DCO stack its failure discipline: jittered
// exponential backoff with a per-operation budget, behind a per-address
// gate that stops hammering peers that keep failing (the circuit itself is
// a row of the node's peer table, internal/health). The simulator models
// churn recovery structurally (dead-hop re-picks, busy nacks); this package
// is the equivalent machinery for the real-network path, where failures
// are timeouts and refused connections rather than scripted events.
//
// Reproducibility: the jitter source is seeded, so a node constructed with
// the same seed produces the same backoff schedule — matching the repo's
// rule that equal seeds yield equal runs.
package retry

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Policy shapes one operation's retry loop.
type Policy struct {
	// MaxAttempts caps tries per operation (first call included).
	// Values below 1 mean a single attempt.
	MaxAttempts int
	// InitialBackoff is the pause after the first failure.
	InitialBackoff time.Duration
	// MaxBackoff caps the grown pause.
	MaxBackoff time.Duration
	// Budget bounds the operation's total wall-clock spend across
	// attempts and pauses. Zero means attempts alone limit the loop.
	Budget time.Duration
}

// DefaultPolicy suits LAN control-plane RPCs: fast first retry, bounded
// total spend well under a chunk period at streaming timescales.
func DefaultPolicy() Policy {
	return Policy{
		MaxAttempts:    3,
		InitialBackoff: 30 * time.Millisecond,
		MaxBackoff:     500 * time.Millisecond,
		Budget:         3 * time.Second,
	}
}

// The pause doubles after each failure, and the Retrier draws each one
// uniformly from [d*(1-jitter), d]: 100ms becomes [50ms, 100ms].
const (
	multiplier = 2
	jitter     = 0.5
)

// Pause returns the unjittered pause before retry number n (n = 1 is the
// pause after the first failure) — for callers pacing their own loops.
func (p Policy) Pause(n int) time.Duration { return p.backoff(n, nil) }

// backoff returns the pause before retry number n (n = 1 is the pause
// after the first failure). rng may be nil for no jitter.
func (p Policy) backoff(n int, rng *rand.Rand) time.Duration {
	d := p.InitialBackoff
	if d <= 0 {
		d = 10 * time.Millisecond
	}
	for i := 1; i < n; i++ {
		d *= multiplier
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			d = p.MaxBackoff
			break
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if rng != nil {
		d -= time.Duration(rng.Float64() * jitter * float64(d))
	}
	return d
}

// ErrOpen is returned when the gate rejects a call without trying the
// network. Callers should treat it like a fast connection failure and
// fail over to another address.
var ErrOpen = errors.New("retry: circuit open")

// ---------------------------------------------------------------------------
// Retrier: policy + gate + seeded jitter.

// Retrier executes operations under a Policy behind an optional gate.
type Retrier struct {
	policy Policy
	allow  func(addr string) bool

	mu      sync.Mutex
	rng     *rand.Rand
	onRetry func(addr string, attempt int, pause time.Duration, err error)
}

// New builds a Retrier. allow is the gate Do consults before every attempt
// (whether addr's circuit admits a call); nil admits everything. seed fixes
// the jitter sequence; equal seeds give equal backoff schedules.
func New(policy Policy, allow func(addr string) bool, seed int64) *Retrier {
	return &Retrier{policy: policy, allow: allow, rng: rand.New(rand.NewSource(seed))}
}

// SetOnRetry installs a hook invoked each time Do schedules a retry:
// attempt is the failed attempt number (1-based), pause the backoff about
// to be slept, err the failure that caused it. The telemetry seam for
// retry events; must be fast and non-blocking.
func (r *Retrier) SetOnRetry(fn func(addr string, attempt int, pause time.Duration, err error)) {
	r.mu.Lock()
	r.onRetry = fn
	r.mu.Unlock()
}

func (r *Retrier) pause(n int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.policy.backoff(n, r.rng)
}

// Do runs op against addr until it succeeds, exhausts the policy, hits an
// error retryable rejects (nil retries every error), or done closes. The
// gate is consulted before each attempt: when it turns addr away, Do fails
// fast with ErrOpen so the caller can fail over. Do feeds the gate nothing:
// op reports each attempt's outcome to whatever backs it, so a circuit an
// attempt trips turns the next one away.
func (r *Retrier) Do(done <-chan struct{}, addr string, retryable func(error) bool, op func() error) error {
	attempts := r.policy.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var deadline time.Time
	if r.policy.Budget > 0 {
		deadline = time.Now().Add(r.policy.Budget)
	}
	var err error
	for n := 1; ; n++ {
		if r.allow != nil && !r.allow(addr) {
			if err != nil {
				return fmt.Errorf("%w (last error: %v)", ErrOpen, err)
			}
			return ErrOpen
		}
		err = op()
		if err == nil {
			return nil
		}
		if retryable != nil && !retryable(err) {
			return err
		}
		if n >= attempts {
			return err
		}
		pause := r.pause(n)
		if !deadline.IsZero() && time.Now().Add(pause).After(deadline) {
			return err
		}
		r.mu.Lock()
		hook := r.onRetry
		r.mu.Unlock()
		if hook != nil {
			hook(addr, n, pause, err)
		}
		select {
		case <-done:
			return err
		case <-time.After(pause):
		}
	}
}
