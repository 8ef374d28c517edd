package live

// Admission control for the chunk serve path (see DESIGN.md, "Overload &
// admission control"). The paper's coordinator only hands out providers
// with "sufficient upload bandwidth" (§III, Fig. 3); this file is the
// provider-side half of making that promise true: a token-bucket pacer
// that enforces the node's configured UpBps on outgoing chunk bytes,
// backed by a small bounded queue of waiting serves. A request that
// cannot start inside its declared patience is shed with a Busy nack
// carrying a RetryAfterMs hint, so requesters back off for exactly as
// long as the backlog needs to drain instead of hammering a saturated
// provider — SplitStream's lesson that overlays collapse when forwarding
// load ignores per-node outbound budgets, applied to a pull mesh.

import (
	"sync"
	"time"

	"dco/internal/index"
	"dco/internal/stream"
)

// loadSaturatedMilli is the load factor (thousandths) at which a provider
// counts as saturated — the coordinator's threshold, which the pacer's
// report is scaled to.
const loadSaturatedMilli = index.LoadSaturatedMilli

// loadCeilingMilli caps the reported load factor; beyond 10x the budget
// the exact depth of the backlog carries no extra signal.
const loadCeilingMilli = 10_000

// pacer is a token-bucket upload pacer: capacity burst bytes, refilled at
// rate bytes/sec. Admission reserves bytes up front ("debt"); a request
// whose reservation cannot be covered before its patience runs out — or
// that would exceed the bounded waiter queue — is shed with a retry hint.
// All methods are safe for concurrent use.
type pacer struct {
	mu       sync.Mutex
	rate     float64 // bytes per second; <= 0 disables pacing entirely
	burst    float64 // bucket capacity in bytes
	debt     float64 // bytes committed but not yet drained by refill
	last     time.Time
	waiters  int // admitted serves currently sleeping out their pace delay
	maxQueue int // bound on waiters; excess requests are shed immediately

	// now is a test seam (frozen clocks make the arithmetic exact).
	now func() time.Time
}

// admitBurst is a node's pacer burst allowance in bytes: four chunks of
// slack or a quarter-second of the upload budget, whichever is larger —
// enough to absorb a startup spike without defeating the steady-state cap.
func admitBurst(ch stream.Params, upBps int64) int64 {
	return max(4*max(ch.ChunkBits/8, 1), upBps/8/4)
}

// newPacer builds a pacer enforcing upBps (bits per second) with the given
// burst allowance in bytes and waiter-queue bound. upBps <= 0 returns an
// unlimited pacer (admit always succeeds instantly, load reads 0).
func newPacer(upBps int64, burstBytes int64, maxQueue int) *pacer {
	return &pacer{
		rate:     float64(upBps) / 8,
		burst:    float64(burstBytes),
		maxQueue: maxQueue,
		now:      time.Now,
	}
}

// advanceLocked drains debt by the refill accrued since the last call.
func (p *pacer) advanceLocked(t time.Time) {
	if p.last.IsZero() {
		p.last = t
		return
	}
	if dt := t.Sub(p.last).Seconds(); dt > 0 {
		p.debt -= p.rate * dt
		if p.debt < 0 {
			p.debt = 0
		}
	}
	p.last = t
}

// admit reserves n bytes against the budget. ok=true means the caller may
// send after sleeping wait (0 = immediately) and must then call release
// (or refund, if it aborts the send). ok=false is a shed: retry is the
// pacer's estimate of when the transfer could start, always >= 1ms — the
// RetryAfterMs hint put on the wire.
func (p *pacer) admit(n int, patience time.Duration) (wait, retry time.Duration, ok bool) {
	if n <= 0 {
		n = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rate <= 0 {
		return 0, 0, true
	}
	p.advanceLocked(p.now())
	over := p.debt + float64(n) - p.burst
	if over > 0 {
		wait = time.Duration(over / p.rate * float64(time.Second))
	}
	if wait > patience || (wait > 0 && p.waiters >= p.maxQueue) {
		retry = wait
		if retry < time.Millisecond {
			retry = time.Millisecond
		}
		return 0, retry, false
	}
	p.debt += float64(n)
	if wait > 0 {
		p.waiters++
	}
	return wait, 0, true
}

// release frees the waiter slot taken by an admit that returned wait > 0.
func (p *pacer) release(waited bool) {
	if !waited {
		return
	}
	p.mu.Lock()
	p.waiters--
	p.mu.Unlock()
}

// refund gives back an admitted reservation whose send was abandoned
// (node closing mid-wait): the bytes never hit the wire.
func (p *pacer) refund(n int, waited bool) {
	p.mu.Lock()
	p.debt -= float64(n)
	if p.debt < 0 {
		p.debt = 0
	}
	if waited {
		p.waiters--
	}
	p.mu.Unlock()
}

// loadMilli reports the current load factor in thousandths of the burst
// allowance: 0 idle, loadSaturatedMilli when the committed backlog equals
// one full burst, clamped at loadCeilingMilli. This is the number
// piggybacked on every Insert and ChunkResp.
func (p *pacer) loadMilli() uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rate <= 0 || p.burst <= 0 {
		return 0
	}
	p.advanceLocked(p.now())
	l := p.debt / p.burst * loadSaturatedMilli
	if l > loadCeilingMilli {
		l = loadCeilingMilli
	}
	return uint32(l)
}

// queueDepth reports how many admitted serves are waiting out their pace
// delay (tests, gauges).
func (p *pacer) queueDepth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.waiters
}

// ---------------------------------------------------------------------------
// Node-side glue: what goes on the wire. The coordinator weighs its answer
// by it (index.Table.Select), the viewer its fetch order (health.Rank).

// reportLoadMilli is the load factor this node piggybacks on its
// Inserts and ChunkResps: what lets coordinators weight provider selection
// by capacity and viewers prefer the least-loaded provider.
func (n *Node) reportLoadMilli() uint32 { return n.pace.loadMilli() }
