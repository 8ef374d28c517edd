// Package health is a live node's one per-peer table: everything the node
// believes about how good an address is, keyed by that address, under one
// lock. A row holds a latency EWMA with a running deviation and a
// phi-accrual-style suspicion score (errors and abnormally slow responses
// raise it, timely responses and time decay it), the peer's circuit
// (consecutive transport failures, open / half-open with a single probe),
// its integrity demerits and quarantine, its fetch cooldown, and the last
// load factor it reported. Suspicion only *deprioritizes*: a peer that is
// alive yet degraded never opens a circuit, but it sinks in Rank. Exclusion
// takes conclusive evidence: an open circuit, a quarantine, a cooldown.
//
// Observe is the only liveness feed: one observation per outbound call
// attempt, made by the caller around its transport call (injected faults
// included), so the table sees exactly the latency a caller experienced.
package health

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// CircuitConfig parameterizes the per-address circuit.
type CircuitConfig struct {
	// Threshold is how many consecutive transport failures open a peer's
	// circuit. Values below 1 disable circuits (Allow is always true, Open
	// always false).
	Threshold int
	// Cooldown is how long an open circuit rejects calls before it admits
	// one half-open probe.
	Cooldown time.Duration
}

// DefaultCircuit trips after a burst of failures and probes again two
// seconds later — long enough for stabilization to have purged a dead peer,
// short enough that a rebooted peer rejoins service quickly.
func DefaultCircuit() CircuitConfig {
	return CircuitConfig{Threshold: 5, Cooldown: 2 * time.Second}
}

// Config parameterizes a Tracker: its circuit, and who hears the circuit
// move.
type Config struct {
	Circuit CircuitConfig

	// OnCircuit, if set, is called after a circuit opens (opened=true) or
	// closes again after having been open (opened=false) — the telemetry
	// seam. It runs outside the table's lock but must be fast.
	OnCircuit func(addr string, opened bool)
}

// The table's own tuning. Tests reach other timings through SetNow.
const (
	// halfLife is the decay half-life of the suspicion score: with no new
	// evidence, a peer's suspicion halves every halfLife (aging back to
	// neutral so a recovered peer regains traffic).
	halfLife = 5 * time.Second

	// suspectThreshold is the suspicion score at or above which a peer
	// counts as suspected (Suspected returns true and selection
	// deprioritizes it). One conclusive error contributes errBump (1.0), so
	// it takes a short burst of bad evidence, not a single hiccup.
	suspectThreshold = 3.0

	// MaxPeers bounds the per-address table; beyond it the least recently
	// observed peer is evicted.
	MaxPeers = 1024

	// integrityHalfLife is the decay half-life of the integrity demerit
	// score. Deliberately much slower than suspicion's — integrity demerits
	// decay only with time, never on good responses, so a selective
	// poisoner cannot wash its record out by serving clean chunks in
	// between.
	integrityHalfLife = 30 * time.Second

	// quarantineThreshold is the integrity score at or above which a peer
	// is quarantined: excluded from provider selection outright (unlike
	// suspicion, which only deprioritizes). Each verification failure
	// contributes one unit.
	quarantineThreshold = 3.0

	// QuarantineTTL is how long a quarantine lasts. On expiry the peer
	// starts from a clean integrity slate (repeat offenses re-accumulate).
	QuarantineTTL = 30 * time.Second
)

// Evidence weights. An error is worth one full unit of suspicion; a slow
// response contributes up to slowBumpMax depending on how many deviations
// past the EWMA it landed; a timely response multiplies suspicion by
// okDecay on top of the time decay (good news travels fast).
const (
	errBump     = 1.0
	slowBumpMax = 0.5
	okDecay     = 0.7

	// ewmaAlpha is the per-observation smoothing factor for the latency
	// mean and deviation (~ the last 10 observations dominate).
	ewmaAlpha = 0.2

	// slowSigma is how many deviations past the EWMA a response must land
	// to count as slow evidence at all.
	slowSigma = 4.0

	// loadSaturated is a load factor of 1.0 in the thousandths LoadMilli is
	// reported in: the provider's committed backlog fills its burst.
	loadSaturated = 1000

	// loadTTL bounds how long a heard load factor steers Rank; past it the
	// peer counts as unknown (idle-equal).
	loadTTL = 3 * time.Second

	// loadLieFloor is the latency EWMA (seconds) below which a peer's load
	// claim is never second-guessed: sub-ms LAN jitter must not trip the
	// latency-contradiction clamp.
	loadLieFloor = 0.020

	// MaxRank is how many providers of one lookup answer Rank considers (a
	// coordinator hands out three).
	MaxRank = 8
)

// phase is a circuit's state.
type phase uint8

const (
	closed phase = iota
	open
	halfOpen
)

// peer is one address's row. Latencies are kept in seconds. Each group
// names who writes it and which decision reads it.
type peer struct {
	// Observe writes; Rank, HedgeAfter and the coordinator failover order
	// (Suspicion) read.
	ewma    float64 // latency EWMA
	dev     float64 // EWMA of |sample - ewma| (mean absolute deviation)
	susp    float64 // suspicion score at the time of `at`
	samples uint64
	at      time.Time // last observation (decay reference + LRU eviction)

	// The circuit. Observe writes (Allow only admits the half-open probe);
	// the retried call's gate (Allow) and peer condemnation (Open) read.
	fails    int // consecutive transport failures
	phase    phase
	openedAt time.Time
	probing  bool // the one half-open probe is in flight

	// IntegrityDemerit and ForceQuarantine write; Rank and the coordinator's
	// provider selection and insert gate (Quarantined) read.
	integ     float64   // integrity demerit score at the time of integAt
	integAt   time.Time // integrity decay reference
	quarUntil time.Time // quarantined while now < quarUntil

	// The fetch path writes (Cool after a failed or corrupt transfer,
	// NoteLoad from every ChunkResp); Rank reads.
	coolUntil time.Time // not asked for chunks while now < coolUntil
	load      uint32    // last LoadMilli heard, lying-load clamp applied
	loadAt    time.Time
}

// Tracker is the per-peer table. All methods are safe for concurrent use.
type Tracker struct {
	cfg Config

	mu    sync.Mutex
	peers map[string]*peer
	// everQuarantined is set wherever a quarUntil is written: until the
	// first, Quarantined answers false without the lock or the clock.
	everQuarantined atomic.Bool

	// now is a test seam.
	now func() time.Time
}

// NewTracker builds a tracker with cfg (the zero value has no circuits).
func NewTracker(cfg Config) *Tracker {
	return &Tracker{cfg: cfg, peers: make(map[string]*peer), now: time.Now}
}

// decayedLocked returns p's suspicion decayed to t.
func (p *peer) decayedLocked(t time.Time) float64 {
	dt := t.Sub(p.at)
	if dt <= 0 {
		return p.susp
	}
	return p.susp * math.Exp2(-float64(dt)/float64(halfLife))
}

// rowLocked returns addr's row, adding it when missing — in place of the
// least recently observed one when the table is full. Caller holds t.mu.
func (t *Tracker) rowLocked(addr string, now time.Time) *peer {
	p := t.peers[addr]
	if p != nil {
		return p
	}
	if len(t.peers) >= MaxPeers {
		var oldestAddr string
		var oldest time.Time
		for a, q := range t.peers {
			if oldestAddr == "" || q.at.Before(oldest) {
				oldestAddr, oldest = a, q.at
			}
		}
		delete(t.peers, oldestAddr)
	}
	p = &peer{at: now, integAt: now}
	t.peers[addr] = p
	return p
}

// Observe records one call attempt's outcome against addr. ok=false means
// the attempt failed conclusively (transport error, injected fault,
// timeout); ok=true covers any answered call — including application-level
// rejections, which prove the peer alive. rtt is the attempt's round-trip
// wall time and feeds the latency EWMA only on answered calls (a timeout's
// rtt measures the caller's patience, not the peer). The same observation
// moves the circuit: a failure counts toward opening it (and re-opens it
// when it was the half-open probe), an answer closes it and resets the
// count.
func (t *Tracker) Observe(addr string, rtt time.Duration, ok bool) {
	if addr == "" {
		return
	}
	now := t.now()
	t.mu.Lock()
	p := t.rowLocked(addr, now)
	susp := p.decayedLocked(now)
	if !ok {
		susp += errBump
	} else {
		sample := rtt.Seconds()
		if p.samples == 0 {
			p.ewma = sample
			p.dev = sample / 2
		} else {
			slowAt := p.ewma + slowSigma*p.dev
			if p.samples >= 3 && sample > slowAt && slowAt > 0 {
				// Abnormally slow for this peer: partial evidence, scaled
				// by how far past the slow line it landed.
				excess := (sample - slowAt) / (slowAt + 1e-9)
				bump := slowBumpMax * excess
				if bump > slowBumpMax {
					bump = slowBumpMax
				}
				susp += bump
			} else {
				susp *= okDecay
			}
			d := sample - p.ewma
			p.ewma += ewmaAlpha * d
			p.dev += ewmaAlpha * (math.Abs(d) - p.dev)
		}
		p.samples++
	}
	p.susp = susp
	p.at = now
	moved, opened := false, false
	if ok {
		moved = p.phase != closed
		p.phase, p.fails, p.probing = closed, 0, false
	} else if t.cfg.Circuit.Threshold >= 1 {
		p.fails++
		p.probing = false
		if p.phase == halfOpen || p.fails >= t.cfg.Circuit.Threshold {
			moved, opened = p.phase != open, true
			p.phase, p.openedAt, p.fails = open, now, 0
		}
	}
	t.mu.Unlock()
	if moved && t.cfg.OnCircuit != nil {
		t.cfg.OnCircuit(addr, opened)
	}
}

// Allow reports whether a call to addr may proceed. While the circuit is
// open it returns false until the circuit's Cooldown has elapsed, then admits
// exactly one half-open probe; the probe's observation decides whether the
// circuit closes again or re-opens.
func (t *Tracker) Allow(addr string) bool {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.peers[addr]
	if p == nil || p.phase == closed {
		return true
	}
	if p.phase == open {
		if now.Sub(p.openedAt) < t.cfg.Circuit.Cooldown {
			return false
		}
		p.phase = halfOpen
	}
	if p.probing {
		return false // one probe at a time
	}
	p.probing = true
	return true
}

// Open reports whether addr's circuit is currently open (rejecting).
func (t *Tracker) Open(addr string) bool {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.peers[addr]
	return p != nil && p.phase == open && now.Sub(p.openedAt) < t.cfg.Circuit.Cooldown
}

// Suspicion returns addr's current suspicion score, decayed to now
// (0 = neutral; unknown peers are neutral).
func (t *Tracker) Suspicion(addr string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.peers[addr]
	if p == nil {
		return 0
	}
	return p.decayedLocked(t.now())
}

// Suspected reports whether addr's suspicion is at or above the suspicion
// threshold.
func (t *Tracker) Suspected(addr string) bool {
	return t.Suspicion(addr) >= suspectThreshold
}

// HedgeAfter returns how long a caller should wait on addr before
// launching a hedged duplicate: the peer's p95-ish latency estimate
// (EWMA + slowSigma deviations), clamped to [min, max]. A peer with no
// latency history returns max — hedge conservatively against strangers.
func (t *Tracker) HedgeAfter(addr string, min, max time.Duration) time.Duration {
	if max < min {
		max = min
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.peers[addr]
	if p == nil || p.samples < 3 {
		return max
	}
	d := time.Duration((p.ewma + slowSigma*p.dev) * float64(time.Second))
	if d < min {
		return min
	}
	if d > max {
		return max
	}
	return d
}

// FactorMilli converts addr's suspicion into a load multiplier in
// thousandths: 1000 for a neutral peer, growing linearly with suspicion
// (one error's worth of suspicion doubles the peer's effective load),
// capped at 16000. Selection multiplies a peer's reported load factor by
// this, so degraded peers sink in capacity-weighted ordering without ever
// being excluded outright.
func (t *Tracker) FactorMilli(addr string) uint32 { return factorMilli(t.Suspicion(addr)) }

func factorMilli(susp float64) uint32 { return uint32(min(1000*(1+susp), 16000)) }

// Counts returns how many tracked peers are currently at or above the
// suspicion threshold, quarantined, and on fetch cooldown (gauges).
func (t *Tracker) Counts() (suspected, quarantined, cooling int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	for _, p := range t.peers {
		if p.decayedLocked(now) >= suspectThreshold {
			suspected++
		}
		if now.Before(p.quarUntil) {
			quarantined++
		}
		if now.Before(p.coolUntil) {
			cooling++
		}
	}
	return suspected, quarantined, cooling
}

// Len returns how many peers the tracker holds state for.
func (t *Tracker) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.peers)
}

// SetNow replaces the tracker's clock (tests).
func (t *Tracker) SetNow(now func() time.Time) {
	t.mu.Lock()
	t.now = now
	t.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Integrity dimension: demerits for serving data that failed verification,
// and quarantine — the one place health excludes rather than deprioritizes.
// Latency and suspicion measure how a peer performs; integrity measures
// whether its bytes can be trusted at all, so the response is categorical.

// integLocked returns p's integrity score decayed to t.
func (p *peer) integLocked(t time.Time) float64 {
	dt := t.Sub(p.integAt)
	if dt <= 0 {
		return p.integ
	}
	return p.integ * math.Exp2(-float64(dt)/float64(integrityHalfLife))
}

// IntegrityDemerit charges addr one unit of integrity evidence (a chunk it
// served failed verification) and reports whether this demerit pushed the
// peer over the quarantine threshold. Crossing it starts a QuarantineTTL
// quarantine and resets the score, so a peer that reoffends after release
// must accumulate fresh evidence to be quarantined again.
func (t *Tracker) IntegrityDemerit(addr string) (quarantined bool) {
	if addr == "" {
		return false
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.rowLocked(addr, now)
	integ := p.integLocked(now) + 1
	p.integAt = now
	if integ >= quarantineThreshold && now.After(p.quarUntil) {
		p.quarUntil = now.Add(QuarantineTTL)
		p.integ = 0
		t.everQuarantined.Store(true)
		return true
	}
	p.integ = integ
	return false
}

// ForceQuarantine puts addr under quarantine for QuarantineTTL regardless
// of its accumulated score (coordinator-side verdicts from corroborated
// pollution reports land here). Extends an existing quarantine.
func (t *Tracker) ForceQuarantine(addr string) {
	if addr == "" {
		return
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.rowLocked(addr, now)
	p.quarUntil = now.Add(QuarantineTTL)
	p.integ = 0
	t.everQuarantined.Store(true)
}

// Quarantined reports whether addr is currently quarantined. Until some
// peer has ever been quarantined it takes neither the lock nor the clock:
// the coordinator asks it once per row of every answer.
func (t *Tracker) Quarantined(addr string) bool {
	if !t.everQuarantined.Load() {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.peers[addr]
	return p != nil && t.now().Before(p.quarUntil)
}

// IntegrityScore returns addr's integrity demerit score decayed to now
// (0 = clean; unknown peers are clean).
func (t *Tracker) IntegrityScore(addr string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.peers[addr]
	if p == nil {
		return 0
	}
	return p.integLocked(t.now())
}

// MaxIntegrityScore returns the highest current integrity score across all
// tracked peers (the per-peer demerit gauge's aggregate: the registry has
// no labels, so the gauge surfaces the worst offender).
func (t *Tracker) MaxIntegrityScore() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	max := 0.0
	for _, p := range t.peers {
		if s := p.integLocked(now); s > max {
			max = s
		}
	}
	return max
}

// QuarantinedPeers lists the addresses currently under quarantine.
func (t *Tracker) QuarantinedPeers() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	var out []string
	for a, p := range t.peers {
		if now.Before(p.quarUntil) {
			out = append(out, a)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Provider choice: the fetch blacklist, the load reports, and the one
// ranking that reads them together with quarantine, latency and suspicion.

// Cool takes addr out of Rank's answers for d — the fetch blacklist a
// failed or corrupt chunk transfer earns.
func (t *Tracker) Cool(addr string, d time.Duration) {
	if addr == "" {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.rowLocked(addr, now).coolUntil = now.Add(d)
	t.mu.Unlock()
}

// NoteLoad records the load factor a ChunkResp from addr carried. busy says
// the reply was a Busy nack: a provider shedding for load while advertising
// itself below saturation contradicts its own nack, so it is recorded as
// saturated (and reported as clamped) — the lie cannot buy it traffic.
func (t *Tracker) NoteLoad(addr string, loadMilli uint32, busy bool) (clamped bool) {
	if addr == "" {
		return false
	}
	if clamped = busy && loadMilli < loadSaturated; clamped {
		loadMilli = loadSaturated
	}
	now := t.now()
	t.mu.Lock()
	p := t.rowLocked(addr, now)
	p.load, p.loadAt = loadMilli, now
	t.mu.Unlock()
	return clamped
}

// Rank returns the providers of one lookup answer that may be asked for a
// chunk, in the order to ask them: order[:n]. Self, quarantined and cooling
// peers are left out (integrity failures are categorical, a cooldown is
// the blacklist). The rest sort by effective load, least first — the
// CoolStreaming move of rotating requests toward the partner with spare
// capacity: the freshest load factor heard (stale or never heard = idle, so
// new providers still get traffic), scaled by the suspicion factor so a
// degraded peer sinks without ever being excluded (when every provider is
// degraded, fetches still have somewhere to go). The sort is stable: the
// coordinator's own rotation survives among equals.
//
// Latency-contradiction clamp (the other half of the lying-load defense): a
// provider advertising itself near-idle while its observed latency is over
// loadLieFloor and 4x the best of the answer's cohort is either lying or
// measuring wrong — its report is discounted to saturated. clamped counts
// those. Only the first MaxRank distinct addresses are considered.
func (t *Tracker) Rank(self string, addrs []string) (order [MaxRank]string, n, clamped int) {
	var load, factor [MaxRank]uint64
	var lat [MaxRank]float64 // latency EWMA, 0 = no answered call yet
	best, known := 0.0, 0    // the cohort's lowest EWMA, and how many have one
	now := t.now()
	t.mu.Lock()
	for _, a := range addrs {
		p := t.peers[a]
		if p != nil && p.samples > 0 {
			if known == 0 || p.ewma < best {
				best = p.ewma
			}
			known++
		}
		if n == MaxRank || a == self || slices.Contains(order[:n], a) {
			continue
		}
		factor[n] = 1000
		if p != nil {
			if now.Before(p.quarUntil) || now.Before(p.coolUntil) {
				continue
			}
			if now.Sub(p.loadAt) < loadTTL {
				load[n] = uint64(p.load)
			}
			if p.samples > 0 {
				lat[n] = p.ewma
			}
			factor[n] = uint64(factorMilli(p.decayedLocked(now)))
		}
		order[n] = a
		n++
	}
	t.mu.Unlock()
	for i := 0; i < n; i++ {
		if known >= 2 && load[i] < loadSaturated/2 && lat[i] >= loadLieFloor && lat[i] > 4*best {
			load[i] = loadSaturated
			clamped++
		}
		// +1 so an idle (load 0) suspected peer still ranks behind an idle
		// healthy one.
		load[i] = (load[i] + 1) * factor[i]
		for j := i; j > 0 && load[j] < load[j-1]; j-- {
			load[j], load[j-1] = load[j-1], load[j]
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order, n, clamped
}
