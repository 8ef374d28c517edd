// Package faulty decorates a transport.Transport with deterministic,
// seeded fault injection so live-stack tests can script failures
// reproducibly. Faults are decided per directed (src, dst) pair from a
// counter hashed with the seed: the nth call from A to B suffers the same
// fate in every run with that seed, regardless of how goroutines
// interleave across pairs. This matches the repo's reproducibility rule
// (same seed ⇒ same fault schedule) without requiring a deterministic
// scheduler.
//
// Supported faults: message drop (surfaces as a transport error, the
// compressed form of a timeout), connection refused, added delay,
// duplicate delivery (the request is served twice — exercising handler
// idempotency), payload corruption (one seeded byte flip in a delivered
// chunk — exercising checksum verification), and partition sets that cut
// groups of addresses off from each other.
//
// Gray-failure modes (peers alive but degraded, invisible to a breaker
// that trips only on conclusive errors): mid-frame stalls (the callee
// accepts the request and never finishes; the caller burns its full call
// timeout — SetStalled for every call, SetMidFrameStall for chunk frames
// alone), persistent per-destination slow lanes (SetSlowLane:
// every otherwise-clean call pays a seeded-jitter delay), and asymmetric
// one-way partitions (OneWay: src→dst fails while dst→src flows).
//
// Byzantine modes (peers alive, fast, and actively lying — the pollution
// threat model of internal/live/integrity.go): chunk poisoners
// (SetPoisoner: every k-th chunk served by the marked peer arrives with a
// seeded body mutation under an intact seq header, so only hash
// verification catches it), lying load reporters (SetLoadLiar: the marked
// peer's Inserts and ChunkResps always claim LoadMilli=0, hogging
// selection until the contradiction clamps discount it), and active index
// spam (SpamInserts: a driver-side flood of bogus registrations against
// coordinators, exercising insert rate limits and the provider cap). As
// with corruption, the rewrite happens at the caller's decorator, so the
// marked peer's own code stays honest — the injector supplies the malice.
package faulty

import (
	"fmt"
	"sync"
	"time"

	"dco/internal/transport"
	"dco/internal/wire"
)

// Rule is the fault mix applied to calls toward one destination (or, as
// the default rule, toward every destination without a specific rule).
// Probabilities are independent and checked in the order: refuse, drop,
// duplicate, delay, corrupt.
type Rule struct {
	// Refuse is P(call fails instantly, like a connection refused).
	Refuse float64
	// Drop is P(request is lost; the caller sees a transport error at
	// once, modeling a timeout without paying real timeout waits).
	Drop float64
	// Duplicate is P(request is delivered twice; the caller gets the
	// second reply). Receivers must be idempotent — this verifies it.
	Duplicate float64
	// Delay is P(DelayBy is added before delivery).
	Delay float64
	// DelayBy is the injected latency; the actual delay is uniform in
	// (0, DelayBy] drawn from the seeded schedule.
	DelayBy time.Duration
	// Corrupt is P(a delivered chunk payload has one byte flipped in
	// flight). Only successful ChunkResp payloads are corruptible — control
	// messages stay intact, modeling a data-plane bit error rather than a
	// broken codec. The flipped byte index and XOR mask come from the
	// seeded schedule, so a corrupted run is exactly reproducible.
	Corrupt float64
}

// Action is the outcome chosen for one call.
type Action uint8

// Actions.
const (
	Pass Action = iota
	Refused
	Dropped
	Duplicated
	Delayed
	Partitioned
	Corrupted
	Stalled
	SlowLaned
	OneWayBlocked
	Poisoned
	LoadLied
)

func (a Action) String() string {
	switch a {
	case Pass:
		return "pass"
	case Refused:
		return "refused"
	case Dropped:
		return "dropped"
	case Duplicated:
		return "duplicated"
	case Delayed:
		return "delayed"
	case Partitioned:
		return "partitioned"
	case Corrupted:
		return "corrupted"
	case Stalled:
		return "stalled"
	case SlowLaned:
		return "slowlaned"
	case OneWayBlocked:
		return "onewayblocked"
	case Poisoned:
		return "poisoned"
	case LoadLied:
		return "loadlied"
	default:
		return "unknown"
	}
}

// Decision records what the injector did to one call.
type Decision struct {
	Src, Dst string
	Seq      uint64 // per-(src,dst) call counter, starting at 0
	Action   Action
	Delay    time.Duration
}

// Error is the injected failure type, distinguishable from real
// transport errors in assertions.
type Error struct {
	Action Action
	Dst    string
}

func (e *Error) Error() string {
	return fmt.Sprintf("faulty: %s → %s (injected)", e.Action, e.Dst)
}

// maxHistory bounds the retained decision log (old entries drop).
const maxHistory = 1 << 17

// Injector owns the fault schedule and wraps transports. One Injector is
// shared by every endpoint of a test network so partitions can be
// expressed symmetrically.
type Injector struct {
	seed uint64

	mu       sync.Mutex
	def      Rule
	rules    map[string]Rule           // per destination address
	seqs     map[string]uint64         // per "src|dst" counter
	groups   map[string]int            // partition group per address (0 = none)
	slow     map[string]time.Duration  // persistent slow-lane delay per destination
	stalled  map[string]bool           // persistently stalled destinations (every call)
	stalledD map[string]bool           // persistently stalled chunk frames only
	oneway   []onewayRule              // asymmetric partitions
	poison   map[string]int            // poisoner peers: every k-th served chunk is bad
	poisonN  map[string]uint64         // per-poisoner served-chunk counter (across all requesters)
	poisoned map[string]map[string]int // poisoner → victim → chunks poisoned (never evicted)
	loadliar map[string]bool           // peers whose load reports always claim idle
	history  []Decision
	injected uint64 // non-pass decisions
}

// onewayRule blocks src→dst while leaving dst→src untouched.
type onewayRule struct {
	srcs map[string]bool
	dsts map[string]bool
}

// NewInjector builds an injector with the given schedule seed.
func NewInjector(seed uint64) *Injector {
	return &Injector{
		seed:     seed,
		rules:    make(map[string]Rule),
		seqs:     make(map[string]uint64),
		groups:   make(map[string]int),
		slow:     make(map[string]time.Duration),
		stalled:  make(map[string]bool),
		stalledD: make(map[string]bool),
		poison:   make(map[string]int),
		poisonN:  make(map[string]uint64),
		poisoned: make(map[string]map[string]int),
		loadliar: make(map[string]bool),
	}
}

// SetDefaultRule installs the rule used for destinations without a
// specific rule.
func (in *Injector) SetDefaultRule(r Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.def = r
}

// SetRule installs a destination-specific rule.
func (in *Injector) SetRule(dst string, r Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules[dst] = r
}

// Partition assigns each address set to its own group; calls between
// different groups fail as Partitioned. Addresses never assigned (or in
// group sets from a later call replacing them) communicate freely with
// everyone. Calling Partition replaces all previous assignments.
func (in *Injector) Partition(sets ...[]string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.groups = make(map[string]int)
	for i, set := range sets {
		for _, addr := range set {
			in.groups[addr] = i + 1
		}
	}
}

// SetSlowLane installs (delay > 0) or removes (delay <= 0) a persistent
// slow lane toward dst: every otherwise-clean call to dst pays a seeded
// jittered delay in [delay/2, delay]. Unlike Rule.Delay this is
// unconditional — the lane models a congested or degraded path, not an
// occasional hiccup — so health scoring sees a consistently slow peer.
func (in *Injector) SetSlowLane(dst string, delay time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if delay <= 0 {
		delete(in.slow, dst)
		return
	}
	in.slow[dst] = delay
}

// SetStalled marks (or clears) dst as persistently stalled: every call
// toward it is accepted and then never finishes, burning the caller's
// full call timeout before surfacing an injected error.
func (in *Injector) SetStalled(dst string, stalled bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !stalled {
		delete(in.stalled, dst)
		return
	}
	in.stalled[dst] = true
}

// SetMidFrameStall marks (or clears) dst as stalled mid-frame on chunk
// transfers only: GetChunk calls toward it are accepted and never finish
// (the frame write wedges partway), while small control RPCs — lookups,
// inserts, ring maintenance — still complete normally. This is the
// textbook gray failure: the peer looks perfectly healthy to everything
// except the bulk data path, so only a defense that watches the data path
// itself (hedging, health scoring) can route around it.
func (in *Injector) SetMidFrameStall(dst string, stalled bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !stalled {
		delete(in.stalledD, dst)
		return
	}
	in.stalledD[dst] = true
}

// SetPoisoner marks dst as a chunk poisoner: every everyK-th successful
// chunk payload served by dst (counted per caller, so the schedule is
// interleaving-independent) arrives with a seeded body mutation. The
// 8-byte seq header is kept intact, so the payload is plausible — only
// hash verification at the buffer choke point can reject it. everyK = 1
// is the persistent poisoner (every chunk bad); everyK <= 0 clears.
func (in *Injector) SetPoisoner(dst string, everyK int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if everyK <= 0 {
		delete(in.poison, dst)
		return
	}
	in.poison[dst] = everyK
}

// SetLoadLiar marks (or clears) dst as a lying load reporter: every load
// report it emits — the LoadMilli piggybacked on its Inserts and on the
// ChunkResps it serves — is rewritten to claim a fully idle peer. The lie
// concentrates viewer selection on the liar; the defense is the
// contradiction clamps in internal/live/admission.go.
func (in *Injector) SetLoadLiar(dst string, liar bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !liar {
		delete(in.loadliar, dst)
		return
	}
	in.loadliar[dst] = true
}

// OneWay installs an asymmetric partition: calls from any address in srcs
// to any address in dsts fail as OneWayBlocked, while the reverse
// direction flows untouched — the classic gray failure where A can reach
// B but B's answers (or B's own calls) never make it back. Repeated calls
// accumulate; Heal clears them along with symmetric partitions.
func (in *Injector) OneWay(srcs, dsts []string) {
	r := onewayRule{srcs: make(map[string]bool, len(srcs)), dsts: make(map[string]bool, len(dsts))}
	for _, a := range srcs {
		r.srcs[a] = true
	}
	for _, a := range dsts {
		r.dsts[a] = true
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.oneway = append(in.oneway, r)
}

// Heal removes all partitions, symmetric and one-way, plus slow lanes and
// persistent stalls.
func (in *Injector) Heal() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.groups = make(map[string]int)
	in.oneway = nil
	in.slow = make(map[string]time.Duration)
	in.stalled = make(map[string]bool)
	in.stalledD = make(map[string]bool)
}

// History returns a copy of the decision log (most recent maxHistory
// entries, in decision order).
func (in *Injector) History() []Decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Decision(nil), in.history...)
}

// Injected returns how many calls received a non-pass decision.
func (in *Injector) Injected() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected
}

// Wrap decorates tr with this injector's fault schedule. The wrapped
// transport serves inbound traffic untouched; only outbound Calls are
// subject to faults (each call is judged once, at the caller).
func (in *Injector) Wrap(tr transport.Transport) transport.Transport {
	return &faultTransport{in: in, inner: tr}
}

// decide rolls the deterministic schedule for the next call src→dst.
func (in *Injector) decide(src, dst string, dataFrame bool) Decision {
	in.mu.Lock()
	key := src + "|" + dst
	seq := in.seqs[key]
	in.seqs[key]++
	rule, ok := in.rules[dst]
	if !ok {
		rule = in.def
	}
	sg, dg := in.groups[src], in.groups[dst]
	blockedOneWay := false
	for _, ow := range in.oneway {
		if ow.srcs[src] && ow.dsts[dst] {
			blockedOneWay = true
			break
		}
	}
	stalledDst := in.stalled[dst] || (dataFrame && in.stalledD[dst])
	slowLane := in.slow[dst]
	in.mu.Unlock()

	d := Decision{Src: src, Dst: dst, Seq: seq, Action: Pass}
	switch {
	case sg != 0 && dg != 0 && sg != dg:
		d.Action = Partitioned
	case blockedOneWay:
		d.Action = OneWayBlocked
	case stalledDst:
		d.Action = Stalled
	case roll(in.seed, key, seq, 0) < rule.Refuse:
		d.Action = Refused
	case roll(in.seed, key, seq, 1) < rule.Drop:
		d.Action = Dropped
	case roll(in.seed, key, seq, 2) < rule.Duplicate:
		d.Action = Duplicated
	case roll(in.seed, key, seq, 3) < rule.Delay:
		d.Action = Delayed
		d.Delay = time.Duration(roll(in.seed, key, seq, 4) * float64(rule.DelayBy))
	case roll(in.seed, key, seq, 5) < rule.Corrupt:
		d.Action = Corrupted
	case slowLane > 0:
		// Persistent slow lane: the call goes through, late. Jitter in
		// [delay/2, delay] from the seeded schedule (lane 9).
		d.Action = SlowLaned
		d.Delay = slowLane/2 + time.Duration(roll(in.seed, key, seq, 9)*float64(slowLane/2))
	}

	in.record(d)
	return d
}

// record appends one decision to the bounded history log.
func (in *Injector) record(d Decision) {
	in.mu.Lock()
	if len(in.history) >= maxHistory {
		in.history = in.history[1:]
	}
	in.history = append(in.history, d)
	if d.Action != Pass {
		in.injected++
	}
	in.mu.Unlock()
}

// bendRequest applies Byzantine rewrites to an outbound request from src:
// a load liar's Insert registrations always claim an idle peer. The
// message is cloned, never mutated — the caller may still hold it.
func (in *Injector) bendRequest(src, dst string, req wire.Message) wire.Message {
	in.mu.Lock()
	liar := in.loadliar[src]
	in.mu.Unlock()
	if !liar {
		return req
	}
	m, ok := req.(*wire.Insert)
	if !ok || m.Unregister || m.LoadMilli == 0 {
		return req
	}
	c := *m
	c.LoadMilli = 0
	in.record(Decision{Src: src, Dst: dst, Action: LoadLied})
	return &c
}

// bendResponse applies Byzantine rewrites to a response arriving at src
// from dst: a poisoner's k-th chunk payload is mutated, and a load liar's
// piggybacked load report claims idle. In-place mutation is safe for the
// same reason corrupt relies on it — the Mem transport round-trips every
// reply through the wire codec, so this copy is the caller's alone.
func (in *Injector) bendResponse(src, dst string, resp wire.Message) wire.Message {
	cr, ok := resp.(*wire.ChunkResp)
	if !ok {
		return resp
	}
	in.mu.Lock()
	everyK := in.poison[dst]
	liar := in.loadliar[dst]
	var served uint64
	key := src + "|" + dst
	if everyK > 0 && cr.OK && len(cr.Data) > 0 {
		// The counter is per poisoner, not per (caller, poisoner) pair: a
		// real every-k poisoner corrupts every k-th chunk it serves no
		// matter who asked, so spreading requests across many victims does
		// not dilute the poison rate.
		served = in.poisonN[dst]
		in.poisonN[dst]++
	}
	in.mu.Unlock()
	if liar && cr.LoadMilli != 0 {
		cr.LoadMilli = 0
		in.record(Decision{Src: src, Dst: dst, Action: LoadLied})
	}
	if everyK > 0 && cr.OK && len(cr.Data) > 0 && served%uint64(everyK) == uint64(everyK-1) {
		poisonChunk(in.seed, key, served, cr)
		in.mu.Lock()
		if in.poisoned[dst] == nil {
			in.poisoned[dst] = make(map[string]int)
		}
		in.poisoned[dst][src]++
		in.mu.Unlock()
		in.record(Decision{Src: src, Dst: dst, Seq: served, Action: Poisoned})
	}
	return resp
}

// PoisonStats reports, per marked poisoner, how many chunks it poisoned
// toward each caller. Unlike History — a bounded log where a busy soak's
// flood of Pass records evicts old entries — this tally is never evicted,
// so it is the reliable source for per-poisoner exposure accounting.
func (in *Injector) PoisonStats() map[string]map[string]int {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]map[string]int, len(in.poisoned))
	for dst, m := range in.poisoned {
		c := make(map[string]int, len(m))
		for src, k := range m {
			c[src] = k
		}
		out[dst] = c
	}
	return out
}

// poisonChunk applies the seeded body mutation for the served-th poisoned
// chunk on the src|dst pair: one byte past the 8-byte seq header is
// XOR-flipped (lanes 10/11 of the schedule), leaving a payload that
// parses, claims the right seq, and fails hash verification.
func poisonChunk(seed uint64, key string, served uint64, cr *wire.ChunkResp) {
	start := 8
	if len(cr.Data) <= start {
		start = 0
	}
	span := len(cr.Data) - start
	idx := start + int(roll(seed, key, served, 10)*float64(span))
	if idx >= len(cr.Data) {
		idx = len(cr.Data) - 1
	}
	mask := byte(1 + uint64(roll(seed, key, served, 11)*255))
	cr.Data[idx] ^= mask
}

// roll maps (seed, pair, call counter, fault lane) to a uniform float in
// [0, 1). Pure function — the heart of the reproducibility guarantee.
func roll(seed uint64, key string, seq uint64, lane uint64) float64 {
	// FNV-1a over the pair key, then splitmix64 finalization mixing in
	// the seed, counter, and lane.
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	x := h ^ seed ^ (seq * 0x9E3779B97F4A7C15) ^ (lane << 56)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// faultTransport applies the injector's schedule to outbound calls.
type faultTransport struct {
	in    *Injector
	inner transport.Transport
}

// Addr returns the wrapped transport's address.
func (f *faultTransport) Addr() string { return f.inner.Addr() }

// Close closes the wrapped transport.
func (f *faultTransport) Close() error { return f.inner.Close() }

// Call applies one scheduled decision, then delegates to the inner
// transport (zero, one, or two times).
func (f *faultTransport) Call(addr string, req wire.Message, timeout time.Duration) (wire.Message, error) {
	req = f.in.bendRequest(f.inner.Addr(), addr, req)
	resp, err := f.inject(addr, req, timeout)
	if err != nil {
		return nil, err
	}
	return f.in.bendResponse(f.inner.Addr(), addr, resp), nil
}

// inject applies the scheduled transport-level fault (the Byzantine
// rewrites happen around it, in call).
func (f *faultTransport) inject(addr string, req wire.Message, timeout time.Duration) (wire.Message, error) {
	_, dataFrame := req.(*wire.GetChunk)
	d := f.in.decide(f.inner.Addr(), addr, dataFrame)
	switch d.Action {
	case Partitioned:
		return nil, &Error{Action: Partitioned, Dst: addr}
	case OneWayBlocked:
		return nil, &Error{Action: OneWayBlocked, Dst: addr}
	case Stalled:
		// Mid-frame stall: the callee accepted and will never finish. The
		// caller pays its entire timeout budget — uncompressed, because the
		// wall-clock cost is exactly what the gray-failure defenses must
		// bound.
		wait := timeout
		if wait <= 0 {
			wait = 10 * time.Second // transport's own default patience
		}
		time.Sleep(wait)
		return nil, &Error{Action: Stalled, Dst: addr}
	case Refused:
		return nil, &Error{Action: Refused, Dst: addr}
	case Dropped:
		return nil, &Error{Action: Dropped, Dst: addr}
	case Duplicated:
		if _, err := f.inner.Call(addr, req, timeout); err != nil {
			return nil, err
		}
		return f.inner.Call(addr, req, timeout)
	case Delayed, SlowLaned:
		if d.Delay > 0 {
			time.Sleep(d.Delay)
		}
	case Corrupted:
		resp, err := f.inner.Call(addr, req, timeout)
		if err != nil {
			return nil, err
		}
		corrupt(f.in.seed, d, resp)
		return resp, nil
	}
	return f.inner.Call(addr, req, timeout)
}

// corrupt flips one seeded byte of a successful chunk payload in the
// response. Only *wire.ChunkResp carries a payload; every other message
// (and empty or failed chunk replies) passes through untouched — the
// decision still counts as injected, modeling a bit error that happened
// to hit a frame with nothing to damage. Mutating the response in place
// is safe because the Mem transport round-trips every reply through the
// wire codec, so the callee's copy is never shared with the caller.
func corrupt(seed uint64, d Decision, resp wire.Message) {
	cr, ok := resp.(*wire.ChunkResp)
	if !ok || !cr.OK || len(cr.Data) == 0 {
		return
	}
	key := d.Src + "|" + d.Dst
	idx := int(roll(seed, key, d.Seq, 6) * float64(len(cr.Data)))
	if idx >= len(cr.Data) {
		idx = len(cr.Data) - 1
	}
	// Mask drawn from [1, 255] so the flip always changes the byte.
	mask := byte(1 + uint64(roll(seed, key, d.Seq, 7)*255))
	cr.Data[idx] ^= mask
}

// SpamConfig parameterizes an index-spam run: which coordinators to
// flood, how to map a sequence to its DHT key (the same hash the honest
// stack uses, so the spam lands on real owners), which fake holder
// identities to register, and the pacing.
type SpamConfig struct {
	Targets  []string               // coordinator addresses to flood
	KeyFor   func(seq int64) uint64 // seq → index key
	Seqs     func(i int) int64      // i-th bogus registration's sequence
	Holders  []wire.Entry           // fake provider identities to rotate
	Interval time.Duration          // pause between bursts (default 10ms)
	Burst    int                    // registrations per burst (default 8)
}

// SpamInserts floods the target coordinators with bogus provider
// registrations until stop closes — the active index-pollution attacker.
// Rejections (rate limit, horizon, provider cap) are ignored: a real
// polluter does not care. Call it in its own goroutine with a transport
// attached to the test fabric; the src address is the attacker identity
// the defense should end up rate-limiting.
func SpamInserts(stop <-chan struct{}, tr transport.Transport, cfg SpamConfig) {
	interval := cfg.Interval
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	burst := cfg.Burst
	if burst <= 0 {
		burst = 8
	}
	for i := 0; ; {
		select {
		case <-stop:
			return
		default:
		}
		for b := 0; b < burst; b++ {
			seq := cfg.Seqs(i)
			holder := cfg.Holders[i%len(cfg.Holders)]
			i++
			for _, t := range cfg.Targets {
				msg := &wire.Insert{Key: cfg.KeyFor(seq), Seq: seq, Holder: holder, UpBps: 1 << 20}
				_, _ = tr.Call(t, msg, 200*time.Millisecond)
			}
		}
		select {
		case <-stop:
			return
		case <-time.After(interval):
		}
	}
}

var _ transport.Transport = (*faultTransport)(nil)
