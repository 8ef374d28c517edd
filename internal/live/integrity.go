package live

// Byzantine data-plane defense (see DESIGN.md, "Threat model & pollution
// defense"). The overlay lets any peer serve chunks and insert index
// entries — the paper's openness is also its attack surface. This file is
// the integrity layer closing it:
//
//   - One verification choke point: storeChunk refuses any payload that
//     fails the generator check (VerifyChunkPayload) — nothing enters the
//     buffer map or gets re-served unverified. The generator is the trust
//     anchor: it yields exactly one valid body per seq, so any peer checks
//     any chunk on its own, with nothing to fetch first.
//   - Quarantine: a peer that serves polluted bytes is charged integrity
//     demerits (internal/health); repeat offenders are excluded from
//     provider selection outright, reported to the chunk's coordinator,
//     and — once enough distinct reporters agree — scrubbed from the index.
//   - Index hardening: per-holder insert rate limits, a provider cap per
//     entry, and a live-edge horizon bound what a spammer can register.
//
// What is deliberately NOT defended: Sybil identities and eclipse
// placement. Reporter identities are unauthenticated (hence the
// distinct-reporter threshold), and a spammer can mint holder addresses
// faster than any per-address limit can bind. DESIGN.md says so out loud.

import (
	"fmt"
	"sync"
	"time"

	"dco/internal/dht"
	"dco/internal/health"
	"dco/internal/wire"
)

// punishPoisoner charges addr for serving a polluted chunk: blacklist (it
// is not asked again this cooldown), an integrity demerit (enough of them
// quarantines it from selection entirely), and a best-effort pollution
// report to the chunk's coordinator so the index stops advertising it.
func (n *Node) punishPoisoner(addr string, seq int64) {
	if addr == "" {
		return
	}
	n.blacklistProvider(addr)
	if n.health.IntegrityDemerit(addr) {
		n.noteQuarantined(addr, "demerits")
	}
	n.reportPollution(addr, seq)
}

// noteQuarantined records a quarantine entry (either trigger path).
func (n *Node) noteQuarantined(addr, why string) {
	n.lm.PeersQuarantined.Inc()
	n.traceEvent("peer.quarantine", "peer="+addr+" why="+why)
	n.guard.mu.Lock()
	n.guard.quarLog[addr] = true
	n.guard.mu.Unlock()
}

// pollutionReportCooldown bounds how often this node re-accuses the same
// peer — one report per offender per window carries all the signal.
const pollutionReportCooldown = 5 * time.Second

// reportPollution sends one PollutionReport for target, at most once per
// target per cooldown, to up to three coordinators: seq's coordinator
// (the one node that can scrub the polluted entry) and two salted
// per-target rendezvous points, so that accusations from viewers who hit
// the same poisoner on different chunks still converge on a common tally.
// The salt keeps a rendezvous off the target's own ring position (a node
// owns its own address hash and would shrug off the accusation); two of
// them make "both rendezvous owners are the accused or its accomplices"
// vanishingly unlikely. Fire-and-forget: the report is an optimization
// (the reporter already protects itself via demerits); losing one costs
// nothing but time.
func (n *Node) reportPollution(target string, seq int64) {
	g := &n.guard
	g.mu.Lock()
	at, ok := g.reportedAt[target]
	if ok && time.Since(at) < pollutionReportCooldown {
		g.mu.Unlock()
		return
	}
	if !ok {
		// Forgetting the oldest accusation costs at most one early repeat.
		evictOldest(g.reportedAt, accusationLedger, func(t time.Time) time.Time { return t })
	}
	g.reportedAt[target] = time.Now()
	g.mu.Unlock()

	key := uint64(n.cfg.Channel.Ref(seq).ID())
	msg := &wire.PollutionReport{
		From:   n.wireSelf(),
		Key:    key,
		Seq:    seq,
		Target: wire.Entry{ID: dht.IDOf(target), Addr: target},
	}
	n.lm.PollutionReportsSent.Inc()
	// Untracked goroutine by design (like fetchOnce's hedge legs): it is
	// bounded by the call timeouts and a closed transport fails it fast.
	go func() {
		sent := make(map[string]bool, 3)
		deliver := func(k uint64) {
			owner, err := n.ownerOf(k)
			if err != nil || sent[owner.Addr] || owner.Addr == target {
				return
			}
			sent[owner.Addr] = true
			if owner.Addr == n.Addr() {
				n.onPollutionReport(msg)
				return
			}
			_, _ = n.call(owner.Addr, msg, n.cfg.CallTimeout)
		}
		deliver(key)
		deliver(dht.IDOf("pollution/1/" + target))
		deliver(dht.IDOf("pollution/2/" + target))
	}()
}

// onPollutionReport tallies an accusation against m.Target. Once
// pollutionReporters distinct reporters accuse the same peer within the
// quarantine window, the coordinator force-quarantines it and scrubs its
// provider rows from the owned index (with unregister ops replicated, so
// the scrub survives failover). Reporter identities are unauthenticated —
// the threshold is what keeps one slanderer from evicting a peer.
func (n *Node) onPollutionReport(m *wire.PollutionReport) wire.Message {
	if m.Target.Addr == "" || m.From.Addr == "" || m.From.Addr == m.Target.Addr {
		return &wire.Error{Code: wire.CodeBadRequest, Msg: "malformed pollution report"}
	}
	n.lm.PollutionReportsSeen.Inc()
	if m.Target.Addr == n.Addr() {
		// Accusations against this node are noted (counter above) but it
		// will not quarantine itself; honest nodes never serve polluted
		// bytes, so these are either slander or a corrupting link.
		return &wire.Ack{}
	}
	now := time.Now()
	g := &n.guard
	g.mu.Lock()
	reporters := g.pollution[m.Target.Addr]
	if reporters == nil {
		// A reporter-spammer must not grow the tally table without limit.
		// Dropping the oldest tally only delays justice.
		evictOldest(g.pollution, accusationLedger, newestReport)
		reporters = make(map[string]time.Time)
		g.pollution[m.Target.Addr] = reporters
	}
	reporters[m.From.Addr] = now
	for a, at := range reporters {
		if now.Sub(at) >= health.QuarantineTTL {
			delete(reporters, a)
		}
	}
	distinct := len(reporters)
	g.mu.Unlock()
	if distinct >= pollutionReporters && !n.health.Quarantined(m.Target.Addr) {
		n.health.ForceQuarantine(m.Target.Addr)
		// Scrub the target's rows from the owned index, with the unregisters
		// replicated so that the scrub survives coordinator failover.
		scrubbed := n.idx.Scrub(m.Target.Addr)
		for _, op := range scrubbed {
			n.enqueueReplica(op)
		}
		n.noteQuarantined(m.Target.Addr, fmt.Sprintf("reports=%d scrubbed=%d", distinct, len(scrubbed)))
	}
	return &wire.Ack{}
}

// ---------------------------------------------------------------------------
// Index hardening: what onInsert checks before accepting a registration.

// pollutionGuard is the bookkeeping of the index-pollution defense, under a
// lock of its own: per-holder insert token buckets, the pollution-report
// tally per accused peer, when this node last accused whom, and the set of
// peers it ever quarantined (soak oracles read it; quarantines expire, the
// log does not).
type pollutionGuard struct {
	mu         sync.Mutex
	insRate    map[string]*insertBucket
	pollution  map[string]map[string]time.Time
	reportedAt map[string]time.Time
	quarLog    map[string]bool
}

func newPollutionGuard() pollutionGuard {
	return pollutionGuard{
		insRate:    make(map[string]*insertBucket),
		pollution:  make(map[string]map[string]time.Time),
		reportedAt: make(map[string]time.Time),
		quarLog:    make(map[string]bool),
	}
}

// Bounds on the guard's address-keyed tables: at one, the entry touched
// longest ago makes room for the new address.
const (
	insertBuckets    = 4096 // per-holder insert buckets; a forgotten one starts full
	accusationLedger = 1024 // tallies of accusations heard, and this node's own accusations
)

// evictOldest makes room for one more entry in m once it holds max: the
// entry whose age reads oldest goes.
func evictOldest[V any](m map[string]V, max int, age func(V) time.Time) {
	if len(m) < max {
		return
	}
	var oldest string
	var oldestAt time.Time
	first := true
	for k, v := range m {
		if at := age(v); first || at.Before(oldestAt) {
			oldest, oldestAt, first = k, at, false
		}
	}
	delete(m, oldest)
}

// newestReport is a tally's age: when its latest accusation arrived.
func newestReport(reporters map[string]time.Time) (newest time.Time) {
	for _, at := range reporters {
		if at.After(newest) {
			newest = at
		}
	}
	return newest
}

// insertBucket is one holder's insert token bucket.
type insertBucket struct {
	tokens float64
	last   time.Time
}

// takeInsertToken charges holder's bucket (rate per second, burst 2x) cost
// tokens, reporting whether it had one: the rest of the cost is paid in
// arrears.
func (g *pollutionGuard) takeInsertToken(holder string, cost int, rate float64, now time.Time) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.insRate[holder]
	if b == nil {
		evictOldest(g.insRate, insertBuckets, func(b *insertBucket) time.Time { return b.last })
		b = &insertBucket{tokens: 2 * rate, last: now}
		g.insRate[holder] = b
	}
	b.tokens = min(b.tokens+now.Sub(b.last).Seconds()*rate, 2*rate)
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens -= float64(cost)
	return true
}

// errRateLimited refuses an insert past its holder's rate.
var errRateLimited = &wire.Error{Code: wire.CodeBusy, Msg: "live: insert rate limited"}

// insertToken charges holder cost tokens against the per-holder rate limit.
func (n *Node) insertToken(holder string, cost int) bool {
	if rate := n.cfg.InsertRate; rate > 0 && !n.guard.takeInsertToken(holder, cost, rate, time.Now()) {
		n.lm.InsertsRateLimited.Inc()
		return false
	}
	return true
}

// rowRefused is the gate every row passes into the owned index: quarantined
// holders are refused, and so are seqs past the live-edge horizon — the
// newest seq this node generated or buffered (-1 = no idea). nil = allowed.
func (n *Node) rowRefused(holder string, seq int64) *wire.Error {
	if n.health.Quarantined(holder) {
		n.lm.InsertsRejected.Inc()
		return &wire.Error{Code: wire.CodeBadRequest, Msg: "live: holder quarantined"}
	}
	if edge := n.LatestGenerated(); edge >= 0 && seq > edge+insertHorizon {
		n.lm.InsertsRejected.Inc()
		return &wire.Error{Code: wire.CodeBadRequest, Msg: "live: seq beyond live-edge horizon"}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Soak oracles.

// VerifyBuffered re-verifies every buffered chunk against the generator
// and returns how many fail — the byzantine soak's "zero polluted chunks
// accepted" gate reads it. The buffer choke point makes nonzero a bug.
func (n *Node) VerifyBuffered() int {
	n.mu.Lock()
	snapshot := make(map[int64][]byte, len(n.chunks))
	for seq, data := range n.chunks {
		snapshot[seq] = data
	}
	n.mu.Unlock()
	bad := 0
	for seq, data := range snapshot {
		if !VerifyChunkPayload(n.cfg.Channel, seq, data) {
			bad++
		}
	}
	return bad
}

// EverQuarantined lists every peer this node quarantined at any point
// (quarantines expire; this log does not — soak gates read it).
func (n *Node) EverQuarantined() []string {
	n.guard.mu.Lock()
	defer n.guard.mu.Unlock()
	out := make([]string, 0, len(n.guard.quarLog))
	for a := range n.guard.quarLog {
		out = append(out, a)
	}
	return out
}
