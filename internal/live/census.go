package live

// Ring census & split-brain merge (see DESIGN.md, "Partitions & ring merge").
//
// A transient network partition bisects the overlay into two
// self-consistent networks. Routine maintenance alone can never re-merge
// them: each half's tables only reference members of that half, and every
// maintenance action preserves whatever network the node is on. Three
// pieces close the hole, all backend-neutral:
//
//  1. A bounded member cache (dht.MemberCache) remembers previously-seen
//     members, fed passively from the kernel's Seen events and live-plane
//     traffic — and deliberately NOT purged when a member becomes
//     unreachable, since an unreachable member may be on the far side of a
//     partition.
//  2. A periodic low-rate census probes a few cached members outside the
//     current membership view (Kernel.View). A probe answered by a member
//     absent from our view whose view is likewise missing us flags a
//     suspected split; routing this node's own ID through the foreign
//     member (Kernel.FindOwnerFrom) confirms it — in a single network that
//     lookup lands back on self (Chord: the ring closes; Kademlia: self is
//     XOR-distance zero from its own ID, and its neighbors know it).
//  3. Kernel.Merge folds the foreign network into the local tables and
//     seeds the backend's convergence cascade (Chord: monotone candidate
//     folds + notifies; Kademlia: bucket inserts + an advertising
//     self-lookup). Post-merge, index reconciliation (replication flush +
//     anti-entropy, then every registration due) repairs ownership ranges
//     within a re-registration tick instead of a refresh period.

import (
	"fmt"
	"time"

	"dco/internal/dht"
	"dco/internal/wire"
)

// noteMembers records sightings of overlay members in the census member
// cache. Deliberately NOT fed to the kernel: live-plane entries (insert
// holders, census views) are third-party claims, and a Kademlia routing
// table only admits contacts it heard from directly — its own protocol
// traffic, lookup answers, and the confirmed Merge path. Letting unverified
// claims shift XOR ownership would bounce in-flight index ops off
// fabricated or stale members.
func (n *Node) noteMembers(es ...wire.Entry) {
	now := time.Now()
	for _, e := range es {
		n.members.Note(dht.FromWire(e), now)
	}
}

// ringView is this node's current membership view on the wire: the
// kernel's View (self always first). A view of size one means a lone node.
func (n *Node) ringView() []wire.Entry {
	view := n.kern.View()
	out := make([]wire.Entry, 0, len(view))
	for _, m := range view {
		out = append(out, m.Wire())
	}
	return out
}

// foreignMembers lists the cached members outside view.
func (n *Node) foreignMembers(view []wire.Entry) []dht.Member {
	var out []dht.Member
	for _, m := range n.members.Members() {
		if !viewHas(view, m.Addr) {
			out = append(out, m)
		}
	}
	return out
}

// ringDigest hashes a membership view: FNV-1a over the member addresses in
// view order (ringView's output is deterministic for a given state,
// so equal views digest equally). Probe and response carry it so unchanged
// views compare in O(1).
func ringDigest(view []wire.Entry) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, e := range view {
		for i := 0; i < len(e.Addr); i++ {
			h ^= uint64(e.Addr[i])
			h *= prime64
		}
		h ^= 0xff
		h *= prime64
	}
	return h
}

// viewHas reports whether a membership view contains addr.
func viewHas(view []wire.Entry, addr string) bool {
	for _, e := range view {
		if e.Addr == addr {
			return true
		}
	}
	return false
}

// splitSuspected is the cheap split filter between this node's view and a
// census peer's: suspicious when neither endpoint appears in the other's
// view. Requiring the two views to be *fully* disjoint would be too
// strong: view tails go stale after a partition purge, and a single
// far-side breadcrumb lingering in one tail would mask a real split
// forever. Mutual absence is only a *suspicion* — distant nodes of one
// large network also satisfy it — and maybeMerge's confirmation lookup
// supplies the proof at the cost of one bounded lookup per suspicion.
func splitSuspected(self string, mine []wire.Entry, peer wire.Entry, theirs []wire.Entry) bool {
	return !viewHas(mine, peer.Addr) && !viewHas(theirs, self)
}

// census is the periodic beacon loop: probe up to censusProbes cached
// members outside the current membership view and compare views. Probes
// use the single-shot call path — a failed probe is itself the signal (the
// member is still unreachable), and its observation is how a
// healed peer's circuit resets the moment a probe gets through.
func (n *Node) census() {
	view := n.ringView()
	cands := n.foreignMembers(view)
	if len(cands) == 0 {
		return
	}
	self := n.wireSelf()
	digest := ringDigest(view)
	lone := len(view) == 1
	probe := &wire.CensusProbe{From: self, Digest: digest, Members: view}
	for i := 0; i < min(censusProbes, len(cands)); i++ {
		t := cands[(n.censusCursor.Add(1)-1)%uint64(len(cands))]
		n.lm.CensusProbes.Inc()
		resp, err := n.call(t.Addr, probe, n.cfg.CallTimeout)
		if err != nil {
			continue
		}
		cr, ok := resp.(*wire.CensusResp)
		if !ok {
			continue
		}
		n.lm.CensusAnswered.Inc()
		n.noteMembers(cr.From)
		n.noteMembers(cr.Members...)
		if lone {
			// Lone-node recovery: a lone node re-bootstraps through any
			// member that answers. No confirmation lookup — a lone node
			// claims every key, so a stale far-side view could route the
			// confirmation straight back here and fake "same network"
			// forever.
			n.maybeMerge(cr.From, cr.Members, true)
			continue
		}
		if cr.Digest == digest {
			continue // identical view: same network, nothing to do
		}
		if !splitSuspected(self.Addr, view, cr.From, cr.Members) {
			continue // shared neighborhood: same network, different vantage
		}
		n.maybeMerge(cr.From, cr.Members, false)
	}
}

// onCensusProbe answers a census probe with this node's membership view.
// The response is built immediately (the prober is waiting on a transport
// goroutine); split handling runs asynchronously, so a one-way probe heals
// both halves — the responder detects the same disjointness the prober
// will, and both merge toward each other (Kernel.Merge is monotone /
// idempotent per backend, which is what makes the simultaneous merges
// safe).
func (n *Node) onCensusProbe(m *wire.CensusProbe) wire.Message {
	view := n.ringView()
	n.noteMembers(m.From)
	n.noteMembers(m.Members...)
	self := n.wireSelf()
	digest := ringDigest(view)
	lone := len(view) == 1
	if m.From.Addr != self.Addr && m.Digest != digest {
		if lone || splitSuspected(self.Addr, view, m.From, m.Members) {
			theirs := append([]wire.Entry{m.From}, m.Members...)
			go n.maybeMerge(m.From, theirs, lone)
		}
	}
	return &wire.CensusResp{From: self, Digest: digest, Members: view}
}

// maybeMerge runs the split-brain merge protocol against a foreign member
// whose membership view was disjoint from ours. Merge attempts are
// serialized by the merging flag (detection fires concurrently from the
// census loop and inbound probes); a skipped attempt is retried by the
// next census round.
//
// lone skips the confirmation lookup: a lone node adopts any live member
// directly (see census for why confirmation would be unsound there).
func (n *Node) maybeMerge(foreign wire.Entry, theirs []wire.Entry, lone bool) {
	if foreign.Addr == "" || foreign.Addr == n.Addr() {
		return
	}
	if !n.merging.CompareAndSwap(false, true) {
		return
	}
	defer n.merging.Store(false)
	select {
	case <-n.closed:
		return
	default:
	}
	start := time.Now()

	target := dht.FromWire(foreign)
	if !lone {
		// Confirmation: route our own ID through the foreign member. In a
		// single network (however large — distant nodes legitimately have
		// disjoint views) the lookup lands back on this node; a stranger
		// answering proves the foreign member is on another network, and
		// that stranger is exactly the node whose claimed range covers our
		// ID — the one node guaranteed to adopt us into its tables.
		owner, err := n.kern.FindOwnerFrom(foreign.Addr, n.self.ID)
		if err != nil {
			return // unreachable or mid-churn: the next census round retries
		}
		if owner.Addr == n.Addr() {
			return // same network: disjoint views were a false alarm
		}
		target = owner
	}
	if target.Addr == n.lastMerge && time.Since(n.lastMergeAt) < dht.PeerQuarantine {
		return // merged with it already; the next census round looks again
	}
	n.lm.SplitsDetected.Inc()
	n.traceEvent("ring.split", fmt.Sprintf("via=%s owner=%s lone=%v", foreign.Addr, target.Addr, lone))

	// Fold the foreign members into the kernel's tables and let the
	// backend seed its convergence cascade. Members that tighten nothing
	// still land in the member cache for future censuses.
	n.noteMembers(theirs...)
	var others []dht.Member
	for _, e := range theirs {
		if e.Addr == "" || e.Addr == n.self.Addr {
			continue
		}
		others = append(others, dht.FromWire(e))
	}
	n.kern.Merge(target, others)
	n.lastMerge, n.lastMergeAt = target.Addr, time.Now()
	n.lm.RingMerges.Inc()
	n.lm.MergeSeconds.Observe(time.Since(start).Seconds())
	n.traceEvent("ring.merge", fmt.Sprintf("target=%s lone=%v", target.Addr, lone))

	n.reconcile()
}

// reconcile is the post-merge index repair: push pending replication ops to
// the (possibly new) replica set, run an anti-entropy round across the new
// replica relationships, and make every registration of this node due, so
// the next re-registration tick refreshes each with its (possibly changed)
// coordinator.
func (n *Node) reconcile() {
	n.replicateFlush()
	n.antiEntropy()
	n.mu.Lock()
	n.refreshed = time.Time{}
	due := len(n.regs)
	n.mu.Unlock()
	n.traceEvent("ring.reconcile", fmt.Sprintf("due=%d", due))
}

// ForeignMembers reports how many cached members are outside the current
// membership view (tests, the dco_live_foreign_members gauge). After a
// merge completes and views converge, this returns toward zero for a
// healthy cache — every cached member is in view again.
func (n *Node) ForeignMembers() int { return len(n.foreignMembers(n.ringView())) }

// MemberCacheLen reports the member-cache size (tests, gauge).
func (n *Node) MemberCacheLen() int { return n.members.Len() }
