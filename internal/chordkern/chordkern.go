// Package chordkern implements the dht.Kernel contract with the Chord ring
// the paper assumes: successor-list routing, finger tables, and the
// stabilize/notify maintenance protocol. The pure ring state machine stays
// in internal/chord (shared with the simulator); this package owns the
// networked half — the RPC handlers and maintenance loops that used to live
// inside internal/live — behind the backend-neutral interface.
package chordkern

import (
	"fmt"
	"sync"
	"time"

	"dco/internal/chord"
	"dco/internal/dht"
	"dco/internal/telemetry"
	"dco/internal/wire"
)

type entryT = chord.Entry[string]

// Config tunes the Chord backend.
type Config struct {
	// SuccListSize is the successor-list length (the paper varies it 8-64).
	SuccListSize int
	// StabilizeEvery is the stabilize + check-predecessor base cadence: a
	// quiet ring stretches it up to dht.UpkeepBackoff times (dht.Tick.Run).
	StabilizeEvery time.Duration
	// FixFingersEvery is the finger-repair base cadence (one finger per
	// tick), stretched the same way.
	FixFingersEvery time.Duration
}

// Kernel is the Chord backend. Safe for concurrent use; see the dht package
// comment for the locking contract (events and RPCs never fire under mu).
type Kernel struct {
	cfg   Config
	self  dht.Member
	call  dht.Caller
	ev    dht.Events
	trace *telemetry.Trace
	done  <-chan struct{}

	// notify is the one Notify this node sends: its identity never
	// changes, and no transport modifies a request.
	notify *wire.Notify

	mu          sync.Mutex
	cs          *chord.State[string]
	quarantined map[string]time.Time
	// state is the last answer stateLocked built. It is never modified:
	// a change to the predecessor or the list builds a new one, so a reply
	// already handed to a transport stays what it was.
	state *wire.GetStateResp
	// stabilized is the state the last stabilize round ended with.
	stabilized *wire.GetStateResp
	// adopt is notifySuccessor's scratch for the list it adopts;
	// AdoptSuccessorList copies out of it.
	adopt []entryT

	// wakeStabilize and wakeFix hold one pending wake each for the two
	// ticks: news learned between rounds cuts a backed-off wait short.
	wakeStabilize, wakeFix chan struct{}
	// firstMember holds the stabilize tick's one pending RunNow: a ring of
	// one adopted its first member, and the round that links it runs at once.
	firstMember chan struct{}

	stabilizeRuns *telemetry.Counter
	fingerFixes   *telemetry.Counter
	lookups       *telemetry.Counter
	lookupHops    *telemetry.Counter
	hopHist       *telemetry.Histogram
}

// New builds a Chord kernel for opts.Self. The registry gains the ring
// maintenance gauges (dco_ring_*) and the backend-neutral lookup-hop
// histogram (dco_dht_lookup_hops).
func New(cfg Config, opts dht.Options) *Kernel {
	if cfg.SuccListSize <= 0 {
		cfg.SuccListSize = 8
	}
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	k := &Kernel{
		cfg:   cfg,
		self:  opts.Self,
		call:  opts.Caller,
		ev:    opts.Events,
		trace: opts.Trace,
		done:  opts.Done,

		wakeStabilize: make(chan struct{}, 1),
		wakeFix:       make(chan struct{}, 1),
		firstMember:   make(chan struct{}, 1),

		stabilizeRuns: reg.Counter("dco_ring_stabilize_runs_total"),
		fingerFixes:   reg.Counter("dco_ring_finger_fixes_total"),
		lookups:       reg.Counter("dco_dht_lookups_total"),
		lookupHops:    reg.Counter("dco_dht_lookup_hops_total"),
		hopHist:       reg.Histogram("dco_dht_lookup_hops", dht.HopBuckets),
	}
	k.notify = &wire.Notify{From: k.selfWire()}
	k.cs = chord.NewState(toEntry(opts.Self), cfg.SuccListSize)
	reg.GaugeFunc("dco_ring_successor_changes", func() float64 {
		k.mu.Lock()
		defer k.mu.Unlock()
		c, _ := k.cs.MaintenanceStats()
		return float64(c)
	})
	reg.GaugeFunc("dco_ring_failures_removed", func() float64 {
		k.mu.Lock()
		defer k.mu.Unlock()
		_, r := k.cs.MaintenanceStats()
		return float64(r)
	})
	return k
}

func toEntry(m dht.Member) entryT {
	return entryT{ID: chord.ID(m.ID), Addr: m.Addr, OK: true}
}

func fromEntry(e entryT) dht.Member { return dht.Member{ID: uint64(e.ID), Addr: e.Addr} }

func wireEntry(e entryT) wire.Entry { return wire.Entry{ID: uint64(e.ID), Addr: e.Addr} }

func wireEntries(es []entryT) []wire.Entry {
	out := make([]wire.Entry, len(es))
	for i, e := range es {
		out[i] = wireEntry(e)
	}
	return out
}

func (k *Kernel) selfWire() wire.Entry { return wire.Entry{ID: k.self.ID, Addr: k.self.Addr} }

// seenScratch recycles the member slices seen hands to the host: a
// sighting batch per routing answer and per stabilize reply is otherwise
// an allocation each, and the host only reads the slice during the call.
var seenScratch = sync.Pool{New: func() any { return new([]dht.Member) }}

// seen fires the host's Seen callback for the entry (if it names anyone)
// and the entries sighted in one reply.
func (k *Kernel) seen(one wire.Entry, more []wire.Entry) {
	if k.ev.Seen == nil {
		return
	}
	buf := seenScratch.Get().(*[]dht.Member)
	ms := (*buf)[:0]
	if one.Addr != "" {
		ms = append(ms, dht.FromWire(one))
	}
	for _, e := range more {
		if e.Addr != "" {
			ms = append(ms, dht.FromWire(e))
		}
	}
	if len(ms) > 0 {
		k.ev.Seen(ms...)
	}
	*buf = ms
	seenScratch.Put(buf)
}

// wake tells both ticks the ring changed between rounds (see dht.Tick).
func (k *Kernel) wake() {
	for _, c := range [...]chan struct{}{k.wakeStabilize, k.wakeFix} {
		signal(c)
	}
}

// signal leaves one pending value on c, unless one is pending already.
func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

func (k *Kernel) traceEvent(kind, detail string) {
	if k.trace != nil {
		k.trace.Record(kind, k.self.Addr, detail)
	}
}

// Name identifies the backend.
func (k *Kernel) Name() string { return "chord" }

// Self returns this node's identity.
func (k *Kernel) Self() dht.Member { return k.self }

// Owns reports whether key lies in (pred, self]. With no known predecessor
// the node conservatively claims the key (the ring-of-one case).
func (k *Kernel) Owns(key uint64) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.cs.OwnsKey(chord.ID(key))
}

// Successor exposes the immediate successor (live status displays, ring
// walk tests). Not part of the Kernel contract.
func (k *Kernel) Successor() dht.Member {
	k.mu.Lock()
	defer k.mu.Unlock()
	return fromEntry(k.cs.Successor())
}

// Predecessor exposes the predecessor; ok=false while none is known. Not
// part of the Kernel contract.
func (k *Kernel) Predecessor() (m dht.Member, ok bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	p := k.cs.Predecessor()
	return fromEntry(p), p.OK
}

// ReplicaSet returns the first r distinct live successors (never self).
// Chord's replica placement is range-based, so the key argument is unused:
// only the owner's own successors can be computed locally, which is exactly
// the contract's "meaningful on the owner" caveat.
func (k *Kernel) ReplicaSet(_ uint64, r int) []dht.Member {
	if r <= 0 {
		return nil
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	var out []dht.Member
	for _, s := range k.cs.Successors() {
		if !s.OK || s.Addr == k.self.Addr {
			continue
		}
		dup := false
		for _, o := range out {
			if o.Addr == s.Addr {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		out = append(out, fromEntry(s))
		if len(out) == r {
			break
		}
	}
	return out
}

// View is self + successor list + predecessor, deduped by address, self
// first. A view of size one means a ring of one.
func (k *Kernel) View() []dht.Member {
	k.mu.Lock()
	defer k.mu.Unlock()
	seen := map[string]bool{}
	var out []dht.Member
	add := func(e entryT) {
		if !e.OK || seen[e.Addr] {
			return
		}
		seen[e.Addr] = true
		out = append(out, fromEntry(e))
	}
	add(k.cs.Self)
	for _, e := range k.cs.Successors() {
		add(e)
	}
	add(k.cs.Predecessor())
	return out
}

// PeerFailed purges a conclusively dead peer from the ring tables and
// quarantines it against passive re-adoption (Notify, stabilize gossip)
// for dht.PeerQuarantine. Without it, a one-way partitioned peer —
// unreachable, but with working outbound — re-inserts itself into its
// successor's tables every stabilize tick via Notify, gets condemned again
// by check_predecessor, and the pointer flap keeps mis-routing lookups for
// the peer's arc indefinitely. Active merge traffic bypasses the
// quarantine: a census probe that just reached the peer is fresh evidence
// the partition healed.
func (k *Kernel) PeerFailed(addr string) {
	k.mu.Lock()
	_, before := k.cs.MaintenanceStats()
	k.cs.RemoveFailed(addr)
	_, after := k.cs.MaintenanceStats()
	if k.quarantined == nil {
		k.quarantined = make(map[string]time.Time)
	}
	k.quarantined[addr] = time.Now().Add(dht.PeerQuarantine)
	k.mu.Unlock()
	if after != before {
		k.wake()
	}
}

// quarantinedLocked reports whether addr is still barred from passive
// re-adoption. Caller holds k.mu. Expired entries are pruned in place so
// the map tracks only active suspects.
func (k *Kernel) quarantinedLocked(addr string) bool {
	until, ok := k.quarantined[addr]
	if !ok {
		return false
	}
	if time.Now().After(until) {
		delete(k.quarantined, addr)
		return false
	}
	return true
}

// ---------------------------------------------------------------------------
// Routing.

// FindOwner routes iteratively from this node to the owner of key. A dead
// hop is purged by the Caller's failure handling and the route restarts, so
// routing self-heals in step with stabilization. Fallbacks are the owner's
// successor list — the members that inherit the key if the owner dies —
// and the answer reaches as far as the owner's own range, (pred, owner]:
// the final reply carries the predecessor. An owner that names none (or,
// mid-bootstrap, one whose range does not hold the key) vouches for the
// key alone.
func (k *Kernel) FindOwner(key uint64) (dht.Route, error) {
	owner, succs, pred, predOK, err := k.findOwner(key)
	if err != nil {
		return dht.Route{}, err
	}
	r := dht.Route{Owner: dht.FromWire(owner), Fallbacks: membersFromWire(succs), Lo: key - 1, Hi: key}
	if predOK && chord.InOC(chord.ID(pred.ID), chord.ID(key), chord.ID(owner.ID)) {
		r.Lo, r.Hi = pred.ID, owner.ID
	}
	return r, nil
}

// FindOwnerFrom is FindOwner routed through start's tables instead of this
// node's own (census confirmation through a foreign member).
func (k *Kernel) FindOwnerFrom(start string, key uint64) (dht.Member, error) {
	owner, _, _, _, err := k.findOwnerFrom(start, key, false)
	if err != nil {
		return dht.Member{}, err
	}
	return dht.FromWire(owner), nil
}

func membersFromWire(es []wire.Entry) []dht.Member {
	out := make([]dht.Member, 0, len(es))
	for _, e := range es {
		out = append(out, dht.FromWire(e))
	}
	return out
}

func (k *Kernel) findOwner(key uint64) (owner wire.Entry, succs []wire.Entry, pred wire.Entry, predOK bool, err error) {
	for attempt := 0; attempt < 4; attempt++ {
		k.mu.Lock()
		hop, done := k.cs.NextHop(chord.ID(key))
		k.mu.Unlock()
		if done && hop.Addr == k.self.Addr {
			// We own it ourselves: answer from local state.
			st := k.getState()
			k.lookups.Inc()
			return k.selfWire(), st.Succs, st.Pred, st.PredOK, nil
		}
		owner, succs, pred, predOK, err = k.findOwnerFrom(hop.Addr, key, false)
		if err == nil {
			return owner, succs, pred, predOK, nil
		}
		select {
		case <-k.done:
			return wire.Entry{}, nil, wire.Entry{}, false, err
		case <-time.After(100 * time.Millisecond):
		}
	}
	return wire.Entry{}, nil, wire.Entry{}, false, err
}

// findOwnerFrom iterates FindSuccessor starting at a remote node. Each hop
// is retried by the Caller (routing reads are idempotent); a hop that stays
// dead surfaces as an error and findOwner re-routes around it.
//
// A route that loops fails, unless it is a join's and some hop answered
// Final: then the last owner so named is the answer, with the hop that
// named it as its predecessor (when that hop is not start, whose ID is not
// known). That is Chord's own join, which takes successor =
// find_successor(n) unconfirmed; stabilize tightens both pointers. A
// lookup must reach the real owner, so it keeps the strict rule.
func (k *Kernel) findOwnerFrom(start string, key uint64, join bool) (owner wire.Entry, succs []wire.Entry, pred wire.Entry, predOK bool, err error) {
	// The last few hops, to fail at the first one a route comes back to: a
	// route through half-merged pointers (a partition, two rings merging)
	// goes round in a small circle, and would otherwise do so until the hop
	// bound.
	var visited [16]string
	cur := wire.Entry{Addr: start}
	var final, namer wire.Entry // the last Final answer, and who gave it
	for hops := 0; hops < 2*chord.M; hops++ {
		visited[hops%len(visited)] = cur.Addr
		resp, cerr := k.call.CallIdem(cur.Addr, &wire.FindSuccessor{Key: key})
		if cerr != nil {
			return wire.Entry{}, nil, wire.Entry{}, false, cerr
		}
		fs, ok := resp.(*wire.FindSuccessorResp)
		if !ok {
			return wire.Entry{}, nil, wire.Entry{}, false, errUnexpected
		}
		if fs.Done {
			if k.trace != nil {
				k.traceEvent("lookup.route", fmt.Sprintf("key=%016x hops=%d owner=%s", key, hops+1, fs.Owner.Addr))
			}
			k.lookups.Inc()
			k.lookupHops.Add(uint64(hops + 1))
			k.hopHist.Observe(float64(hops + 1))
			k.seen(fs.Owner, fs.Succs)
			return fs.Owner, fs.Succs, fs.Pred, fs.OK, nil
		}
		if fs.Owner.Addr == "" {
			return wire.Entry{}, nil, wire.Entry{}, false, fmt.Errorf("%w (chord: no progress at %s)", dht.ErrNoRoute, cur.Addr)
		}
		if fs.Final && fs.Owner.Addr != k.self.Addr {
			final, namer = fs.Owner, cur
		}
		for _, v := range visited[:min(hops+1, len(visited))] {
			if v != fs.Owner.Addr {
				continue
			}
			if join && final.Addr != "" {
				return final, nil, namer, namer.Addr != start, nil
			}
			return wire.Entry{}, nil, wire.Entry{}, false, fmt.Errorf("%w (chord: routing loop through %s)", dht.ErrNoRoute, v)
		}
		cur = fs.Owner
	}
	return wire.Entry{}, nil, wire.Entry{}, false, fmt.Errorf("%w (chord: hop bound exceeded)", dht.ErrNoRoute)
}

var errUnexpected = fmt.Errorf("chordkern: unexpected response kind")

// ---------------------------------------------------------------------------
// Join / leave / merge.

// Join attaches through bootstrap: route to our own ID's owner, adopt it as
// successor (with its list and predecessor), then notify both neighbours.
// The owner adopts us as predecessor by the notify rule; the predecessor its
// reply named adopts us as successor by onNotify's tightening rule. So the
// ring holds us on both sides when Join returns, not one stabilize tick
// later. A route that loops through pointers the ring has not yet tightened
// (a crowd joining at once) ends at the last owner a hop named Final
// (findOwnerFrom).
func (k *Kernel) Join(bootstrap string) error {
	owner, succs, pred, predOK, err := k.findOwnerFrom(bootstrap, k.self.ID, true)
	if err != nil {
		return err
	}
	k.mu.Lock()
	oe := entryT{ID: chord.ID(owner.ID), Addr: owner.Addr, OK: true}
	k.cs.SetSuccessor(oe)
	if len(succs) > 0 {
		var list []entryT
		for _, e := range succs {
			list = append(list, entryT{ID: chord.ID(e.ID), Addr: e.Addr, OK: true})
		}
		k.cs.AdoptSuccessorList(oe, list)
	}
	if predOK {
		k.cs.SetPredecessor(entryT{ID: chord.ID(pred.ID), Addr: pred.Addr, OK: true})
	}
	k.mu.Unlock()
	if predOK {
		k.seen(pred, nil)
	}
	// Both notifies are best-effort: stabilization re-notifies the owner
	// every cycle, and the predecessor finds us in its successor's reply at
	// its next tick, so a dropped message must not fail an otherwise good
	// join.
	if owner.Addr != k.self.Addr {
		_, _ = k.call.CallIdem(owner.Addr, k.notify)
	}
	if predOK && pred.Addr != k.self.Addr && pred.Addr != owner.Addr {
		_, _ = k.call.CallIdem(pred.Addr, k.notify)
	}
	return nil
}

// Leave runs the ring-unlink half of a graceful departure: tell the
// successor who its new predecessor is and the predecessor what its new
// successor list is. The index is the host's: it has already sent it to
// the successors, and the successor's Departed event promotes it.
func (k *Kernel) Leave() {
	k.mu.Lock()
	succ := k.cs.Successor()
	pred := k.cs.Predecessor()
	succList := wireEntries(k.cs.Successors())
	k.mu.Unlock()
	if !succ.OK || succ.Addr == k.self.Addr {
		return
	}
	leave := &wire.Leave{From: k.selfWire()}
	if pred.OK {
		leave.NewPred = wireEntry(pred)
		leave.PredOK = true
	}
	_, _ = k.call.Call(succ.Addr, leave)
	if pred.OK && pred.Addr != k.self.Addr {
		_, _ = k.call.Call(pred.Addr, &wire.Leave{From: k.selfWire(), NewSucc: succList})
	}
}

// Merge folds a confirmed foreign ring into the local tables via the
// monotone MergeCandidate repairs, then seeds the stabilize cascade by
// notifying the (possibly new) successor and the foreign owner — our ID
// lies in its claimed range, so its Notify rule adopts us as predecessor,
// which its next stabilize round propagates backward around that ring.
func (k *Kernel) Merge(target dht.Member, others []dht.Member) {
	k.mu.Lock()
	// The merge detector just reached the target — lift any quarantine so
	// the healed peer is re-adoptable immediately.
	delete(k.quarantined, target.Addr)
	k.cs.MergeCandidate(toEntry(target))
	for _, m := range others {
		if m.Addr == "" || m.Addr == k.self.Addr {
			continue
		}
		k.cs.MergeCandidate(toEntry(m))
	}
	succ := k.cs.Successor()
	k.mu.Unlock()
	k.wake()
	if succ.OK && succ.Addr != k.self.Addr {
		_, _ = k.call.Call(succ.Addr, k.notify)
	}
	if target.Addr != succ.Addr && target.Addr != k.self.Addr {
		_, _ = k.call.Call(target.Addr, k.notify)
	}
}

// ---------------------------------------------------------------------------
// Maintenance ticks.

// Ticks lists the Chord maintenance steps: stabilize (which includes the
// predecessor liveness probe) and one-finger-per-tick repair. Both back off
// while their rounds change nothing; PeerFailed, Merge, a Leave and a
// Notify that changed the state wake them, and a ring of one's first
// member runs a stabilize round at once (onNotify).
func (k *Kernel) Ticks() []dht.Tick {
	return []dht.Tick{
		{Name: "stabilize", Every: k.cfg.StabilizeEvery, Fn: k.stabilize, Wake: k.wakeStabilize, RunNow: k.firstMember},
		{Name: "fix_fingers", Every: k.cfg.FixFingersEvery, Fn: k.fixFinger, Wake: k.wakeFix},
	}
}

// stabilize runs one round and reports whether anything changed: the probe
// or an exchange failed, or the predecessor or successor list differ from
// what the last round ended with (so a change between rounds counts too).
// stateLocked rebuilds only on change, so the last is a pointer compare.
func (k *Kernel) stabilize() (changed bool) {
	k.stabilizeRuns.Inc()
	k.traceEvent("ring.stabilize", "")
	pinged := k.checkPredecessor()
	exchanged := k.exchange()
	k.mu.Lock()
	st := k.stateLocked()
	changed = !pinged || !exchanged || st != k.stabilized
	k.stabilized = st
	k.mu.Unlock()
	return changed
}

// exchange is stabilize's successor half; false means a Notify failed.
func (k *Kernel) exchange() bool {
	k.mu.Lock()
	succ := k.cs.Successor()
	if succ.Addr == k.self.Addr {
		// Ring of one: when the first peer notifies us it becomes our
		// predecessor; adopting it as successor closes the two-node ring
		// (the standard Chord bootstrap step), and the exchange below tells
		// it so in the same round — until then it knows no predecessor.
		p := k.cs.Predecessor()
		if !p.OK || p.Addr == k.self.Addr {
			k.mu.Unlock()
			return true
		}
		k.cs.SetSuccessor(p)
		succ = p
	}
	k.mu.Unlock()
	// One exchange with the successor is the whole round. A second follows
	// only when the first names a closer successor: that one is notified in
	// the same round, and its reply already brings its list.
	for exchanges := 0; exchanges < 2 && succ.OK; exchanges++ {
		closer, ok := k.notifySuccessor(succ)
		if !ok {
			return false
		}
		succ = closer
	}
	return true
}

// notifySuccessor is stabilize's exchange: tell succ we may be its
// predecessor and read its predecessor and successor list, as they stand
// after it applied the notify, from the reply. If the reply names us, or
// nobody between us and succ, we keep succ and adopt its list; if it names
// a member inside (self, succ), the notify was declined in that member's
// favour, and it is adopted as successor and returned. ok=false means
// the call failed: the Caller already fed the breaker and invoked
// PeerFailed if the evidence was conclusive; a lone drop just waits for
// the next tick.
func (k *Kernel) notifySuccessor(succ entryT) (closer entryT, ok bool) {
	resp, err := k.call.Call(succ.Addr, k.notify)
	if err != nil {
		return entryT{}, false
	}
	st, ok := resp.(*wire.GetStateResp)
	if !ok {
		return entryT{}, false
	}
	k.mu.Lock()
	if k.cs.Successor().Addr == succ.Addr {
		pred := entryT{ID: chord.ID(st.Pred.ID), Addr: st.Pred.Addr, OK: st.PredOK}
		if !k.quarantinedLocked(pred.Addr) && k.cs.TightenSuccessor(pred) {
			closer = pred
		} else {
			list := k.adopt[:0]
			for _, e := range st.Succs {
				if !k.quarantinedLocked(e.Addr) {
					list = append(list, entryT{ID: chord.ID(e.ID), Addr: e.Addr, OK: true})
				}
			}
			k.cs.AdoptSuccessorList(succ, list)
			k.adopt = list
		}
	}
	k.mu.Unlock()
	// Passive sightings: every stabilize answer names live ring members
	// worth remembering for the census.
	k.seen(st.Pred, st.Succs)
	return closer, true
}

// checkPredecessor is Chord's check_predecessor: ping the predecessor so a
// dead one accumulates conclusive failure evidence. The Caller's
// condemnation path invokes PeerFailed, which clears the predecessor —
// without this probe, a dead predecessor is forever re-advertised to the
// node behind it and the ring never heals. The predecessor's own Notify
// arriving every round is no substitute: it proves the predecessor can
// reach us, not that we can reach it, and a one-way partition is exactly
// the case where the two differ (see PeerFailed). false means the ping
// failed.
func (k *Kernel) checkPredecessor() bool {
	k.mu.Lock()
	pred := k.cs.Predecessor()
	k.mu.Unlock()
	if !pred.OK || pred.Addr == k.self.Addr {
		return true
	}
	_, err := k.call.Call(pred.Addr, &wire.Ping{})
	return err == nil
}

// fixFinger refreshes one finger per tick and reports whether it moved or
// its lookup failed. A start the successor list reaches is answered from
// the list (chord.State.LocalSuccessor): only a finger beyond the list's
// span is worth a routed lookup.
func (k *Kernel) fixFinger() (changed bool) {
	k.mu.Lock()
	i, start := k.cs.NextFingerToFix()
	old := k.cs.Finger(i)
	f, ok := k.cs.LocalSuccessor(start)
	if ok {
		k.cs.SetFinger(i, f)
	}
	k.mu.Unlock()
	if !ok {
		owner, _, _, _, err := k.findOwner(uint64(start))
		if err != nil {
			return true
		}
		f = entryT{ID: chord.ID(owner.ID), Addr: owner.Addr, OK: true}
		k.mu.Lock()
		k.cs.SetFinger(i, f)
		k.mu.Unlock()
	}
	k.fingerFixes.Inc()
	return f != old
}

// ---------------------------------------------------------------------------
// Inbound protocol.

// HandleRPC serves the Chord protocol messages; anything else is the
// host's.
func (k *Kernel) HandleRPC(from string, req wire.Message) (wire.Message, bool) {
	switch m := req.(type) {
	case *wire.FindSuccessor:
		return k.onFindSuccessor(m), true
	case *wire.GetState: // nothing sends it any more; the frame set is frozen
		return k.getState(), true
	case *wire.Notify:
		return k.onNotify(m), true
	case *wire.Leave:
		return k.onLeave(m), true
	default:
		return nil, false
	}
}

func (k *Kernel) onFindSuccessor(m *wire.FindSuccessor) wire.Message {
	k.mu.Lock()
	defer k.mu.Unlock()
	hop, done := k.cs.NextHop(chord.ID(m.Key))
	resp := &wire.FindSuccessorResp{
		Done:  done && hop.Addr == k.self.Addr,
		Owner: wireEntry(hop),
	}
	if resp.Done {
		st := k.stateLocked()
		resp.Succs, resp.Pred, resp.OK = st.Succs, st.Pred, st.PredOK
	} else {
		// The successor owns the key: the caller should finish there.
		resp.Final = done
	}
	return resp
}

func (k *Kernel) getState() *wire.GetStateResp {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.stateLocked()
}

// stateLocked is this node's predecessor and successor list: k.state,
// rebuilt only when either differs from it. The result is shared — with
// every reply that carries it and every caller of getState — and must not
// be modified. Caller holds k.mu.
func (k *Kernel) stateLocked() *wire.GetStateResp {
	p, succs := k.cs.Predecessor(), k.cs.Successors()
	var pred wire.Entry // zero when unknown
	if p.OK {
		pred = wireEntry(p)
	}
	if st := k.state; st != nil && st.PredOK == p.OK && st.Pred == pred && sameEntries(st.Succs, succs) {
		return st
	}
	k.state = &wire.GetStateResp{Pred: pred, PredOK: p.OK, Succs: wireEntries(succs)}
	return k.state
}

func sameEntries(ws []wire.Entry, es []entryT) bool {
	if len(ws) != len(es) {
		return false
	}
	for i, e := range es {
		if ws[i] != wireEntry(e) {
			return false
		}
	}
	return true
}

// onNotify applies the notify rule and answers with the state that results:
// the sender reads from it whether it was adopted (the reply names it),
// who was preferred to it, and the successor list — stabilize's whole
// exchange in one call. A notifier inside (self, successor) becomes the
// successor instead — TightenSuccessor, MergeCandidate's successor repair,
// which only moves the pointer closer: it is how the member behind a joiner adopts it at
// Join. Such a notifier is never the predecessor too (the successor lies
// between it and us), so a node that knows no predecessor does not take
// it for one. A ring of one leaves its first member to a stabilize round:
// that joiner learned no predecessor, so it routes every key outside
// (self, owner] back to the owner, and an owner already holding it as
// successor would send those keys straight back — a routing loop. That
// round runs at once (the stabilize tick's RunNow), not after the tick's
// wait; it takes the member as successor and tells it its predecessor.
// Either pointer moving also wakes both ticks.
func (k *Kernel) onNotify(m *wire.Notify) wire.Message {
	cand := entryT{ID: chord.ID(m.From.ID), Addr: m.From.Addr, OK: true}
	k.mu.Lock()
	p := k.cs.Predecessor()
	alone := k.cs.Successor().Addr == k.self.Addr && (!p.OK || p.Addr == k.self.Addr)
	tightened, adopted := false, false
	if !k.quarantinedLocked(cand.Addr) {
		if tightened = k.cs.TightenSuccessor(cand); !tightened {
			adopted = k.cs.Notify(cand)
		}
	}
	st := k.stateLocked()
	k.mu.Unlock()
	if alone && adopted {
		signal(k.firstMember)
	}
	if tightened || adopted {
		k.wake()
	}
	k.seen(m.From, nil)
	if adopted && k.ev.RangeChanged != nil {
		// Part of our range now belongs to the new predecessor; the host
		// sends it the index entries it no longer owns.
		k.ev.RangeChanged(dht.FromWire(m.From))
	}
	return st
}

func (k *Kernel) onLeave(m *wire.Leave) wire.Message {
	k.mu.Lock()
	if m.NewSucc != nil {
		k.cs.RemoveFailed(m.From.Addr)
		var list []entryT
		for _, e := range m.NewSucc {
			if e.Addr != m.From.Addr && e.Addr != k.self.Addr {
				list = append(list, entryT{ID: chord.ID(e.ID), Addr: e.Addr, OK: true})
			}
		}
		if len(list) > 0 {
			k.cs.AdoptSuccessorList(list[0], list[1:])
		}
	} else {
		if p := k.cs.Predecessor(); p.OK && p.Addr == m.From.Addr {
			if m.PredOK {
				k.cs.SetPredecessor(entryT{ID: chord.ID(m.NewPred.ID), Addr: m.NewPred.Addr, OK: true})
			} else {
				k.cs.ClearPredecessor()
			}
		}
	}
	k.mu.Unlock()
	k.wake()
	if k.ev.Departed != nil {
		// Graceful departure is the one conclusive "gone for good" signal;
		// the host takes over what of the leaver's index it now owns.
		k.ev.Departed(dht.FromWire(m.From))
	}
	return &wire.Ack{}
}
