// Package kademlia implements the dht.Kernel contract with a Kademlia
// routing table: XOR metric over the shared 64-bit key space, one k-bucket
// per distance prefix with least-recently-seen eviction order and a
// replacement cache, and iterative alpha-parallel lookups over the
// KadFindNode wire message. Where Chord routes recursively along a ring
// and maintains explicit successor/predecessor pointers, Kademlia learns
// its table passively from every message it sees and converges lookups by
// always querying the closest known contacts — a different churn/latency
// tradeoff the dhtcompare bench measures head to head.
//
// Deviations from the paper-standard 160-bit Kademlia, both deliberate:
// the key space is 64-bit because the whole DCO wire protocol and chunk
// key derivation are uint64 end to end (so the two backends are
// switchable without re-keying), and there is no FindValue RPC — chunk
// index reads stay on the existing owner-routed Lookup message, so the
// index layer above the kernel is identical across backends.
package kademlia

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"sync"
	"time"

	"dco/internal/dht"
	"dco/internal/telemetry"
	"dco/internal/wire"
)

// Config tunes the Kademlia backend.
type Config struct {
	// K is the bucket capacity and closest-set size (paper's k). 0 -> 16.
	K int
	// Alpha is the lookup parallelism (paper's alpha). 0 -> 3.
	Alpha int
	// RefreshEvery is the bucket-refresh cadence: each tick refreshes one
	// bucket (cursor rotation) by looking up a random key in its range.
	RefreshEvery time.Duration
	// ProbeEvery is the liveness-probe cadence: each tick pings the
	// least-recently-seen head of one bucket that has replacement
	// candidates waiting, so stale contacts make room for fresh ones.
	ProbeEvery time.Duration
}

// maxRounds bounds one iterative lookup (each round queries up to Alpha
// contacts); 32 is far past convergence for a 64-bit space.
const maxRounds = 32

type contact struct {
	m        dht.Member
	lastSeen time.Time
}

// bucket holds the contacts whose XOR distance from self shares one bit
// prefix. contacts is kept in least-recently-seen order (head oldest);
// replace is the replacement cache, newest last.
type bucket struct {
	contacts []contact
	replace  []dht.Member
}

// Kernel is the Kademlia backend. Safe for concurrent use; see the dht
// package comment for the locking contract.
type Kernel struct {
	cfg   Config
	self  dht.Member
	call  dht.Caller
	ev    dht.Events
	trace *telemetry.Trace
	done  <-chan struct{}

	mu      sync.Mutex
	buckets [64]bucket
	addrIdx map[string]int // contact addr -> bucket index
	cursor  int            // refresh rotation
	rng     *rand.Rand     // refresh key choice; guarded by mu

	tableChanges   *telemetry.Counter
	failuresPurged *telemetry.Counter
	lookups        *telemetry.Counter
	lookupHops     *telemetry.Counter
	refreshes      *telemetry.Counter
	hopHist        *telemetry.Histogram
	inflight       *telemetry.Gauge
}

// New builds a Kademlia kernel for opts.Self. The registry gains the
// backend-neutral lookup-hop histogram (dco_dht_lookup_hops), the
// alpha-parallelism in-flight gauge (dco_kad_inflight), and the table
// occupancy gauges (dco_kad_bucket_contacts, dco_kad_replacements).
func New(cfg Config, opts dht.Options) *Kernel {
	if cfg.K <= 0 {
		cfg.K = 16
	}
	if cfg.Alpha <= 0 {
		cfg.Alpha = 3
	}
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	k := &Kernel{
		cfg:     cfg,
		self:    opts.Self,
		call:    opts.Caller,
		ev:      opts.Events,
		trace:   opts.Trace,
		done:    opts.Done,
		addrIdx: make(map[string]int),
		rng:     rand.New(rand.NewSource(int64(opts.Self.ID) ^ 0x6b61642d72656672)),

		tableChanges:   reg.Counter("dco_kad_table_inserts_total"),
		failuresPurged: reg.Counter("dco_kad_failures_purged_total"),
		lookups:        reg.Counter("dco_dht_lookups_total"),
		lookupHops:     reg.Counter("dco_dht_lookup_hops_total"),
		refreshes:      reg.Counter("dco_kad_refreshes_total"),
		hopHist:        reg.Histogram("dco_dht_lookup_hops", dht.HopBuckets),
		inflight:       reg.Gauge("dco_kad_inflight"),
	}
	reg.GaugeFunc("dco_kad_bucket_contacts", func() float64 {
		k.mu.Lock()
		defer k.mu.Unlock()
		return float64(len(k.addrIdx))
	})
	reg.GaugeFunc("dco_kad_replacements", func() float64 {
		k.mu.Lock()
		defer k.mu.Unlock()
		n := 0
		for i := range k.buckets {
			n += len(k.buckets[i].replace)
		}
		return float64(n)
	})
	return k
}

// bucketIndex maps a peer ID onto its distance-prefix bucket: the position
// of the highest differing bit. Self (distance 0) has no bucket.
func (k *Kernel) bucketIndex(id uint64) int {
	d := k.self.ID ^ id
	if d == 0 {
		return -1
	}
	return bits.Len64(d) - 1
}

// closer reports whether a is strictly XOR-closer to key than b.
func closer(key, a, b uint64) bool { return a^key < b^key }

func (k *Kernel) selfWire() wire.Entry { return wire.Entry{ID: k.self.ID, Addr: k.self.Addr} }

func (k *Kernel) seen(ms ...dht.Member) {
	if k.ev.Seen == nil || len(ms) == 0 {
		return
	}
	k.ev.Seen(ms...)
}

func (k *Kernel) traceEvent(kind, detail string) {
	if k.trace != nil {
		k.trace.Record(kind, k.self.Addr, detail)
	}
}

// Name identifies the backend.
func (k *Kernel) Name() string { return "kademlia" }

// Self returns this node's identity.
func (k *Kernel) Self() dht.Member { return k.self }

// Observe inserts or refreshes a sighted member. A known contact moves to
// the most-recently-seen tail; a new one fills its bucket or, when the
// bucket is full, waits in the replacement cache until a liveness probe
// evicts a stale head. Returns whether the table gained a contact.
// XOR ties are impossible for distinct IDs, so insertion needs no
// tie-breaking and ownership (no strictly closer contact) is unique.
func (k *Kernel) Observe(m dht.Member) bool {
	if m.Addr == "" || m.Addr == k.self.Addr || m.ID == k.self.ID {
		return false
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.observeLocked(m)
}

func (k *Kernel) observeLocked(m dht.Member) bool {
	bi := k.bucketIndex(m.ID)
	if bi < 0 {
		return false
	}
	b := &k.buckets[bi]
	now := time.Now()
	if have, ok := k.addrIdx[m.Addr]; ok {
		if have != bi {
			// The address re-keyed (restart under a new ID): drop the stale
			// entry and fall through to a fresh insert.
			k.removeLocked(m.Addr)
		} else {
			for i := range b.contacts {
				if b.contacts[i].m.Addr == m.Addr {
					c := b.contacts[i]
					c.m, c.lastSeen = m, now
					b.contacts = append(append(b.contacts[:i], b.contacts[i+1:]...), c)
					return false
				}
			}
		}
	}
	if len(b.contacts) < k.cfg.K {
		b.contacts = append(b.contacts, contact{m: m, lastSeen: now})
		k.addrIdx[m.Addr] = bi
		k.tableChanges.Inc()
		return true
	}
	// Bucket full: remember the candidate (newest last, bounded at K) and
	// let the probe tick evict a dead head to make room. Never displace a
	// live contact — long-lived contacts are the most reliable ones.
	for i, r := range b.replace {
		if r.Addr == m.Addr {
			b.replace = append(b.replace[:i], b.replace[i+1:]...)
			break
		}
	}
	b.replace = append(b.replace, m)
	if len(b.replace) > k.cfg.K {
		b.replace = b.replace[1:]
	}
	return false
}

// PeerFailed purges a conclusively dead contact and promotes the newest
// replacement candidate into the freed slot.
func (k *Kernel) PeerFailed(addr string) {
	if addr == "" || addr == k.self.Addr {
		return
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	bi, ok := k.addrIdx[addr]
	if !ok {
		// Not a contact; still scrub any replacement-cache mention.
		for i := range k.buckets {
			k.dropReplacementLocked(i, addr)
		}
		return
	}
	k.removeLocked(addr)
	k.failuresPurged.Inc()
	b := &k.buckets[bi]
	for len(b.replace) > 0 && len(b.contacts) < k.cfg.K {
		cand := b.replace[len(b.replace)-1]
		b.replace = b.replace[:len(b.replace)-1]
		if cand.Addr == addr {
			continue
		}
		k.observeLocked(cand)
	}
}

func (k *Kernel) removeLocked(addr string) {
	bi, ok := k.addrIdx[addr]
	if !ok {
		return
	}
	delete(k.addrIdx, addr)
	b := &k.buckets[bi]
	for i := range b.contacts {
		if b.contacts[i].m.Addr == addr {
			b.contacts = append(b.contacts[:i], b.contacts[i+1:]...)
			break
		}
	}
	k.dropReplacementLocked(bi, addr)
}

func (k *Kernel) dropReplacementLocked(bi int, addr string) {
	b := &k.buckets[bi]
	for i := range b.replace {
		if b.replace[i].Addr == addr {
			b.replace = append(b.replace[:i], b.replace[i+1:]...)
			return
		}
	}
}

// closestLocked returns up to n contacts nearest key by XOR distance.
// Caller holds k.mu.
func (k *Kernel) closestLocked(key uint64, n int) []dht.Member {
	out := make([]dht.Member, 0, len(k.addrIdx))
	for i := range k.buckets {
		for _, c := range k.buckets[i].contacts {
			out = append(out, c.m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return closer(key, out[i].ID, out[j].ID) })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Owns reports whether no known contact is strictly XOR-closer to key than
// self. An empty table conservatively claims everything (the lone-node
// case, mirroring Chord's no-predecessor claim).
func (k *Kernel) Owns(key uint64) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.ownsLocked(key)
}

func (k *Kernel) ownsLocked(key uint64) bool {
	for i := range k.buckets {
		for _, c := range k.buckets[i].contacts {
			if closer(key, c.m.ID, k.self.ID) {
				return false
			}
		}
	}
	return true
}

// ReplicaSet returns the r contacts nearest key (never self): the members
// that should mirror the key's index entries. Unlike Chord, any node can
// compute this locally for any key, but the answer is only as good as the
// local table — the "meaningful on the owner" caveat still applies since
// the owner's table is densest around its own region.
func (k *Kernel) ReplicaSet(key uint64, r int) []dht.Member {
	if r <= 0 {
		return nil
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.closestLocked(key, r)
}

// View is self plus the K contacts nearest self. Size one means a lone
// node (the census's re-bootstrap trigger, same as a Chord ring of one).
func (k *Kernel) View() []dht.Member {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]dht.Member{k.self}, k.closestLocked(k.self.ID, k.cfg.K)...)
}

// ---------------------------------------------------------------------------
// Iterative lookup.

// lkCand is one lookup-shortlist row.
type lkCand struct {
	m       dht.Member
	queried bool
	failed  bool
}

// lookup is the iterative Kademlia FIND_NODE procedure: keep a shortlist
// of the closest known candidates, query the alpha nearest unqueried ones
// in parallel, merge every answer back in, and stop once the K nearest are
// all queried or a round makes no progress. seeds are the starting
// candidates; self is an eligible owner only if seeded or named by a
// response. Returns the surviving candidates nearest-first and the number
// of rounds taken.
func (k *Kernel) lookup(key uint64, seeds []lkCand, refresh bool) ([]dht.Member, int) {
	cands := make([]lkCand, 0, len(seeds)+2*k.cfg.K)
	have := make(map[string]int)
	add := func(m dht.Member, queried bool) {
		if m.Addr == "" {
			return
		}
		if i, ok := have[m.Addr]; ok {
			if queried {
				cands[i].queried = true
			}
			return
		}
		have[m.Addr] = len(cands)
		cands = append(cands, lkCand{m: m, queried: queried})
	}
	for _, s := range seeds {
		add(s.m, s.queried)
	}
	nearestFirst := func() {
		sort.SliceStable(cands, func(i, j int) bool { return closer(key, cands[i].m.ID, cands[j].m.ID) })
		// Rebuild the index after sorting.
		for i := range cands {
			have[cands[i].m.Addr] = i
		}
	}
	rounds := 0
	for rounds < maxRounds {
		select {
		case <-k.done:
			return nil, rounds
		default:
		}
		nearestFirst()
		// Frontier: the alpha nearest candidates not yet queried, drawn
		// from the K nearest overall — querying past the K-closest window
		// cannot change the answer.
		var frontier []dht.Member
		window := 0
		for i := 0; i < len(cands) && window < k.cfg.K; i++ {
			c := cands[i]
			if c.failed {
				continue
			}
			window++
			if c.queried || c.m.Addr == k.self.Addr {
				continue
			}
			frontier = append(frontier, c.m)
			if len(frontier) == k.cfg.Alpha {
				break
			}
		}
		if len(frontier) == 0 {
			break
		}
		rounds++
		type answer struct {
			from    dht.Member
			learned []dht.Member
			err     error
		}
		answers := make([]answer, len(frontier))
		var wg sync.WaitGroup
		for i, target := range frontier {
			wg.Add(1)
			k.inflight.Add(1)
			go func(i int, target dht.Member) {
				defer wg.Done()
				defer k.inflight.Add(-1)
				resp, err := k.call.CallIdem(target.Addr, &wire.KadFindNode{From: k.selfWire(), Key: key, Refresh: refresh})
				if err != nil {
					answers[i] = answer{from: target, err: err}
					return
				}
				kr, ok := resp.(*wire.KadFindNodeResp)
				if !ok {
					answers[i] = answer{from: target, err: fmt.Errorf("kademlia: unexpected response kind")}
					return
				}
				learned := make([]dht.Member, 0, len(kr.Closest)+1)
				if kr.From.Addr != "" {
					learned = append(learned, dht.FromWire(kr.From))
				}
				for _, e := range kr.Closest {
					if e.Addr != "" {
						learned = append(learned, dht.FromWire(e))
					}
				}
				answers[i] = answer{from: target, learned: learned}
			}(i, target)
		}
		wg.Wait()
		var sighted []dht.Member
		k.mu.Lock()
		for _, a := range answers {
			i := have[a.from.Addr]
			if a.err != nil {
				// The Caller's condemnation path already ran PeerFailed if
				// the evidence was conclusive; locally just stop asking.
				cands[i].failed = true
				continue
			}
			cands[i].queried = true
			// Only the responder itself enters the routing table — it just
			// proved itself alive. The members it named are hearsay: they go
			// into the shortlist (and, via Seen, the host's census cache) and
			// earn a table slot when they answer a query of their own.
			// Admitting hearsay would resurrect dead contacts from peers'
			// stale tables faster than failure purges remove them.
			k.observeLocked(a.from)
			for _, m := range a.learned {
				if m.Addr != k.self.Addr {
					sighted = append(sighted, m)
				}
			}
		}
		k.mu.Unlock()
		k.seen(sighted...)
		for _, a := range answers {
			if a.err != nil {
				continue
			}
			for _, m := range a.learned {
				add(m, false)
			}
		}
	}
	nearestFirst()
	out := make([]dht.Member, 0, k.cfg.K)
	for _, c := range cands {
		if c.failed {
			continue
		}
		out = append(out, c.m)
		if len(out) == k.cfg.K {
			break
		}
	}
	return out, rounds
}

// FindOwner routes to key's owner: an iterative lookup seeded from the
// local table, with self an eligible owner. Fallbacks are the next-closest
// survivors — the members whose tables are densest around the key. XOR
// ownership has no contiguous range a lookup could prove, so the answer
// vouches for the key alone.
func (k *Kernel) FindOwner(key uint64) (dht.Route, error) {
	k.mu.Lock()
	seedMs := k.closestLocked(key, k.cfg.K)
	k.mu.Unlock()
	seeds := make([]lkCand, 0, len(seedMs)+1)
	seeds = append(seeds, lkCand{m: k.self, queried: true})
	for _, m := range seedMs {
		seeds = append(seeds, lkCand{m: m})
	}
	ranked, rounds := k.lookup(key, seeds, false)
	if len(ranked) == 0 {
		return dht.Route{}, fmt.Errorf("%w (kademlia: every candidate failed)", dht.ErrNoRoute)
	}
	k.lookups.Inc()
	if rounds > 0 {
		k.lookupHops.Add(uint64(rounds))
		k.hopHist.Observe(float64(rounds))
	}
	if k.trace != nil {
		k.traceEvent("lookup.route", fmt.Sprintf("key=%016x hops=%d owner=%s", key, rounds, ranked[0].Addr))
	}
	return dht.Route{Owner: ranked[0], Fallbacks: ranked[1:], Lo: key - 1, Hi: key}, nil
}

// FindOwnerFrom routes to key's owner through start's network only: the
// shortlist is seeded by querying start, never from the local table, and
// self is not pre-seeded — it wins only if start's network names it. The
// census leans on exactly that: in a single network the confirmation
// lookup for this node's own ID lands back on self (distance zero always
// wins), while a split network answers with a stranger.
func (k *Kernel) FindOwnerFrom(start string, key uint64) (dht.Member, error) {
	resp, err := k.call.CallIdem(start, &wire.KadFindNode{From: k.selfWire(), Key: key})
	if err != nil {
		return dht.Member{}, err
	}
	kr, ok := resp.(*wire.KadFindNodeResp)
	if !ok {
		return dht.Member{}, fmt.Errorf("kademlia: unexpected response kind")
	}
	seeds := []lkCand{{m: dht.FromWire(kr.From), queried: true}}
	var sighted []dht.Member
	k.mu.Lock()
	if kr.From.Addr != "" && kr.From.Addr != k.self.Addr {
		// start answered directly; its named closest are hearsay and only
		// seed the shortlist (see lookup).
		k.observeLocked(dht.FromWire(kr.From))
		sighted = append(sighted, dht.FromWire(kr.From))
	}
	for _, e := range kr.Closest {
		if e.Addr == "" {
			continue
		}
		if e.Addr != k.self.Addr {
			sighted = append(sighted, dht.FromWire(e))
		}
		seeds = append(seeds, lkCand{m: dht.FromWire(e)})
	}
	k.mu.Unlock()
	k.seen(sighted...)
	ranked, rounds := k.lookup(key, seeds, false)
	if len(ranked) == 0 {
		return dht.Member{}, fmt.Errorf("%w (kademlia: every candidate failed)", dht.ErrNoRoute)
	}
	k.lookups.Inc()
	k.lookupHops.Add(uint64(rounds + 1))
	k.hopHist.Observe(float64(rounds + 1))
	return ranked[0], nil
}

// ---------------------------------------------------------------------------
// Join / leave / merge.

// Join attaches through bootstrap: one direct query learns the bootstrap's
// identity and neighborhood, then a self-lookup walks toward our own
// region — every node queried on the way observes us (KadFindNode carries
// the caller), which is how the network learns a joiner exists.
func (k *Kernel) Join(bootstrap string) error {
	resp, err := k.call.CallIdem(bootstrap, &wire.KadFindNode{From: k.selfWire(), Key: k.self.ID})
	if err != nil {
		return err
	}
	kr, ok := resp.(*wire.KadFindNodeResp)
	if !ok {
		return fmt.Errorf("kademlia: unexpected response kind from bootstrap %s", bootstrap)
	}
	var sighted []dht.Member
	k.mu.Lock()
	if kr.From.Addr != "" && kr.From.Addr != k.self.Addr {
		// Only the bootstrap proved itself alive; its neighborhood is
		// hearsay that the advertising self-lookup below will verify
		// contact by contact (each answer earns its responder a slot).
		k.observeLocked(dht.FromWire(kr.From))
		sighted = append(sighted, dht.FromWire(kr.From))
	}
	for _, e := range kr.Closest {
		if e.Addr != "" && e.Addr != k.self.Addr {
			sighted = append(sighted, dht.FromWire(e))
		}
	}
	k.mu.Unlock()
	k.seen(sighted...)
	// The advertising self-lookup (walk toward our own region so the
	// network learns we exist) runs off the arrival path: a flash crowd
	// joining through one bootstrap must not serialize behind each
	// joiner's full table construction. Routing works as soon as the
	// bootstrap is known — lookups iterate outward from it — and the
	// refresh tick backstops discovery if this walk races a shutdown.
	// The jitter spreads a crowd's simultaneous walks so they do not
	// collectively swamp the bootstrap's neighborhood on arrival.
	go func() {
		if d := k.cfg.RefreshEvery / 2; d > 0 {
			k.mu.Lock()
			j := time.Duration(k.rng.Int63n(int64(d)))
			k.mu.Unlock()
			select {
			case <-k.done:
				return
			case <-time.After(j):
			}
		}
		_, _ = k.FindOwner(k.self.ID)
	}()
	return nil
}

// Leave is a best-effort goodbye to the K contacts nearest self, so their
// buckets drop this node immediately instead of after probe timeouts. The
// host has already sent its index to the contacts nearest self, and each
// contact's Departed event promotes the keys that contact now owns.
func (k *Kernel) Leave() {
	k.mu.Lock()
	targets := k.closestLocked(k.self.ID, k.cfg.K)
	k.mu.Unlock()
	leave := &wire.Leave{From: k.selfWire()}
	for _, t := range targets {
		_, _ = k.call.Call(t.Addr, leave)
	}
}

// Merge folds a confirmed foreign network in: observe its members, then
// self-lookup — the lookup routes into the foreign region (the folded
// contacts are now in the table) and every foreign node it queries
// observes us back. Passive learning does the rest; there is no Chord-style
// pointer surgery to perform.
func (k *Kernel) Merge(target dht.Member, others []dht.Member) {
	k.mu.Lock()
	k.observeLocked(target)
	for _, m := range others {
		if m.Addr != "" && m.Addr != k.self.Addr {
			k.observeLocked(m)
		}
	}
	k.mu.Unlock()
	_, _ = k.FindOwner(k.self.ID)
}

// ---------------------------------------------------------------------------
// Maintenance ticks.

// Ticks lists the Kademlia maintenance steps: bucket refresh (one bucket
// per tick, random key in its range) and the stale-head liveness probe
// that lets replacement candidates in. Both keep their fixed cadence:
// every round reports a change.
func (k *Kernel) Ticks() []dht.Tick {
	return []dht.Tick{
		{Name: "refresh", Every: k.cfg.RefreshEvery, Fn: func() bool { k.refreshTick(); return true }},
		{Name: "probe", Every: k.cfg.ProbeEvery, Fn: func() bool { k.probeTick(); return true }},
	}
}

// refreshTick refreshes one bucket: look up a random key at that distance
// prefix, repopulating the bucket from whatever the lookup touches.
func (k *Kernel) refreshTick() {
	k.mu.Lock()
	if len(k.addrIdx) == 0 {
		k.mu.Unlock()
		return // lone node: nothing to walk
	}
	bi := k.cursor % 64
	k.cursor++
	// A random key whose highest differing bit from self is bi.
	key := k.self.ID ^ ((1 << uint(bi)) | (uint64(k.rng.Int63()) & ((1 << uint(bi)) - 1)))
	seedMs := k.closestLocked(key, k.cfg.K)
	k.mu.Unlock()
	seeds := make([]lkCand, 0, len(seedMs))
	for _, m := range seedMs {
		seeds = append(seeds, lkCand{m: m})
	}
	k.refreshes.Inc()
	k.lookup(key, seeds, true)
}

// probeTick pings the least-recently-seen head of one bucket that has
// replacement candidates waiting. A live head is re-observed (moves to the
// tail); a conclusively dead one is purged by the Caller's condemnation
// path, which promotes a replacement.
func (k *Kernel) probeTick() {
	k.mu.Lock()
	var target dht.Member
	found := false
	for i := 0; i < 64 && !found; i++ {
		b := &k.buckets[(k.cursor+i)%64]
		if len(b.replace) > 0 && len(b.contacts) > 0 {
			target = b.contacts[0].m
			found = true
		}
	}
	k.mu.Unlock()
	if !found {
		return
	}
	if _, err := k.call.Call(target.Addr, &wire.Ping{}); err == nil {
		k.Observe(target)
	}
}

// ---------------------------------------------------------------------------
// Inbound protocol.

// HandleRPC serves KadFindNode (the routing primitive) and Leave (the
// graceful goodbye); anything else is the host's or the other backend's.
func (k *Kernel) HandleRPC(from string, req wire.Message) (wire.Message, bool) {
	switch m := req.(type) {
	case *wire.KadFindNode:
		return k.onFindNode(m), true
	case *wire.Leave:
		return k.onLeave(m), true
	default:
		return nil, false
	}
}

func (k *Kernel) onFindNode(m *wire.KadFindNode) wire.Message {
	caller := dht.FromWire(m.From)
	inserted := false
	k.mu.Lock()
	// Answer from the table as it stood BEFORE this query, then observe
	// the caller. Ordering is load-bearing for the census: a confirmation
	// lookup through a foreign network must not find the asker just
	// because the query itself introduced it — only peers that already
	// knew the asker (its real network) may name it. The caller is not
	// filtered from the answer either: "the network names the asker" is
	// exactly the same-network signal FindOwnerFrom exists to measure
	// (lkCand dedup makes the echo harmless in ordinary lookups).
	closest := k.closestLocked(m.Key, k.cfg.K)
	if caller.Addr != "" && caller.Addr != k.self.Addr {
		inserted = k.observeLocked(caller)
	}
	k.mu.Unlock()
	if caller.Addr != "" && caller.Addr != k.self.Addr {
		k.seen(caller)
	}
	if inserted && k.ev.RangeChanged != nil {
		// A brand-new contact may be XOR-closer than self to keys this
		// node's host currently indexes (the Kademlia analogue of Chord
		// adopting a closer predecessor on Notify): let the host send on
		// whatever it no longer owns. The host re-checks ownership per
		// key, so a contact that takes nothing costs one cheap scan.
		k.ev.RangeChanged(caller)
	}
	// The caller is NOT filtered out of the answer: the census
	// confirmation lookup routes a node's own ID through a suspected
	// foreign member and decides "same network" exactly when the answers
	// name the asker (lkCand dedup makes the echo harmless otherwise).
	resp := &wire.KadFindNodeResp{From: k.selfWire()}
	for _, c := range closest {
		resp.Closest = append(resp.Closest, c.Wire())
	}
	return resp
}

func (k *Kernel) onLeave(m *wire.Leave) wire.Message {
	k.mu.Lock()
	k.removeLocked(m.From.Addr)
	k.mu.Unlock()
	if k.ev.Departed != nil {
		k.ev.Departed(dht.FromWire(m.From))
	}
	return &wire.Ack{}
}
