// Package index is the coordinator's index table (paper Fig. 3): chunk
// sequence number → provider rows of address, bandwidth, load and lease,
// driven by Upsert (the paper's Insert) and Select (its Lookup). A node
// keeps one Table for the keys it owns and one per owner whose index it
// replicates; they are the same records held for another owner, so they are
// the same type.
//
// A Table is transport-free and clock-free: every call that needs the time
// is handed it. It has its own mutex and calls nothing under it except the
// keep/owns/exclude predicates it is handed, so callers must not hold a lock
// those predicates take.
//
// A lookup with nothing to offer parks as a Waiter (the paper's pending
// queue). The Upsert that adds a row answers its seq's waiters, oldest
// first, as if each had called Select in turn, and sends the answers once
// it has unlocked.
//
// The one lease rule, applied by every path that adds a row: the longer
// lease wins and a zero deadline (no lease) beats any finite one. A holder's
// own re-Insert at now+TTL is a special case of it.
//
// The one bandwidth rule (the paper's "sufficient upload bandwidth"): Select
// names a row that advertises an upload bandwidth only while fewer answers
// for that seq are unsettled than the row's uplink serves in one chunk
// period (Budget). Each new holder Upsert adds settles the oldest unsettled
// answer; an answer nobody settles lapses after Budget.Lapse.
package index

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"dco/internal/wire"
)

// LoadSaturatedMilli is the load factor (thousandths) at which a provider
// counts as saturated: its advertised upload budget is fully committed.
// Select skips saturated providers while any unsaturated one exists.
const LoadSaturatedMilli = 1000

// LoadUnknown as a Row's LoadMilli says the row is hearsay (a replica op)
// that carries no load report: Upsert keeps the stored one.
const LoadUnknown = ^uint32(0)

// cohortSpreadMilli defines the low-load cohort: providers within this much
// of the least-loaded report. Rotating inside the cohort spreads a flash
// crowd across comparably idle providers instead of herding every viewer
// onto the single best report.
const cohortSpreadMilli = 300

// Row is one provider registration: the provider's identity, its advertised
// upload bandwidth, its freshest load report (thousandths; refreshed by
// republish Inserts) and its lease deadline (zero = no lease, the
// registration lives until removed).
type Row struct {
	Ent       wire.Entry
	UpBps     int64
	LoadMilli uint32
	Expire    time.Time
}

func (r Row) expired(now time.Time) bool { return !r.Expire.IsZero() && now.After(r.Expire) }

// Entry is a snapshot of one seq's record, as Get and Take export it.
type Entry struct {
	Key  uint64
	Seq  int64
	Rows []Row
}

// Op is row as the replication op that re-creates it at another node. Leases
// cross the wire as the milliseconds remaining at now, never as a time.
func Op(key uint64, seq int64, r Row, now time.Time) wire.ReplicaOp {
	return wire.ReplicaOp{Key: key, Seq: seq, Holder: r.Ent, UpBps: r.UpBps, TTLMillis: TTLMillis(r.Expire, now)}
}

// Ops is the entry as replication ops, one per row.
func (e Entry) Ops(now time.Time) []wire.ReplicaOp {
	ops := make([]wire.ReplicaOp, len(e.Rows))
	for i, r := range e.Rows {
		ops[i] = Op(e.Key, e.Seq, r, now)
	}
	return ops
}

// TTLMillis converts a deadline to the wire's relative form: the
// milliseconds remaining at now (0 = none). Receivers Restamp against their
// own clock, so absolute times never cross the wire.
func TTLMillis(deadline, now time.Time) uint32 {
	if deadline.IsZero() {
		return 0
	}
	// Expired in flight still says "there was a deadline": the minimum.
	ms := int64(deadline.Sub(now) / time.Millisecond)
	return uint32(min(max(ms, 1), 1<<31))
}

// Restamp converts a wire-relative TTL back to a local deadline.
func Restamp(ttlMs uint32, now time.Time) time.Time {
	if ttlMs == 0 {
		return time.Time{}
	}
	return now.Add(time.Duration(ttlMs) * time.Millisecond)
}

// Budget sizes the bandwidth rule. The zero Budget caps nothing.
type Budget struct {
	Period    time.Duration // one chunk period
	ChunkBits int64         // one chunk's size
	Lapse     time.Duration // how long an unsettled handout counts against its row
}

// cap is how many unsettled handouts r may have: what its uplink serves in
// one chunk period, at least one. 0 means unlimited: r advertises no
// bandwidth, or b is the zero Budget.
func (b Budget) cap(r *Row) int {
	if r.UpBps <= 0 || b.Period <= 0 || b.ChunkBits <= 0 {
		return 0
	}
	c := float64(r.UpBps) * b.Period.Seconds() / float64(b.ChunkBits)
	return int(min(max(c, 1), math.MaxInt32))
}

// handout is one answer's charge against a row it named. It is unsettled
// until a new holder settles it or until passes. row is where the row stood
// when it was named, a hint that holds until a row before it leaves.
type handout struct {
	addr  string
	row   int
	until time.Time
}

type entry struct {
	key  uint64
	rows []Row
	rr   int // Select's rotation cursor
	// out is the FIFO of unsettled handouts, oldest (and soonest to lapse)
	// first; nil until a row with a cap is named.
	out []handout
}

// find is the one provider-by-address search.
func (e *entry) find(addr string) int {
	for i := range e.rows {
		if e.rows[i].Ent.Addr == addr {
			return i
		}
	}
	return -1
}

func (e *entry) remove(i int) { e.rows = append(e.rows[:i], e.rows[i+1:]...) }

// lapse drops the handouts whose time ran out by now.
func (e *entry) lapse(now time.Time) {
	i := 0
	for i < len(e.out) && !now.Before(e.out[i].until) {
		i++
	}
	e.drop(i)
}

// drop forgets the oldest k handouts, keeping the FIFO's array.
func (e *entry) drop(k int) {
	if k > 0 {
		e.out = e.out[:copy(e.out, e.out[k:])]
	}
}

// prune drops rows whose lease lapsed, returning how many.
func (e *entry) prune(now time.Time) int {
	kept := e.rows[:0]
	for _, r := range e.rows {
		if !r.expired(now) {
			kept = append(kept, r)
		}
	}
	dropped := len(e.rows) - len(kept)
	e.rows = kept
	return dropped
}

// Waiter is a lookup parked on a seq. Its answer arrives once on C (empty
// when a new row left every usable one at its cap: look again); the caller
// then hands w back with Release, or ends the wait first with Unpark.
type Waiter struct {
	C    chan []wire.Entry
	seq  int64
	max  int
	told bool    // the park reported a reopen
	next *Waiter // the answering Upsert's send list
	ans  []wire.Entry
}

// waiters recycles Waiters with their channels.
var waiters = sync.Pool{New: func() any { return &Waiter{C: make(chan []wire.Entry, 1)} }}

// Release hands w back once its answer was received from C.
func (w *Waiter) Release() {
	w.ans, w.next = nil, nil
	waiters.Put(w)
}

// Table is a set of index entries keyed by seq. Safe for concurrent use.
type Table struct {
	mu      sync.Mutex
	maxRows int
	budget  Budget
	exclude func(addr string) bool
	entries map[int64]*entry
	queue   []*Waiter // every parked lookup, oldest first
	// cand and held are pick's scratch, reused under mu.
	cand []int
	held []int
}

// New returns an empty table whose entries hold at most maxRows provider
// rows each (<= 0: no cap), and whose answers name rows as often as b
// allows and never a provider exclude (nil = none) rejects.
func New(maxRows int, b Budget, exclude func(addr string) bool) *Table {
	return &Table{maxRows: maxRows, budget: b, exclude: exclude, entries: make(map[int64]*entry)}
}

// Len returns the number of entries.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// waiting reports whether a lookup is parked on seq.
func (t *Table) waiting(seq int64) bool {
	return slices.ContainsFunc(t.queue, func(w *Waiter) bool { return w.seq == seq })
}

// dropIdle forgets an entry nothing refers to: no rows, no parked lookup.
func (t *Table) dropIdle(seq int64, e *entry) {
	if len(e.rows) == 0 && !t.waiting(seq) {
		delete(t.entries, seq)
	}
}

// Upsert registers r as a provider of seq, or refreshes its row by the lease
// rule (a nonzero UpBps and a known LoadMilli replace the stored ones). A new
// row settles seq's oldest unsettled handout and answers the lookups parked
// on seq. It reports whether a row was added and whether r is in the table
// at all: a row already expired at now is refused, and so is a new row for
// an entry at the cap — a refresh never is.
func (t *Table) Upsert(key uint64, seq int64, r Row, now time.Time) (added, ok bool) {
	if r.expired(now) {
		return false, false
	}
	t.mu.Lock()
	e := t.entries[seq]
	if e == nil {
		e = &entry{}
		t.entries[seq] = e
	}
	e.key = key
	if i := e.find(r.Ent.Addr); i >= 0 {
		have := &e.rows[i]
		if r.Expire.IsZero() || (!have.Expire.IsZero() && r.Expire.After(have.Expire)) {
			have.Expire = r.Expire
		}
		if r.UpBps != 0 {
			have.UpBps = r.UpBps
		}
		if r.LoadMilli != LoadUnknown {
			have.LoadMilli = r.LoadMilli
		}
		t.mu.Unlock()
		return false, true
	}
	if t.maxRows > 0 && len(e.rows) >= t.maxRows {
		t.mu.Unlock()
		return false, false
	}
	if r.LoadMilli == LoadUnknown {
		r.LoadMilli = 0
	}
	e.rows = append(e.rows, r)
	e.lapse(now)
	e.drop(min(1, len(e.out)))
	sends := t.answer(seq, e, now)
	t.mu.Unlock()
	for w := sends; w != nil; { // after the unlock: no answered lookup waits on it
		next := w.next
		w.C <- w.ans
		w = next
	}
	return true, true
}

// answer runs pick for each waiter parked on seq, oldest first, as Select
// would have in turn. It dequeues those it answers, and those held at a cap
// their park did not report, to look again, and returns them linked through
// next. An empty pick leaves the entry as it was: no later waiter is picked.
func (t *Table) answer(seq int64, e *entry, now time.Time) (sends *Waiter) {
	if !t.waiting(seq) {
		return nil
	}
	e.prune(now)
	last, kept := &sends, t.queue[:0]
	var provs []wire.Entry
	var capped, dry bool
	for _, w := range t.queue {
		if w.seq == seq && !dry {
			provs, capped = t.pick(e, w.max, now)
			dry = len(provs) == 0
		}
		if w.seq == seq && (!dry || capped && !w.told) {
			w.ans, *last, last = provs, w, &w.next
		} else {
			kept = append(kept, w)
		}
	}
	clear(t.queue[len(kept):])
	t.queue = kept
	return sends
}

// Has reports whether addr holds a row for seq.
func (t *Table) Has(seq int64, addr string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[seq]
	return e != nil && e.find(addr) >= 0
}

// Remove drops addr's row for seq, reporting whether there was one.
func (t *Table) Remove(seq int64, addr string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[seq]
	if e == nil {
		return false
	}
	i := e.find(addr)
	if i >= 0 {
		e.remove(i)
		t.dropIdle(seq, e)
	}
	return i >= 0
}

// Scrub removes every row addr holds, returning the unregister ops that
// repeat the scrub at the replicas.
func (t *Table) Scrub(addr string) []wire.ReplicaOp {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ops []wire.ReplicaOp
	for seq, e := range t.entries {
		if i := e.find(addr); i >= 0 {
			ops = append(ops, wire.ReplicaOp{Key: e.key, Seq: seq, Holder: e.rows[i].Ent, Unregister: true})
			e.remove(i)
			t.dropIdle(seq, e)
		}
	}
	return ops
}

// Delete drops seq's record (a lookup parked on it stays parked).
func (t *Table) Delete(seq int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.entries[seq]; e != nil {
		e.rows = nil
		t.dropIdle(seq, e)
	}
}

// Prune drops every lapsed lease and every entry left idle, returning the
// number of rows dropped.
func (t *Table) Prune(now time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	dropped := 0
	for seq, e := range t.entries {
		dropped += e.prune(now)
		t.dropIdle(seq, e)
	}
	return dropped
}

// Get returns a copy of seq's record (no rows when there is none).
func (t *Table) Get(seq int64) Entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := Entry{Seq: seq}
	if e := t.entries[seq]; e != nil {
		out.Key = e.key
		out.Rows = append([]Row(nil), e.rows...)
	}
	return out
}

// Take exports and deletes every entry whose key keep rejects (nil: every
// entry) — a leave, a key range that moved away, a takeover. A lookup parked
// on a taken entry stays parked, and answers empty when its wait runs out.
func (t *Table) Take(keep func(key uint64) bool) []Entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Entry
	for seq, e := range t.entries {
		if keep != nil && keep(e.key) {
			continue
		}
		if len(e.rows) > 0 {
			out = append(out, Entry{Key: e.key, Seq: seq, Rows: e.rows})
			e.rows = nil
		}
		t.dropIdle(seq, e)
	}
	return out
}

// Digests summarizes the entries whose key owns accepts, in seq order, for
// the anti-entropy exchange.
func (t *Table) Digests(owns func(key uint64) bool) []wire.SeqDigest {
	t.mu.Lock()
	var out []wire.SeqDigest
	for seq, e := range t.entries {
		if len(e.rows) > 0 && owns(e.key) {
			out = append(out, wire.SeqDigest{Key: e.key, Seq: seq, Hash: hashRows(e.rows)})
		}
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Reconcile is the replica's half of anti-entropy: drop what the owner's
// digests no longer mention, and return the seqs whose record here is
// missing or differs, for the owner to send again in full.
func (t *Table) Reconcile(digests []wire.SeqDigest, now time.Time) (need []int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	mentioned := make(map[int64]bool, len(digests))
	for _, d := range digests {
		mentioned[d.Seq] = true
		e := t.entries[d.Seq]
		if e != nil {
			e.prune(now)
		}
		if e == nil || e.key != d.Key || hashRows(e.rows) != d.Hash {
			need = append(need, d.Seq)
		}
	}
	for seq, e := range t.entries {
		if !mentioned[seq] {
			e.rows = nil
			t.dropIdle(seq, e)
		}
	}
	return need
}

// hashRows digests a provider set: the sum of the FNV-1a hashes of its
// addresses, so that row order does not matter. Leases are deliberately left
// out: every republish refresh would otherwise change the hash and force a
// repair.
func hashRows(rows []Row) (sum uint64) {
	for _, r := range rows {
		h := uint64(14695981039346656037)
		for i := 0; i < len(r.Ent.Addr); i++ {
			h = (h ^ uint64(r.Ent.Addr[i])) * 1099511628211
		}
		sum += h
	}
	return sum
}

// Select answers a lookup for seq with up to max providers (see pick for
// what it promises), dropping the entry's lapsed leases first and reporting
// how many. With nothing to offer it parks the caller instead, as w, which
// the next Upsert that can answer it answers. When it parks because every
// usable row is at its cap, reopen is the earliest time a handout lapses
// (zero otherwise): the caller should Unpark and look again then.
func (t *Table) Select(key uint64, seq int64, max int, now time.Time) (provs []wire.Entry, expired int, w *Waiter, reopen time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[seq]
	if e != nil {
		expired = e.prune(now)
		e.lapse(now)
		var capped bool
		if provs, capped = t.pick(e, max, now); len(provs) > 0 {
			return provs, expired, nil, time.Time{}
		}
		if capped {
			reopen = e.out[0].until
		}
	} else {
		e = &entry{key: key}
		t.entries[seq] = e
	}
	w = waiters.Get().(*Waiter)
	w.seq, w.max, w.told = seq, max, !reopen.IsZero()
	t.queue = append(t.queue, w)
	return nil, expired, w, reopen
}

// Unpark ends w's wait and hands w back, returning the answer an Upsert
// claimed for w first, if one did.
func (t *Table) Unpark(seq int64, w *Waiter) (provs []wire.Entry) {
	t.mu.Lock()
	i := slices.Index(t.queue, w)
	if i >= 0 {
		t.queue = slices.Delete(t.queue, i, i+1)
		t.dropIdle(seq, t.entries[seq])
	}
	t.mu.Unlock()
	if i < 0 {
		provs = <-w.C // the claiming Upsert sends right after its unlock
	}
	w.Release()
	return provs
}

// countHeld counts each row's unsettled handouts, by row index, into t.held.
func (t *Table) countHeld(e *entry) []int {
	held := slices.Grow(t.held[:0], len(e.rows))[:len(e.rows)]
	clear(held)
	for j := range e.out {
		h := &e.out[j]
		if h.row < 0 || h.row >= len(e.rows) || e.rows[h.row].Ent.Addr != h.addr {
			h.row = e.find(h.addr) // a row before it left
		}
		if h.row >= 0 {
			held[h.row]++
		}
	}
	t.held = held
	return held
}

// pick is the capacity-weighted provider selection: saturated providers are
// skipped while any unsaturated one exists, the answer is drawn round-robin
// from the low-load cohort, and backfilled with the next-least-loaded
// candidates. When every provider is saturated the least-loaded ones are
// returned anyway — a degraded answer beats an empty one. When more
// providers are registered than the answer carries, the last slot is an
// exploration pick from outside the chosen set (see below). The table's
// exclude drops providers outright — quarantined peers never appear in
// answers, even degraded ones — and so does the bandwidth rule: a row at
// its cap is skipped (capped reports that one was), and every row named
// that has a cap is charged a handout lapsing at now + Lapse. The answer
// is pick's one allocation.
func (t *Table) pick(e *entry, max int, now time.Time) (out []wire.Entry, capped bool) {
	if len(e.rows) == 0 || max <= 0 {
		return nil, false
	}
	held := t.countHeld(e)
	cand := t.cand[:0]
	unsaturated := 0
	for i := range e.rows {
		r := &e.rows[i]
		if t.exclude != nil && t.exclude(r.Ent.Addr) {
			continue
		}
		if c := t.budget.cap(r); c > 0 && held[i] >= c {
			capped = true
			continue
		}
		cand = append(cand, i)
		if r.LoadMilli < LoadSaturatedMilli {
			unsaturated++
		}
	}
	t.cand = cand
	if unsaturated > 0 {
		cand = slices.DeleteFunc(cand, func(i int) bool { return e.rows[i].LoadMilli >= LoadSaturatedMilli })
	}
	if len(cand) == 0 {
		return nil, capped
	}
	slices.SortStableFunc(cand, func(a, b int) int {
		pa, pb := &e.rows[a], &e.rows[b]
		if pa.LoadMilli != pb.LoadMilli {
			return cmp.Compare(pa.LoadMilli, pb.LoadMilli)
		}
		return cmp.Compare(pb.UpBps, pa.UpBps) // ties: bigger pipes first
	})
	floor := e.rows[cand[0]].LoadMilli
	nc := len(cand) // the cohort is cand[:nc]
	for i, ci := range cand {
		if e.rows[ci].LoadMilli > floor+cohortSpreadMilli {
			nc = i
			break
		}
	}
	// Exploration slot (gray-failure defense): a peer that accepts work but
	// never finishes it keeps honestly advertising itself idle, so a few
	// such zombies can capture the entire low-load cohort — and with it
	// every answer, starving viewers of reachable providers no matter how
	// many are registered. When the index knows more providers than the
	// answer carries, the last slot is therefore rotated across the
	// *unchosen* remainder instead of drawn from the cohort, so no cohort
	// can permanently capture an answer.
	fill := max
	explore := max >= 2 && len(cand) > max
	if explore {
		fill = max - 1
	}
	// The chosen set: a rotating window of the cohort, then the head of
	// what follows it.
	start, fromCohort := e.rr%nc, min(nc, fill)
	backfill := 0
	if fromCohort == nc {
		backfill = min(len(cand)-nc, fill-nc)
	}
	chosen := func(pos int) bool {
		if pos >= nc {
			return pos < nc+backfill
		}
		return (pos-start+nc)%nc < fromCohort
	}
	out = make([]wire.Entry, 0, max)
	name := func(ci int) {
		r := &e.rows[ci]
		out = append(out, r.Ent)
		if t.budget.cap(r) > 0 {
			e.out = append(e.out, handout{addr: r.Ent.Addr, row: ci, until: now.Add(t.budget.Lapse)})
		}
	}
	for i := 0; i < fromCohort; i++ {
		name(cand[(start+i)%nc])
	}
	for pos := nc; pos < nc+backfill; pos++ {
		name(cand[pos])
	}
	if explore {
		// Prefer exploring outside the cohort — that is where a reachable
		// provider a stale-idle cohort is hiding will be — falling back to
		// unchosen cohort members when the cohort is the whole candidate set.
		lo, hi, free := nc, len(cand), len(cand)-nc-backfill
		if free == 0 {
			lo, hi, free = 0, nc, nc-fromCohort
		}
		k := e.rr % free
		for pos := lo; pos < hi; pos++ {
			if chosen(pos) {
				continue
			}
			if k == 0 {
				name(cand[pos])
				break
			}
			k--
		}
	}
	e.rr++
	return out, capped
}
