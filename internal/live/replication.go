package live

// r-way index replication (see DESIGN.md, "Replication & repair").
//
// Every Insert/Unregister a coordinator accepts is queued and flushed as a
// ReplicateBatch to the coordinator's first r live successors. A successor
// that detects its predecessor's death promotes what it now owns of its
// replica slices into its own index (takeover), so lookups keep being
// answered from the replica instead of stalling until the holders
// re-register. A periodic anti-entropy round exchanges per-range digests
// to reconcile whatever replication missed: dropped batches, partitions.

import (
	"fmt"
	"io"
	"sync"
	"time"

	"dco/internal/dht"
	"dco/internal/index"
	"dco/internal/wire"
)

const (
	// maxReplPending bounds the replication queue; when every target stays
	// unreachable the oldest ops are dropped (anti-entropy re-sends them).
	maxReplPending = 1 << 16
	// maxBatchOps caps one ReplicateBatch frame well under wire.MaxFrame.
	maxBatchOps = 2048
)

// replQueue holds the index ops accepted but not yet flushed to the replica
// set, under a lock of its own.
type replQueue struct {
	mu    sync.Mutex
	ops   []wire.ReplicaOp
	since time.Time // enqueue time of the oldest pending op
}

// push appends op, dropping the oldest op of a full queue.
func (q *replQueue) push(op wire.ReplicaOp) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.ops) == 0 {
		q.since = time.Now()
	}
	if len(q.ops) >= maxReplPending {
		q.ops = q.ops[1:]
	}
	q.ops = append(q.ops, op)
}

// drain empties the queue.
func (q *replQueue) drain() (ops []wire.ReplicaOp, since time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	ops, q.ops = q.ops, nil
	return ops, q.since
}

// replicaStore holds the slices of other owners' indices replicated at this
// node, keyed by owner address: each one an index.Table, like the owned
// index. Its lock is taken before a table's, never after.
type replicaStore struct {
	mu      sync.Mutex
	maxRows int
	slices  map[string]*index.Table
}

// update runs fn on owner's slice (made if need be) under the store's lock,
// and forgets the slice if fn leaves it empty.
func (s *replicaStore) update(owner string, fn func(slice *index.Table)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	slice := s.slices[owner]
	if slice == nil {
		slice = index.New(s.maxRows, index.Budget{}, nil)
		s.slices[owner] = slice
	}
	fn(slice)
	if slice.Len() == 0 {
		delete(s.slices, owner)
	}
}

// each runs fn on every slice under the store's lock, and forgets the
// slices it leaves empty.
func (s *replicaStore) each(fn func(slice *index.Table)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for owner, slice := range s.slices {
		fn(slice)
		if slice.Len() == 0 {
			delete(s.slices, owner)
		}
	}
}

// ReplicaCounts reports how many owners this node replicates for and the
// total replica entries held (tests, gauges).
func (n *Node) ReplicaCounts() (owners, entries int) {
	n.replicas.each(func(slice *index.Table) {
		owners++
		entries += slice.Len()
	})
	return owners, entries
}

// enqueueReplica queues one accepted index op for the next flush.
func (n *Node) enqueueReplica(op wire.ReplicaOp) {
	if n.cfg.Replicas > 0 {
		n.replq.push(op)
	}
}

// replTargets returns up to Replicas distinct live members that should
// mirror this node's index (the replica set), from the kernel (Chord: the
// first live successors; Kademlia: the closest contacts).
func (n *Node) replTargets() []dht.Member {
	if n.cfg.Replicas <= 0 {
		return nil
	}
	return n.kern.ReplicaSet(n.self.ID, n.cfg.Replicas)
}

// sendOps is the one way index rows travel between nodes — the replication
// flush, an anti-entropy repair, a custody pass, a graceful leave: ops, to
// addr, as ReplicateBatch frames naming owner, the member whose index the
// rows go to (onReplicateBatch). It sends one frame at least, even empty,
// and splits at maxBatchOps. A Full frame replaces the receiver's rows for
// each seq it names, so a Full send is split only between seqs: back to the
// last seq boundary in the window, or, when one seq fills the window, past
// that seq's end (it goes whole). It returns the ops of the frames that were
// not delivered: turned away as not their keys' owner, or failed.
func (n *Node) sendOps(addr string, owner wire.Entry, full bool, ops []wire.ReplicaOp) (undelivered []wire.ReplicaOp) {
	for {
		cut := min(len(ops), maxBatchOps)
		for full && cut > 0 && cut < len(ops) && ops[cut-1].Seq == ops[cut].Seq {
			cut--
		}
		if cut == 0 && len(ops) > 0 { // one seq fills the window: it goes whole
			for cut = maxBatchOps; cut < len(ops) && ops[cut].Seq == ops[0].Seq; cut++ {
			}
		}
		batch := &wire.ReplicateBatch{Owner: owner, Full: full, Ops: ops[:cut]}
		switch _, err := n.callIdem(addr, batch, n.cfg.CallTimeout); {
		case err == nil:
			n.lm.ReplicateBatches.Inc()
			n.lm.ReplicateBytes.Add(frameBytes(batch))
		case wire.IsNotOwner(err): // its arc, if cached, is stale
			n.routes.Drop(addr)
			fallthrough
		default:
			undelivered = append(undelivered, batch.Ops...)
		}
		if ops = ops[cut:]; len(ops) == 0 {
			return undelivered
		}
	}
}

// replicateFlush drains the pending-op queue to every replica target. A
// target that misses a batch is repaired by the next anti-entropy round.
func (n *Node) replicateFlush() {
	ops, since := n.replq.drain()
	if len(ops) == 0 {
		return
	}
	targets := n.replTargets()
	if len(targets) == 0 {
		return // ring of one: nobody to replicate to yet
	}
	for _, t := range targets {
		n.lm.ReplicateOps.Add(uint64(len(ops) - len(n.sendOps(t.Addr, n.wireSelf(), false, ops))))
	}
	n.lm.ReplicationLag.Observe(time.Since(since).Seconds())
}

// onReplicateBatch files a batch's rows in the index its Owner names.
// Another member's — a replication flush, an anti-entropy repair, a
// leaver's index — is its replica slice here. This node's own names a
// handover, from a custody pass: the rows whose keys it owns join its index
// past the gate an Insert's row passes (rowRefused); if it does not own
// them all, it says so and the sender keeps them for its next pass. An
// empty batch, a ceded range's reachability check, leaves no trace.
func (n *Node) onReplicateBatch(m *wire.ReplicateBatch) wire.Message {
	if len(m.Ops) == 0 {
		return &wire.Ack{}
	}
	n.lm.ReplicaOpsApplied.Add(uint64(len(m.Ops)))
	now := time.Now()
	if m.Owner.Addr == n.self.Addr {
		var resp wire.Message = &wire.Ack{}
		for i := range m.Ops {
			op := &m.Ops[i]
			if !n.kern.Owns(op.Key) {
				resp = errNotOwner
			} else if (op.Unregister || n.rowRefused(op.Holder.Addr, op.Seq) == nil) && applyOp(n.idx, op, now) {
				n.enqueueReplica(*op)
			}
		}
		return resp
	}
	n.noteMembers(m.Owner)
	n.replicas.update(m.Owner.Addr, func(slice *index.Table) {
		for i := range m.Ops {
			op := &m.Ops[i]
			// Full batches carry the complete record, rows together, for
			// every seq they mention: replace the replica's set, don't merge
			// into it.
			if m.Full && (i == 0 || m.Ops[i-1].Seq != op.Seq) {
				slice.Delete(op.Seq)
			}
			applyOp(slice, op, now)
		}
	})
	return &wire.Ack{}
}

// applyOp folds a replicated op into a table — the owned index or a replica
// slice — and reports whether the table holds what the op says.
func applyOp(t *index.Table, op *wire.ReplicaOp, now time.Time) bool {
	if op.Unregister {
		return t.Remove(op.Seq, op.Holder.Addr)
	}
	// A replica op carries no load report.
	row := index.Row{Ent: op.Holder, UpBps: op.UpBps, LoadMilli: index.LoadUnknown, Expire: index.Restamp(op.TTLMillis, now)}
	_, ok := t.Upsert(op.Key, op.Seq, row, now)
	return ok
}

// custody is the one pass that settles this node's rows with what the
// kernel says it owns (DESIGN.md, "One custody pass"). Takeover first: each
// replica-slice entry whose key this node owns folds into its index and
// goes on to its replicas; the rest lapses in place. Then the owned-index
// rows whose keys it no longer Owns go as handovers to hint, the member a
// range change names — called even when nothing moved, to check that it
// can be reached — or else to the owner routing names. A row turned away,
// or left by a failed send, goes back into the index for the next pass;
// one no pass places lapses with its lease. A failed route ends the
// routing, as it ends a reregister tick.
func (n *Node) custody(hint dht.Member) {
	var taken []index.Entry
	n.replicas.each(func(slice *index.Table) {
		taken = append(taken, slice.Take(func(key uint64) bool { return !n.kern.Owns(key) })...)
	})
	now, promoted := time.Now(), 0
	for _, e := range taken {
		gained := false
		for _, r := range e.Rows {
			r.LoadMilli = index.LoadUnknown // a replica never heard the load
			added, _ := n.register(e.Key, e.Seq, r, now)
			gained = gained || added
		}
		if gained {
			promoted++
		}
	}
	if promoted > 0 {
		n.lm.TakeoverEntries.Add(uint64(promoted))
		n.lm.IndexTakeovers.Inc()
		n.traceEvent("replica.takeover", fmt.Sprintf("entries=%d", promoted))
	}

	var stray, back []wire.ReplicaOp
	for _, e := range n.idx.Take(n.kern.Owns) {
		stray = append(stray, e.Ops(now)...)
	}
	parts := map[dht.Member][]wire.ReplicaOp{}
	if hint.Addr != "" {
		parts[hint], stray = stray, nil
	}
	var owner dht.Member
	var err error
	for i, op := range stray {
		if i == 0 || op.Key != stray[i-1].Key {
			if owner, err = n.ownerOf(op.Key); err != nil {
				back = stray[i:]
				break
			}
		}
		parts[owner] = append(parts[owner], op)
	}
	for m, ops := range parts {
		if m.Addr != n.self.Addr {
			ops = n.sendOps(m.Addr, m.Wire(), true, ops)
		}
		back = append(back, ops...)
	}
	for i := range back {
		applyOp(n.idx, &back[i], now)
	}
}

// antiEntropy is the repair round. Both roles' housekeeping first: lapsed
// leases (and the entries they leave idle) age out of the owned index and
// of every replica slice. Then the owner side: digest the owned index and
// send the digest to every replica target. Replicas answer with the seqs
// whose provider set is missing or diverged; those are re-sent as a Full
// batch. The digest is sent even when the index is empty so replicas drop
// entries the owner no longer holds.
func (n *Node) antiEntropy() {
	now := time.Now()
	if expired := n.idx.Prune(now); expired > 0 {
		n.lm.ProvidersExpired.Add(uint64(expired))
	}
	n.replicas.each(func(slice *index.Table) { slice.Prune(now) })
	targets := n.replTargets()
	if len(targets) == 0 {
		return
	}
	req := &wire.DigestReq{Owner: n.wireSelf(), Digests: n.idx.Digests(n.kern.Owns)}
	reqSize := frameBytes(req)
	n.lm.DigestRounds.Inc()
	for _, t := range targets {
		resp, err := n.callIdem(t.Addr, req, n.cfg.CallTimeout)
		if err != nil {
			continue
		}
		n.lm.DigestBytes.Add(reqSize)
		dr, ok := resp.(*wire.DigestResp)
		if !ok || len(dr.Need) == 0 {
			continue
		}
		// A Full batch for the seqs the replica reported missing or
		// divergent, about maxBatchOps of them per round.
		var repair []wire.ReplicaOp
		for _, seq := range dr.Need {
			if repair = append(repair, n.idx.Get(seq).Ops(now)...); len(repair) >= maxBatchOps {
				break
			}
		}
		if len(repair) == 0 {
			continue
		}
		if sent := len(repair) - len(n.sendOps(t.Addr, n.wireSelf(), true, repair)); sent > 0 {
			n.lm.DigestRepairs.Add(uint64(sent))
			n.traceEvent("replica.repair", fmt.Sprintf("peer=%s ops=%d", t.Addr, sent))
		}
	}
}

// onDigestReq answers an owner's anti-entropy digest: drop whatever the
// owner no longer mentions, then report the seqs whose provider set is
// missing or diverged so the owner re-sends them as a Full batch.
func (n *Node) onDigestReq(m *wire.DigestReq) wire.Message {
	resp := &wire.DigestResp{}
	if m.Owner.Addr != n.self.Addr {
		n.noteMembers(m.Owner)
		n.replicas.update(m.Owner.Addr, func(slice *index.Table) {
			resp.Need = slice.Reconcile(m.Digests, time.Now())
		})
	}
	return resp
}

// frameBytes returns a message's encoded frame size without sending it
// (byte accounting for the write-amplification benchmark).
func frameBytes(m wire.Message) uint64 {
	nb, err := wire.WriteMessageN(io.Discard, m)
	if err != nil {
		return 0
	}
	return uint64(nb)
}
