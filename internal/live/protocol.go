package live

import (
	"fmt"
	"time"

	"dco/internal/dht"
	"dco/internal/index"
	"dco/internal/wire"
)

// serve dispatches one inbound RPC: kernel protocol messages (routing,
// ring/bucket maintenance, graceful leaves) go to the DHT backend first,
// everything else is the live data plane. It runs on transport goroutines;
// each handler takes only the lock of the state it touches (the buffer's
// n.mu for GetChunk, the index table's own for Lookup/Insert, ...), and
// blocking waits (the lookup pending queue) happen outside every lock.
func (n *Node) serve(from string, req wire.Message) wire.Message {
	if _, ok := req.(*wire.Ping); ok {
		return &wire.Pong{}
	}
	if !n.ready.Load() {
		// NewNode has not finished wiring the kernel; a retryable nack is
		// better than racing construction.
		return &wire.Error{Code: wire.CodeShutdown, Msg: "starting"}
	}
	if resp, ok := n.kern.HandleRPC(from, req); ok {
		return resp
	}
	switch m := req.(type) {
	case *wire.Lookup:
		return n.onLookup(m)
	case *wire.Insert:
		return n.onInsert(m)
	case *wire.GetChunk:
		return n.onGetChunk(m)
	case *wire.ReplicateBatch:
		return n.onReplicateBatch(m)
	case *wire.DigestReq:
		return n.onDigestReq(m)
	case *wire.CensusProbe:
		return n.onCensusProbe(m)
	case *wire.PollutionReport:
		return n.onPollutionReport(m)
	default:
		return &wire.Error{Code: wire.CodeBadRequest, Msg: "unsupported request"}
	}
}

// onLookup serves the coordinator role: answer with providers, waiting up
// to MaxWait for the first registration (the paper's pending queue). The
// requester's propagated DeadlineMs budget clamps the hold — parking a
// lookup past the caller's deadline only produces an answer nobody is
// waiting for, while occupying a pending-queue slot. A parked lookup is
// answered by the Upsert that registers a provider for its seq. A lookup
// whose every provider is at its cap (index.Budget) is held the same way,
// and also looks again when the earliest handout lapses.
func (n *Node) onLookup(m *wire.Lookup) wire.Message {
	waitMs := m.MaxWait
	if m.DeadlineMs > 0 && m.DeadlineMs < waitMs {
		waitMs = m.DeadlineMs
	}
	deadline := time.Now().Add(time.Duration(waitMs) * time.Millisecond)
	held := false
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for first := true; ; first = false {
		if !n.kern.Owns(m.Key) {
			return errNotOwner
		}
		if first {
			n.lm.LookupsServed.Inc()
		}
		// Capacity-weighted selection (index.Table.Select): skip saturated
		// providers and those at their cap, rotate through the low-load
		// cohort; quarantined providers are excluded outright. An entry
		// whose every provider is quarantined parks like an empty one — a
		// clean provider may register before the deadline.
		providers, expired, w, reopen := n.idx.Select(m.Key, m.Seq, 3, time.Now())
		if expired > 0 {
			n.lm.ProvidersExpired.Add(uint64(expired))
		}
		if len(providers) > 0 {
			return &wire.LookupResp{Seq: m.Seq, Providers: providers}
		}
		if !held && !reopen.IsZero() {
			held = true
			n.lm.LookupsHeld.Inc()
		}
		if remain := time.Until(deadline); remain > 0 {
			if !reopen.IsZero() {
				remain = min(remain, time.Until(reopen))
			}
			if timer == nil {
				timer = time.NewTimer(remain)
			} else {
				timer.Reset(remain)
			}
			select {
			case providers = <-w.C:
				w.Release()
				w = nil
				if !timer.Stop() {
					select { // fired meanwhile: drain it for the next Reset
					case <-timer.C:
					default:
					}
				}
			case <-timer.C: // the deadline, or a handout lapsed: look again
			case <-n.closed:
				n.idx.Unpark(m.Seq, w)
				return &wire.Error{Code: wire.CodeShutdown, Msg: "shutting down"}
			}
		}
		if w != nil {
			providers = n.idx.Unpark(m.Seq, w)
		}
		if len(providers) > 0 {
			return &wire.LookupResp{Seq: m.Seq, Providers: providers}
		}
		if !time.Now().Before(deadline) {
			return &wire.LookupResp{Seq: m.Seq}
		}
	}
}

// onInsert serves a registration: of the seq whose key routed it, and of
// every further seq whose key it owns (it derives them). Index hardening
// (integrity.go) comes first: the frame pays the per-holder rate limit — a
// token, and one more per refreshesPerToken further seqs — and names at
// most maxInsertSeqs distinct seqs in ascending order; each row passes
// rowRefused, and a further row pays again if it is new. A final verdict
// (bad request) is answered only if nothing else went wrong.
func (n *Node) onInsert(m *wire.Insert) wire.Message {
	if !n.kern.Owns(m.Key) {
		return errNotOwner
	}
	n.lm.InsertsServed.Inc()
	n.noteMembers(m.Holder)
	if !n.insertToken(m.Holder.Addr, 1+len(m.More)/refreshesPerToken) {
		return errRateLimited
	}
	for i, seq := range m.More {
		if len(m.More) >= maxInsertSeqs || seq == m.Seq || i > 0 && seq <= m.More[i-1] {
			return &wire.Error{Code: wire.CodeBadRequest, Msg: "live: insert seqs not distinct and ascending, or too many"}
		}
	}
	if m.Unregister {
		if n.idx.Remove(m.Seq, m.Holder.Addr) {
			n.enqueueReplica(wire.ReplicaOp{Key: m.Key, Seq: m.Seq, Holder: m.Holder, Unregister: true})
		}
		return &wire.Ack{}
	}
	// A re-insert of a known provider refreshes its row: re-registration is
	// the lease heartbeat, and the piggybacked load report keeps selection
	// current between refreshes.
	now := time.Now()
	row := index.Row{Ent: m.Holder, UpBps: m.UpBps, LoadMilli: m.LoadMilli, Expire: now.Add(indexTTL)}
	refusal := n.rowRefused(m.Holder.Addr, m.Seq)
	if refusal == nil {
		refusal = n.insertRow(m.Key, m.Seq, row, now, false)
	}
	for _, seq := range m.More {
		werr := n.rowRefused(m.Holder.Addr, seq)
		if werr == nil {
			werr = errNotOwner
			if key := uint64(n.cfg.Channel.Ref(seq).ID()); n.kern.Owns(key) {
				werr = n.insertRow(key, seq, row, now, !n.idx.Has(seq, m.Holder.Addr))
			}
		}
		if werr != nil && (refusal == nil || refusal.Code == wire.CodeBadRequest) {
			refusal = werr
		}
	}
	if refusal != nil {
		return refusal
	}
	return &wire.Ack{}
}

// insertRow registers row for seq in the owned index, past the rate limit
// when charge is set and the provider cap.
func (n *Node) insertRow(key uint64, seq int64, row index.Row, now time.Time, charge bool) *wire.Error {
	if charge && !n.insertToken(row.Ent.Addr, 1) {
		return errRateLimited
	}
	if _, ok := n.register(key, seq, row, now); !ok {
		n.lm.InsertsRejected.Inc()
		return &wire.Error{Code: wire.CodeBadRequest, Msg: "live: provider cap reached"}
	}
	return nil
}

// register upserts row into the owned index and, when the index then holds
// it, queues it for this node's replicas.
func (n *Node) register(key uint64, seq int64, row index.Row, now time.Time) (added, ok bool) {
	if added, ok = n.idx.Upsert(key, seq, row, now); ok {
		n.enqueueReplica(index.Op(key, seq, row, now))
	}
	return added, ok
}

func (n *Node) onGetChunk(m *wire.GetChunk) wire.Message {
	// The serve path counts with lock-free atomics: the only n.mu hold is
	// the unavoidable chunk-map read. Everything else is the admission
	// pipeline (admission.go): miss check first (a miss costs no upload
	// budget), then reserve the chunk's bytes against the pacer, sleep out
	// any pace delay, and only then put the bytes on the wire.
	n.mu.Lock()
	data, ok := n.chunks[m.Seq]
	n.mu.Unlock()
	if !ok {
		n.lm.ChunksMissed.Inc()
		n.traceSeq("chunk.miss", m.Seq)
		return &wire.ChunkResp{Seq: m.Seq, LoadMilli: n.reportLoadMilli()}
	}
	// The requester declares its patience; zero (old clients, direct
	// callers) means "the server's default". Clamp to admitMaxWait so a
	// serve never sleeps past what the caller's RPC timeout can survive,
	// and to the propagated per-call deadline budget so the provider sheds
	// work whose reply could not arrive in time anyway.
	patience := admitMaxWait
	if m.WaitMs > 0 {
		if p := time.Duration(m.WaitMs) * time.Millisecond; p < patience {
			patience = p
		}
	}
	// A viewer whose playback horizon binds sends WaitMs = DeadlineMs, so a
	// tie is the deadline's.
	deadlineBound := false
	if m.DeadlineMs > 0 {
		if p := time.Duration(m.DeadlineMs) * time.Millisecond; p <= patience {
			patience = p
			deadlineBound = true
		}
	}
	wait, retry, admitted := n.pace.admit(len(data), patience)
	if !admitted {
		n.lm.ChunksShedBusy.Inc()
		if deadlineBound {
			// The deadline budget was the binding constraint: this serve was
			// shed specifically because the answer could not arrive in time.
			n.lm.DeadlineSheds.Inc()
		}
		if n.lm.trace != nil {
			n.traceEvent("chunk.shed", fmt.Sprintf("seq=%d retry=%s", m.Seq, retry))
		}
		return &wire.ChunkResp{
			Seq:          m.Seq,
			Busy:         true,
			RetryAfterMs: uint32((retry + time.Millisecond - 1) / time.Millisecond),
			LoadMilli:    n.reportLoadMilli(),
		}
	}
	if wait > 0 {
		n.lm.PacedServes.Inc()
		n.lm.ServeQueueSeconds.Observe(wait.Seconds())
		select {
		case <-time.After(wait):
			n.pace.release(true)
		case <-n.closed:
			n.pace.refund(len(data), true)
			return &wire.Error{Code: wire.CodeShutdown, Msg: "shutting down"}
		}
	}
	n.lm.ChunksServed.Inc()
	n.traceSeq("chunk.serve", m.Seq)
	return &wire.ChunkResp{Seq: m.Seq, OK: true, Data: data, LoadMilli: n.reportLoadMilli()}
}

// FindOwner routes from this node to key's owner via the configured DHT
// backend, returning the owner plus the fallback members to try when the
// owner is unreachable. It always routes — it is the oracle tests, dcosim
// and the bench probe compare against, so it must say what the ring says
// now, not what the owner-arc cache remembers — and refreshes the cache
// with what it learned.
func (n *Node) FindOwner(key uint64) (owner dht.Member, fallbacks []dht.Member, err error) {
	r, err := n.routeTo(key)
	return r.Owner, r.Fallbacks, err
}

func errUnexpected(m wire.Message) error {
	return fmt.Errorf("live: unexpected response kind %T", m)
}
