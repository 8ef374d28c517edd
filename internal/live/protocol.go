package live

import (
	"fmt"
	"time"

	"dco/internal/dht"
	"dco/internal/wire"
)

// serve dispatches one inbound RPC: kernel protocol messages (routing,
// ring/bucket maintenance, graceful leaves) go to the DHT backend first,
// everything else is the live data plane. It runs on transport
// goroutines, so the handlers guard what they touch with n.mu; blocking
// waits (the lookup pending queue) happen outside the lock.
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
	case *wire.Handoff:
		return n.onHandoff(m)
	case *wire.ReplicateBatch:
		return n.onReplicateBatch(m)
	case *wire.DigestReq:
		return n.onDigestReq(m)
	case *wire.CensusProbe:
		return n.onCensusProbe(m)
	case *wire.ManifestReq:
		return n.onManifestReq(m)
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
// waiting for, while occupying a pending-queue slot.
func (n *Node) onLookup(m *wire.Lookup) wire.Message {
	waitMs := m.MaxWait
	if m.DeadlineMs > 0 && m.DeadlineMs < waitMs {
		waitMs = m.DeadlineMs
	}
	deadline := time.Now().Add(time.Duration(waitMs) * time.Millisecond)
	for {
		n.mu.Lock()
		if !n.kern.Owns(m.Key) {
			n.mu.Unlock()
			return &wire.Error{Code: wire.CodeNotOwner, Msg: errNotOwner.Error()}
		}
		n.lm.lookupsServed.Inc()
		e := n.indexEntryLocked(m.Seq)
		if dropped := e.pruneLocked(time.Now()); dropped > 0 {
			n.lm.indexExpired.Add(uint64(dropped))
		}
		if len(e.providers) == 0 {
			// The owned entry is empty but a replica slice may hold it —
			// e.g. both the old owner and its first successor died before
			// any takeover or anti-entropy round reached this node.
			n.promoteReplicaSeqLocked(m.Key, m.Seq, e)
		}
		if len(e.providers) > 0 {
			// Capacity-weighted selection (admission.go): skip saturated
			// providers, rotate through the low-load cohort; quarantined
			// providers are excluded outright (integrity.go).
			providers := e.selectLocked(3, n.health.Quarantined)
			if len(providers) > 0 {
				resp := &wire.LookupResp{Seq: m.Seq, Providers: providers}
				n.mu.Unlock()
				return resp
			}
			// Every registered provider is quarantined: park like an
			// empty entry — a clean one may register before the deadline.
		}
		wake := e.wake
		n.mu.Unlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			return &wire.LookupResp{Seq: m.Seq}
		}
		select {
		case <-wake:
		case <-time.After(remain):
			return &wire.LookupResp{Seq: m.Seq}
		case <-n.closed:
			return &wire.Error{Code: wire.CodeShutdown, Msg: "shutting down"}
		}
	}
}

func (n *Node) indexEntryLocked(seq int64) *indexEntry {
	e := n.index[seq]
	if e == nil {
		e = &indexEntry{wake: make(chan struct{})}
		n.index[seq] = e
	}
	return e
}

func (n *Node) onInsert(m *wire.Insert) wire.Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.kern.Owns(m.Key) {
		return &wire.Error{Code: wire.CodeNotOwner, Msg: errNotOwner.Error()}
	}
	n.lm.insertsServed.Inc()
	n.noteMembersLocked(m.Holder)
	e := n.indexEntryLocked(m.Seq)
	// Index hardening (integrity.go): rate limits, quarantined holders,
	// the live-edge horizon, and the per-entry provider cap all run before
	// the index mutates.
	if werr := n.insertAllowedLocked(m, e); werr != nil {
		return werr
	}
	n.noteManifestAd(m.Holder.Addr, m.ManifestHead)
	if m.Unregister {
		for i, pr := range e.providers {
			if pr.ent.Addr == m.Holder.Addr {
				e.providers = append(e.providers[:i], e.providers[i+1:]...)
				n.enqueueReplicaLocked(m.Key, m.Seq, m.Holder, 0, time.Time{}, true)
				break
			}
		}
		return &wire.Ack{}
	}
	var expire time.Time
	if n.cfg.IndexTTL > 0 {
		expire = time.Now().Add(n.cfg.IndexTTL)
	}
	for i := range e.providers {
		if e.providers[i].ent.Addr == m.Holder.Addr {
			// Re-insert of a known provider: republication is the lease
			// heartbeat, so refresh rather than duplicate. The piggybacked
			// load report keeps selection current between republishes.
			e.providers[i].expire = expire
			e.providers[i].upBps = m.UpBps
			e.providers[i].loadMilli = m.LoadMilli
			n.enqueueReplicaLocked(m.Key, m.Seq, m.Holder, m.UpBps, expire, false)
			return &wire.Ack{}
		}
	}
	e.providers = append(e.providers, provRec{ent: m.Holder, upBps: m.UpBps, loadMilli: m.LoadMilli, expire: expire})
	e.wakeLocked() // release pending lookups
	n.enqueueReplicaLocked(m.Key, m.Seq, m.Holder, m.UpBps, expire, false)
	return &wire.Ack{}
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
		n.lm.chunksMissed.Inc()
		n.traceSeq("chunk.miss", m.Seq)
		return n.stampManifest(&wire.ChunkResp{Seq: m.Seq, LoadMilli: n.reportLoadMilli()})
	}
	// The requester declares its patience; zero (old clients, direct
	// callers) means "the server's default". Clamp to AdmitMaxWait so a
	// serve never sleeps past what the caller's RPC timeout can survive,
	// and to the propagated per-call deadline budget so the provider sheds
	// work whose reply could not arrive in time anyway.
	patience := n.cfg.AdmitMaxWait
	if m.WaitMs > 0 {
		if p := time.Duration(m.WaitMs) * time.Millisecond; p < patience {
			patience = p
		}
	}
	deadlineBound := false
	if m.DeadlineMs > 0 {
		if p := time.Duration(m.DeadlineMs) * time.Millisecond; p < patience {
			patience = p
			deadlineBound = true
		}
	}
	wait, retry, admitted := n.pace.admit(len(data), patience)
	if !admitted {
		n.lm.busyRejections.Inc()
		if deadlineBound {
			// The deadline budget was the binding constraint: this serve was
			// shed specifically because the answer could not arrive in time.
			n.lm.deadlineSheds.Inc()
		}
		if n.lm.trace != nil {
			n.traceEvent("chunk.shed", fmt.Sprintf("seq=%d retry=%s", m.Seq, retry))
		}
		return n.stampManifest(&wire.ChunkResp{
			Seq:          m.Seq,
			Busy:         true,
			RetryAfterMs: uint32((retry + time.Millisecond - 1) / time.Millisecond),
			LoadMilli:    n.reportLoadMilli(),
		})
	}
	if wait > 0 {
		n.lm.pacedServes.Inc()
		n.lm.serveQueueSeconds.Observe(wait.Seconds())
		select {
		case <-time.After(wait):
			n.pace.release(true)
		case <-n.closed:
			n.pace.refund(len(data), true)
			return &wire.Error{Code: wire.CodeShutdown, Msg: "shutting down"}
		}
	}
	n.lm.chunksServed.Inc()
	n.traceSeq("chunk.serve", m.Seq)
	return n.stampManifest(&wire.ChunkResp{Seq: m.Seq, OK: true, Data: data, LoadMilli: n.reportLoadMilli()})
}

func (n *Node) onHandoff(m *wire.Handoff) wire.Message {
	n.lm.handoffEntries.Add(uint64(len(m.Entries)))
	n.traceEvent("handoff.recv", fmt.Sprintf("entries=%d", len(m.Entries)))
	n.mu.Lock()
	defer n.mu.Unlock()
	var expire time.Time
	if n.cfg.IndexTTL > 0 {
		// Handoffs carry no leases; restamp so inherited entries age out
		// unless their providers keep republishing.
		expire = time.Now().Add(n.cfg.IndexTTL)
	}
	for _, he := range m.Entries {
		e := n.indexEntryLocked(he.Seq)
		added := 0
	outer:
		for _, pr := range he.Providers {
			for _, have := range e.providers {
				if have.ent.Addr == pr.Addr {
					continue outer
				}
			}
			e.providers = append(e.providers, provRec{ent: pr, expire: expire})
			n.enqueueReplicaLocked(he.Key, he.Seq, pr, 0, expire, false)
			added++
		}
		if added > 0 && len(e.providers) > 0 {
			e.wakeLocked()
		}
	}
	return &wire.Ack{}
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
