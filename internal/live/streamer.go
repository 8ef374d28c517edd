package live

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"dco/internal/dht"
	"dco/internal/health"
	"dco/internal/wire"
)

// generateLoop is the source's production loop: every Period it creates the
// next synthetic chunk, buffers it, and inserts its index into the DHT.
func (n *Node) generateLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.Channel.Period)
	defer t.Stop()
	seq := int64(0)
	for {
		select {
		case <-n.closed:
			return
		case <-t.C:
		}
		if n.cfg.Channel.Count > 0 && seq >= n.cfg.Channel.Count {
			return
		}
		n.buffer(seq, MakeChunkPayload(n.cfg.Channel, seq))
		n.insertIndex(seq)
		seq++
	}
}

// LatestGenerated returns the newest chunk the source produced (-1 before
// the first). Viewers return their newest buffered chunk. It is the live
// edge the insert horizon is measured from (integrity.go).
func (n *Node) LatestGenerated() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.latestGen
}

// registration is which coordinator last took this node's registration
// of a buffered seq ("" when nobody has it yet).
type registration struct {
	seq int64
	key uint64
	by  string
}

// reregister is the one re-registration path (DESIGN.md "Leases"). Every
// indexTTL/3 it refreshes every registration of this node; on the ticks in
// between, only the due ones: those nobody has, and those this node has but
// no longer owns the key of. Each group goes in one Insert to the freshly
// routed owner of its first key — the route re-proves the arc the node's
// other traffic rides on — with the due seqs that owner took or that the
// proved arc covers. It snapshots the registrations into buf and returns
// buf for the next tick. A tick starts with a custody pass (replication.go).
func (n *Node) reregister(now time.Time, buf []registration) []registration {
	n.custody(dht.Member{})
	n.mu.Lock()
	refresh := now.Sub(n.refreshed) >= indexTTL/3
	if refresh {
		n.refreshed = now
	}
	due := buf[:0]
	for _, r := range n.regs {
		due = append(due, r)
	}
	n.mu.Unlock()
	buf = due
	due = slices.DeleteFunc(due, func(r registration) bool { // keep the due ones
		return !refresh && r.by != "" && (r.by != n.self.Addr || n.kern.Owns(r.key))
	})
	for len(due) > 0 {
		select {
		case <-n.closed:
			return buf[:0]
		default:
		}
		// A route that fails takes the rest of the tick with it: due again
		// at the next one.
		first := due[0]
		route, err := n.routeTo(first.key)
		covers := route.Holds
		if route.Owner.Addr == n.self.Addr {
			covers = n.kern.Owns // a ring of one proves no arc
		}
		var more []int64
		due = slices.DeleteFunc(due[1:], func(r registration) bool {
			in := err != nil || len(more) < maxInsertSeqs-1 && (r.by == route.Owner.Addr || covers(r.key))
			if in {
				more = append(more, r.seq)
			}
			return in
		})
		msg := n.insertFor(first.key, first.seq, more)
		if err == nil {
			slices.Sort(more)
			n.lm.Republishes.Inc()
			if _, err = n.askOwner(route.Owner.Addr, msg, n.cfg.CallTimeout); ownerGone(err) {
				n.routes.Drop(route.Owner.Addr) // ownership is still moving
			}
		}
		n.noteAnswer(msg, route.Owner.Addr, err)
	}
	return buf[:0]
}

// insertIndex registers this node as a provider of seq at the chunk's
// coordinator (Algorithm 1, line 8). A failed insert is due at the next
// re-registration tick (noteAnswer).
func (n *Node) insertIndex(seq int64) {
	msg := n.insertFor(uint64(n.cfg.Channel.Ref(seq).ID()), seq, nil)
	owner, err := n.sendInsert(msg)
	if err != nil {
		n.lm.IndexInsertFailures.Inc()
	}
	n.noteAnswer(msg, owner, err)
}

// insertFor registers seq, whose key is key, and the seqs in more at the
// same coordinator, piggybacking the load report coordinators weight
// provider selection by.
func (n *Node) insertFor(key uint64, seq int64, more []int64) *wire.Insert {
	return &wire.Insert{Key: key, Seq: seq, More: more, Holder: n.wireSelf(), UpBps: n.cfg.UpBps,
		LoadMilli: n.reportLoadMilli()}
}

// noteAnswer records owner's answer to msg for each seq it names that is
// still buffered. A refusal is final (horizon, cap, quarantine) unless the
// owner is gone, disowns a key or rate-limits: then the seqs are due again.
func (n *Node) noteAnswer(msg *wire.Insert, owner string, err error) {
	if err == nil {
		n.lm.IndexInsertBytes.Add(frameBytes(msg))
	} else if we := (*wire.Error)(nil); !errors.As(err, &we) || we.Code != wire.CodeBadRequest {
		owner = ""
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.chunks[msg.Seq]; ok {
		n.regs[msg.Seq] = registration{msg.Seq, msg.Key, owner}
	}
	for _, seq := range msg.More {
		if r, ok := n.regs[seq]; ok {
			r.by = owner
			n.regs[seq] = r
		}
	}
}

// sendInsert delivers an index op to its key's coordinator: along the
// cached arc when one covers the key, and — when the cached owner bounces
// it, or there is none — to the freshly routed owner, in the same call. A
// stale arc therefore costs one extra round trip. It returns the owner that
// answered; any error but ownerGone's is that owner's verdict on the op
// (rate limit, horizon, provider cap).
func (n *Node) sendInsert(msg *wire.Insert) (string, error) {
	if owner, ok := n.cachedOwner(msg.Key); ok {
		_, err := n.askOwner(owner.Addr, msg, n.cfg.CallTimeout)
		if !n.bounced(owner.Addr, err) {
			return owner.Addr, err
		}
	}
	r, err := n.routeTo(msg.Key)
	if err != nil {
		return "", err
	}
	if _, err = n.askOwner(r.Owner.Addr, msg, n.cfg.CallTimeout); ownerGone(err) {
		n.routes.Drop(r.Owner.Addr) // ownership is still moving: do not keep what was just stored
	}
	return r.Owner.Addr, err
}

// fetchLoop drives a viewer: fetchWorkers goroutines consume sequence
// numbers in order and run the lookup → get → register cycle for each.
func (n *Node) fetchLoop() {
	defer n.wg.Done()
	seqs := make(chan int64)
	done := make(chan struct{})
	for i := 0; i < fetchWorkers; i++ {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			for seq := range seqs {
				if err := n.FetchChunk(seq); err != nil {
					// Transient — the stream moves on; a later repair
					// fetch could be layered here if gapless playback
					// mattered more than liveness.
					continue
				}
			}
		}()
	}
	defer close(seqs)
	defer close(done)
	seq := n.cfg.StartSeq
	for {
		if n.cfg.Channel.Count > 0 && seq >= n.cfg.Channel.Count {
			return
		}
		select {
		case <-n.closed:
			return
		case seqs <- seq:
			seq++
		}
	}
}

// FetchChunk acquires one chunk by the paper's client algorithm: Lookup the
// coordinator (which may hold the request until a provider registers),
// fetch from a returned provider, verify, buffer, and re-register as a
// provider. It retries across providers and routing changes until it
// succeeds, the node closes, or — when FetchDeadlineChunks is set — the
// chunk's playback horizon passes, at which point the fetch is abandoned
// (counted, traced) so workers rejoin the live edge instead of wedging on
// a chunk nobody can serve anymore.
func (n *Node) FetchChunk(seq int64) error {
	if n.HasChunk(seq) {
		return nil
	}
	start := time.Now()
	// Playback horizon: FetchDeadlineChunks periods of buffer depth from
	// the moment the viewer starts on this chunk. Zero disables deadlines
	// (fetch-until-success — fine for bounded archival pulls).
	var deadline time.Time
	if n.cfg.FetchDeadlineChunks > 0 {
		deadline = start.Add(time.Duration(n.cfg.FetchDeadlineChunks) * n.cfg.Channel.Period)
	}
	key := uint64(n.cfg.Channel.Ref(seq).ID())
	var lastErr error
	for attempt := 0; ; attempt++ {
		select {
		case <-n.closed:
			return fmt.Errorf("live: node closed (last error: %v)", lastErr)
		default:
		}
		if pastDeadline(deadline) {
			return n.abandonChunk(seq, lastErr)
		}
		providers, err := n.lookupProviders(key, seq, deadline)
		if err != nil || len(providers) == 0 {
			lastErr = err
			n.bumpRetry()
			continue
		}
		// The peer table turns the coordinator's answer into the fetch order:
		// providers on cooldown or in quarantine are rotated past (the
		// coordinator's rotation supplies alternatives), the rest come
		// least-loaded first, degraded ones last (health.Rank).
		var cand [health.MaxRank]string
		nc := 0
		for ; nc < len(providers) && nc < len(cand); nc++ {
			cand[nc] = providers[nc].Addr
		}
		order, usable, clamped := n.health.Rank(n.Addr(), cand[:nc])
		n.lm.LoadReportsClamped.Add(uint64(clamped))
		// cooled is the provider this pass blacklisted last: only a hedge's
		// backup — the next in the order — can be one still ahead.
		cooled := ""
		for pi, addr := range order[:usable] {
			if addr == cooled {
				continue
			}
			if pastDeadline(deadline) {
				return n.abandonChunk(seq, lastErr)
			}
			// The hedge target is the next-best usable provider in the
			// order — the peer this fetch would have failed over to anyway.
			backup := ""
			if pi+1 < usable {
				backup = order[pi+1]
			}
			resp, from, err := n.fetchOnce(seq, addr, backup, deadline)
			if err != nil {
				if errors.Is(err, errNodeClosed) {
					return fmt.Errorf("live: node closed (last error: %v)", lastErr)
				}
				// Single-shot by design: a failing provider is blacklisted
				// for ProviderCooldown and the fetch moves to the next
				// provider rather than retrying the same one.
				lastErr = err
				n.traceSeqPeer("chunk.timeout", seq, "peer", from)
				n.blacklistProvider(from)
				cooled = from
				continue
			}
			cr, ok := resp.(*wire.ChunkResp)
			if !ok {
				continue
			}
			if n.health.NoteLoad(from, cr.LoadMilli, cr.Busy) {
				n.lm.LoadReportsClamped.Inc() // Busy-contradiction clamp
			}
			if !cr.OK {
				if cr.Busy {
					// Busy is an admission nack from a live provider: honor
					// its RetryAfterMs hint (jittered, so viewers shed
					// together do not return together) but do not blacklist.
					n.lm.BusyNacksSeen.Inc()
					if cr.RetryAfterMs == 0 {
						n.lm.BusyNacksHintless.Inc()
					}
					if !n.sleepBusy(cr.RetryAfterMs, deadline) {
						return fmt.Errorf("live: node closed (provider %s busy)", from)
					}
				}
				continue
			}
			// The buffer choke point: storeChunk verifies, and a polluted
			// payload charges the provider (integrity.go).
			if !n.storeChunk(seq, cr.Data, from) {
				lastErr = fmt.Errorf("live: chunk %d failed verification", seq)
				cooled = from // punished at the choke point
				continue
			}
			n.insertIndex(seq)
			n.lm.ChunkFetchSeconds.Observe(time.Since(start).Seconds())
			n.traceSeqPeer("chunk.fetch", seq, "peer", from)
			return nil
		}
		n.bumpRetry()
	}
}

// errNodeClosed aborts a fetch when the node shuts down mid-request.
var errNodeClosed = errors.New("live: node closed")

// getChunkOnce issues one GetChunk carrying the viewer's declared patience
// and its remaining playback-horizon budget, under a deadline-derived
// transport timeout (with slack past the declared patience, so a serve
// legitimately queued behind the pacer is not cut off mid-wait).
func (n *Node) getChunkOnce(addr string, seq int64, deadline time.Time) (wire.Message, error) {
	req := &wire.GetChunk{Seq: seq, WaitMs: n.fetchPatienceMs(deadline), DeadlineMs: deadlineMs(deadline)}
	return n.call(addr, req, n.deadlineTimeout(deadline, time.Duration(req.WaitMs)*time.Millisecond))
}

// fetchOnce fetches seq from primary, hedging to backup (when hedging is
// on and a distinct usable provider exists): if the primary has not
// answered within its health-derived p95-ish latency estimate (clamped to
// [hedgeMinDelay, hedgeMaxDelay]), one duplicate request is launched at
// backup and the first response wins. An in-flight RPC cannot be
// cancelled, so the loser delivers into a buffered channel and is
// discarded — counted as cancelled, never leaked. Returns the winning
// response and the address it came from (the address to credit, nack-sleep
// against, or blacklist).
func (n *Node) fetchOnce(seq int64, primary, backup string, deadline time.Time) (resp wire.Message, from string, err error) {
	if !n.cfg.Hedge || backup == "" {
		resp, err = n.getChunkOnce(primary, seq, deadline)
		return resp, primary, err
	}
	type result struct {
		resp wire.Message
		err  error
		addr string
	}
	ch := make(chan result, 2)
	go func() {
		r, e := n.getChunkOnce(primary, seq, deadline)
		ch <- result{r, e, primary}
	}()
	t := time.NewTimer(n.health.HedgeAfter(primary, hedgeMinDelay, hedgeMaxDelay))
	defer t.Stop()
	select {
	case r := <-ch:
		// The common path: the primary answered (or failed conclusively)
		// inside its latency estimate. No hedge was ever launched.
		return r.resp, r.addr, r.err
	case <-n.closed:
		return nil, primary, errNodeClosed
	case <-t.C:
	}
	// The primary ran past its estimate — the gray-failure signature.
	n.lm.HedgesLaunched.Inc()
	if n.lm.trace != nil {
		n.traceEvent("chunk.hedge", seqDetail(seq)+" primary="+primary+" hedge="+backup)
	}
	go func() {
		r, e := n.getChunkOnce(backup, seq, deadline)
		ch <- result{r, e, backup}
	}()
	var lastErr error
	lastAddr := primary
	for i := 0; i < 2; i++ {
		select {
		case r := <-ch:
			if r.err == nil {
				if r.addr == backup {
					n.lm.HedgeWins.Inc()
				}
				if i == 0 {
					// The other request is still in flight; it finishes into
					// the buffered channel and is discarded.
					n.lm.HedgesCancelled.Inc()
				}
				return r.resp, r.addr, nil
			}
			lastErr, lastAddr = r.err, r.addr
		case <-n.closed:
			return nil, primary, errNodeClosed
		}
	}
	// Both legs failed; each was observed into the peer table already.
	return nil, lastAddr, lastErr
}

// pastDeadline reports whether the playback horizon d has passed (zero d =
// no deadline).
func pastDeadline(d time.Time) bool { return !d.IsZero() && time.Now().After(d) }

// abandonChunk gives up on a chunk whose playback horizon passed.
func (n *Node) abandonChunk(seq int64, lastErr error) error {
	n.lm.ChunksAbandoned.Inc()
	n.traceSeq("chunk.abandon", seq)
	return fmt.Errorf("live: chunk %d abandoned past playback horizon (last error: %v)", seq, lastErr)
}

// fetchPatienceMs is the patience a viewer declares on a GetChunk:
// admitMaxWait, never past the chunk's remaining playback horizon (waiting
// longer than the horizon buys nothing).
func (n *Node) fetchPatienceMs(deadline time.Time) uint32 {
	p := admitMaxWait
	if !deadline.IsZero() {
		if r := time.Until(deadline); r < p {
			p = r
		}
	}
	ms := uint32(0)
	if p > 0 {
		ms = uint32(p / time.Millisecond)
	}
	if ms == 0 && !deadline.IsZero() {
		ms = 1 // about to abandon; never widen to the server default
	}
	return ms
}

// maxBusySleep caps how long a single Busy hint can park a fetch worker —
// a provider drowning in backlog may honestly project seconds of delay,
// but a live viewer is better off re-looking-up for another provider.
const maxBusySleep = time.Second

// hintlessBusyPause is the hint a Busy nack without one is taken to carry.
// This repo's providers always send a hint; old or foreign ones may not.
const hintlessBusyPause = 75 * time.Millisecond

// sleepBusy honors a Busy nack's RetryAfterMs hint (hintlessBusyPause when
// it has none) with +/-25% seeded jitter, decorrelating viewers that were
// shed together. The sleep never extends past the playback horizon and
// aborts when the node closes (returns false) — a closing node must never
// sit out a backoff.
func (n *Node) sleepBusy(retryAfterMs uint32, deadline time.Time) bool {
	d := time.Duration(retryAfterMs) * time.Millisecond
	if retryAfterMs == 0 {
		d = hintlessBusyPause
	}
	if d > maxBusySleep {
		d = maxBusySleep
	}
	n.jitterMu.Lock()
	f := 0.75 + 0.5*n.jitter.Float64()
	n.jitterMu.Unlock()
	d = time.Duration(float64(d) * f)
	if !deadline.IsZero() {
		if r := time.Until(deadline); r < d {
			d = r
		}
	}
	if d <= 0 {
		return true
	}
	select {
	case <-n.closed:
		return false
	case <-time.After(d):
		return true
	}
}

// blacklistProvider puts addr on fetch cooldown after a failed or corrupt
// chunk transfer: the peer table leaves it out of fetch orders until
// ProviderCooldown has passed.
func (n *Node) blacklistProvider(addr string) {
	if n.cfg.ProviderCooldown <= 0 {
		return
	}
	n.health.Cool(addr, n.cfg.ProviderCooldown)
	n.lm.ProvidersBlacklisted.Inc()
	n.traceEvent("provider.blacklist", "peer="+addr)
}

// lookupProviders asks the chunk's coordinator for providers: the cached
// owner of the key's arc when there is one, else the routed owner. A cached
// owner that bounces the request (not the owner any more, shutting down,
// unreachable) costs one redirect: its arc is dropped and the same attempt
// goes on to route. When the routed coordinator is dead, the lookup fails
// over along its successor list: the successor inherits the key range once
// stabilization settles, so asking it is the fastest route to the surviving
// index. A not-the-owner rejection of a routed lookup means ownership is
// still moving — settle, re-route and try again. The coordinator-side
// pending-queue wait is clamped to the remaining playback horizon (zero
// deadline = no clamp): parking a lookup past the point where the answer is
// useless just occupies the pending queue.
func (n *Node) lookupProviders(key uint64, seq int64, deadline time.Time) ([]wire.Entry, error) {
	start := time.Now()
	maxWait := n.cfg.LookupWait
	if !deadline.IsZero() {
		if r := time.Until(deadline); r < maxWait {
			maxWait = r
		}
		if maxWait < 0 {
			maxWait = 0
		}
	}
	req := &wire.Lookup{Key: key, Seq: seq, MaxWait: uint32(maxWait / time.Millisecond)}
	timeout := n.deadlineTimeout(deadline, maxWait)
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			// Give stabilization a beat to settle ownership before
			// re-routing.
			select {
			case <-n.closed:
				return nil, lastErr
			case <-time.After(100 * time.Millisecond):
			}
		}
		if owner, ok := n.cachedOwner(key); ok {
			lr, err := n.lookupAt(owner.Addr, req, deadline, timeout)
			if err == nil {
				if len(lr.Providers) == 0 {
					// An empty answer is only as good as the arc it came
					// through: a superseded owner that still believes in its
					// range (the asymmetric-partition case, see
					// emptySecondOpinion) answers exactly this. Let the
					// fetch's retry route.
					n.routes.Drop(owner.Addr)
				}
				return n.lookupAnswered(start, lr), nil
			}
			lastErr = err
			if !n.bounced(owner.Addr, err) {
				continue
			}
		}
		r, err := n.routeTo(key)
		if err != nil {
			lastErr = err
			continue
		}
		// The owner must stay first — it is the one node whose answer is
		// authoritative — but the failover order among its successors is
		// ours to choose: least-suspected first, so a failover lands on a
		// healthy coordinator instead of the next degraded one.
		var cand [1 + succListSize]dht.Member
		var susp [len(cand)]float64
		cand[0] = r.Owner
		nc := 1
	fallbacks:
		for _, f := range r.Fallbacks {
			if nc == len(cand) {
				break
			}
			if f.Addr == "" {
				continue
			}
			for _, c := range cand[:nc] {
				if c.Addr == f.Addr {
					continue fallbacks
				}
			}
			// Insertion sort, stable: a handful of entries at most.
			sf := n.health.Suspicion(f.Addr)
			i := nc
			for ; i > 1 && susp[i-1] > sf; i-- {
				cand[i], susp[i] = cand[i-1], susp[i-1]
			}
			cand[i], susp[i] = f, sf
			nc++
		}
		for ci, c := range cand[:nc] {
			lr, err := n.lookupAt(c.Addr, req, deadline, timeout)
			if err != nil {
				lastErr = err
				if wire.IsNotOwner(err) {
					// Ownership moved under us: routing is stale, and so is
					// the arc it just proved.
					n.routes.Drop(c.Addr)
					break
				}
				continue // dead coordinator: fail over to the next successor
			}
			if len(lr.Providers) == 0 && c.Addr == n.Addr() {
				if ps := n.emptySecondOpinion(cand[ci+1:nc], key, seq, deadline, timeout); len(ps) > 0 {
					lr.Providers = ps
				}
			}
			if ci > 0 {
				n.lm.LookupFailovers.Inc()
				n.traceSeqPeer("lookup.failover", seq, "coordinator", c.Addr)
			}
			return n.lookupAnswered(start, lr), nil
		}
	}
	// Every candidate coordinator (owner plus its successor list) failed
	// across every re-route attempt: this is the outage replication exists
	// to prevent, so it gets its own counter (soak tests assert zero).
	n.lm.LookupFailures.Inc()
	n.traceSeq("lookup.fail", seq)
	return nil, lastErr
}

// lookupAt sends req to one coordinator, restamping the relative deadline
// budget at the send (the TTL convention: absolute times never cross the
// wire).
func (n *Node) lookupAt(addr string, req *wire.Lookup, deadline time.Time, timeout time.Duration) (*wire.LookupResp, error) {
	req.DeadlineMs = deadlineMs(deadline)
	resp, err := n.askOwner(addr, req, timeout)
	if err != nil {
		return nil, err
	}
	lr, ok := resp.(*wire.LookupResp)
	if !ok {
		return nil, errUnexpected(resp)
	}
	return lr, nil
}

// lookupAnswered closes the books on an answered lookup and returns its
// providers.
func (n *Node) lookupAnswered(start time.Time, lr *wire.LookupResp) []wire.Entry {
	n.lm.LookupSeconds.Observe(time.Since(start).Seconds())
	n.noteMembers(lr.Providers...)
	return lr.Providers
}

// emptySecondOpinion double-checks an empty answer from this node's own
// index against one fallback coordinator (gray-failure defense). A node
// cut off by an asymmetric partition still believes it owns its old arc —
// its outbound calls keep working, so it never notices the ring reassigned
// the range — while every registration for those keys lands at its
// successor. Trusting the local empty would starve exactly the chunks this
// node used to own. The probe does not park (MaxWait 0): when the local
// empty is genuine (the live edge), the fallback answers with a fast
// not-the-owner rejection and the empty stands, costing one round-trip.
func (n *Node) emptySecondOpinion(fallbacks []dht.Member, key uint64, seq int64, deadline time.Time, timeout time.Duration) []wire.Entry {
	for _, c := range fallbacks {
		if c.Addr == n.Addr() {
			continue
		}
		lr, err := n.lookupAt(c.Addr, &wire.Lookup{Key: key, Seq: seq}, deadline, timeout)
		if err == nil && len(lr.Providers) > 0 {
			n.traceSeqPeer("lookup.secondopinion", seq, "coordinator", c.Addr)
			return lr.Providers
		}
		return nil
	}
	return nil
}

// storeChunk is the buffer choke point: the ONLY path by which a received
// chunk enters the buffer map (and thereby becomes re-servable). It
// verifies the payload against the deterministic generator first and
// refuses polluted bytes, charging the serving peer when one is named
// (from may be "" for local/test stores, which skips the punishment but
// never the verification).
func (n *Node) storeChunk(seq int64, data []byte, from string) bool {
	if !VerifyChunkPayload(n.cfg.Channel, seq, data) {
		n.lm.IntegrityRejects.Inc()
		n.traceSeqPeer("chunk.reject", seq, "peer", from)
		if from != "" {
			n.punishPoisoner(from, seq)
		}
		return false
	}
	if n.buffer(seq, data) {
		n.lm.ChunksFetched.Inc()
	}
	return true
}

// buffer is the one writer of the chunk map: it stores a generated or
// verified chunk (reporting false for one already held), slides the active
// window, and runs OnChunk and the window's unregistrations outside n.mu.
func (n *Node) buffer(seq int64, data []byte) (stored bool) {
	n.mu.Lock()
	_, dup := n.chunks[seq]
	if !dup {
		n.chunks[seq] = data
		n.latestGen = max(n.latestGen, seq)
		n.low = min(n.low, seq)
	}
	expired := n.trimActiveWindowLocked()
	n.mu.Unlock()
	if cb := n.cfg.OnChunk; !dup && cb != nil {
		cb(seq, data)
	}
	n.unregisterExpired(expired)
	return !dup
}

// trimActiveWindowLocked drops chunks that fell out of the active window
// and returns their sequence numbers for unregistration. Caller holds mu.
func (n *Node) trimActiveWindowLocked() (expired []int64) {
	if len(n.chunks) > n.window {
		trimBelow(n.chunks, &n.low, n.latestGen-int64(n.window)+1, func(seq int64) {
			delete(n.regs, seq)
			expired = append(expired, seq)
		})
	}
	return expired
}

// trimBelow deletes the keys of m under cut, handing each to drop, given
// that none is under *low, and raises *low to cut. It probes the seqs from
// *low up unless they outnumber m's keys, so a window that slides by one
// seq costs one probe, not a scan of the window.
func trimBelow[V any](m map[int64]V, low *int64, cut int64, drop func(seq int64)) {
	if cut > *low && uint64(cut-*low) > uint64(len(m)) {
		for seq := range m {
			if seq < cut {
				delete(m, seq)
				drop(seq)
			}
		}
		*low = cut
	}
	for ; *low < cut; *low++ {
		if _, ok := m[*low]; ok {
			delete(m, *low)
			drop(*low)
		}
	}
}

// unregisterExpired withdraws provider records for chunks this node no
// longer holds, so coordinators stop advertising it (§III-B1b departure
// duty, applied to the sliding window).
func (n *Node) unregisterExpired(seqs []int64) {
	for _, seq := range seqs {
		// Best effort; a stale entry only costs a nack later.
		msg := n.insertFor(uint64(n.cfg.Channel.Ref(seq).ID()), seq, nil)
		msg.Unregister = true
		_, _ = n.sendInsert(msg)
	}
}

func (n *Node) bumpRetry() {
	n.lm.FetchRetries.Inc()
	select {
	case <-n.closed:
	case <-time.After(150 * time.Millisecond):
	}
}
