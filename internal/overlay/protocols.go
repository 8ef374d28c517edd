package overlay

import (
	"sort"
	"time"

	"dco/internal/simnet"
	"dco/internal/stream"
)

// generate is the server's production step for all three baselines.
func (nd *node) generate(seq int64) {
	if !nd.alive {
		return
	}
	nd.buf.Set(seq)
	nd.sys.Log.Generated(seq, nd.sys.K.Now())
	switch nd.sys.Cfg.Kind {
	case Tree:
		nd.treeForward(seq)
	case Push:
		nd.queuePush(seq)
	}
	// Pull: neighbors learn about the chunk from the next buffer-map
	// exchange and request it.
}

// HandleMessage dispatches baseline traffic.
func (nd *node) HandleMessage(m *simnet.Message) {
	if !nd.alive {
		return
	}
	switch m.Kind {
	case kBufferMap:
		if st, ok := nd.neighbors[m.From]; ok {
			st.lastMap = m.Payload.(*bufMapMsg).Map
		}
		if nd.sys.Cfg.Kind == Push {
			nd.drainPush()
		}
	case kRequest:
		req := m.Payload.(*requestMsg)
		// Serve only when the uplink queue is sane; a saturated responder
		// stays silent and the requester's timeout rotates it to another
		// holder. Without this gate the first holders of a popular chunk
		// accumulate unbounded upload queues and the swarm collapses.
		busy := nd.sys.Net.UploadBusyUntil(nd.id)-nd.sys.K.Now() > serveQueueLimit
		if nd.buf.Has(req.Seq) && !busy {
			nd.sys.Net.SendData(nd.id, req.From, kChunk, &chunkMsg{Seq: req.Seq}, nd.sys.Cfg.Stream.ChunkBits)
		}
		// A stale request (we do not have it) simply times out at the
		// requester, which retries the next neighbor round-robin.
	case kOffer:
		nd.onOffer(m.Payload.(*offerMsg))
	case kAccept:
		nd.onAccept(m.From, m.Payload.(*acceptMsg))
	case kDecline:
		nd.settleOffer(offKey{nid: m.From, seq: m.Payload.(*acceptMsg).Seq})
		nd.drainOffers()
	case kChunk:
		nd.onChunk(m.Payload.(*chunkMsg).Seq)
	}
}

func (nd *node) onChunk(seq int64) {
	if nd.buf.Has(seq) {
		nd.sys.duplicates++ // push's redundant-delivery cost
		return
	}
	nd.buf.Set(seq)
	delete(nd.offerPending, seq)
	nd.sys.Log.Received(nd.id, seq, nd.sys.K.Now())
	nd.sys.noteReceived()
	if r, ok := nd.outstanding[seq]; ok {
		r.timeout.Cancel()
		delete(nd.outstanding, seq)
	}
	switch nd.sys.Cfg.Kind {
	case Tree:
		nd.treeForward(seq)
	case Push:
		nd.queuePush(seq)
	case Pull:
		nd.pullTick() // free request slot: schedule the next pull now
	}
}

// ---------------------------------------------------------------------------
// Buffer-map gossip (pull + push, §IV: every second).

func (nd *node) exchangeTick() {
	if !nd.alive || len(nd.neighbors) == 0 {
		return
	}
	snapshot := nd.buf.Clone() // one copy shared read-only by all receivers
	msg := &bufMapMsg{Map: snapshot}
	for _, nid := range nd.neighborOrder() {
		nd.sys.Net.Send(nd.id, nid, kBufferMap, msg)
	}
}

// ---------------------------------------------------------------------------
// Pull: request missing chunks round-robin from neighbors that advertise
// them, one request outstanding per chunk, retrying on timeout.

func (nd *node) pullTick() {
	if !nd.alive || nd.isSource {
		return
	}
	cfg := &nd.sys.Cfg
	latest := cfg.Stream.SeqAt(nd.sys.K.Now())
	if latest < nd.startSeq {
		return
	}
	if nd.cursor < nd.startSeq {
		nd.cursor = nd.startSeq
	}
	for nd.cursor <= latest && nd.buf.Has(nd.cursor) {
		nd.cursor++
	}
	hi := nd.cursor + window - 1
	if hi > latest {
		hi = latest
	}
	for seq := nd.cursor; seq <= hi; seq++ {
		if len(nd.outstanding) >= maxParallelRequests {
			return
		}
		if nd.buf.Has(seq) || nd.outstanding[seq] != nil {
			continue
		}
		nd.requestChunk(seq, nil)
	}
}

// requestChunk asks the next neighbor (round-robin) that advertises seq.
// tried carries the neighbors already asked for this chunk, so a retry
// moves on; when every holder was tried the cycle restarts.
func (nd *node) requestChunk(seq int64, tried map[simnet.NodeID]bool) {
	holders := nd.holdersOf(seq, tried)
	if len(holders) == 0 && len(tried) > 0 {
		tried = nil // all holders tried once; start the round-robin over
		holders = nd.holdersOf(seq, nil)
	}
	if len(holders) == 0 {
		return // no neighbor advertises it yet; the next tick retries
	}
	target := holders[nd.rrCursor%len(holders)]
	nd.rrCursor++
	if tried == nil {
		tried = make(map[simnet.NodeID]bool)
	}
	tried[target] = true
	nd.sys.Net.Send(nd.id, target, kRequest, &requestMsg{Seq: seq, From: nd.id})
	r := &pullReq{seq: seq, target: target, tried: tried}
	r.timeout = nd.sys.K.After(requestTimeout, func() {
		if cur, ok := nd.outstanding[seq]; ok && cur == r && nd.alive {
			delete(nd.outstanding, seq)
			nd.requestChunk(seq, r.tried)
		}
	})
	nd.outstanding[seq] = r
}

// holdersOf lists neighbors advertising seq, in stable ID order (map
// iteration order must not leak into target selection, or runs stop being
// reproducible).
func (nd *node) holdersOf(seq int64, skip map[simnet.NodeID]bool) []simnet.NodeID {
	var out []simnet.NodeID
	for _, nid := range nd.neighborOrder() {
		if skip[nid] {
			continue
		}
		if st := nd.neighbors[nid]; st != nil && st.lastMap != nil && st.lastMap.Has(seq) {
			out = append(out, nid)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Push: sender-initiated dissemination. A holder offers fresh chunks to
// neighbors whose last buffer map lacks them; a neighbor accepts the first
// offer per chunk and declines the rest, and the data follows an accept.
// The paper's blind push mails full chunks into 1-second-stale buffer maps;
// under a serialized-bandwidth substrate that wastes most of the uplink on
// duplicate 300 kbit chunks, so the handshake converts the push method's
// signature redundancy ("a node may receive many identical chunks") into
// duplicate *offers* — extra control messages, the same cost class the
// paper already charges against push. While a chunk is fresh, each holder
// also caps its accepted sends so early holders do not soak their uplinks
// on one chunk.

func (nd *node) queuePush(seq int64) {
	if seq > nd.newest {
		nd.newest = seq
	}
	nd.drainOffers()
}

// drainOffers walks neighbors round-robin offering the newest chunk each
// lacks, bounded by the uplink budget with unanswered offers charged until
// they settle.
func (nd *node) drainOffers() {
	if !nd.alive || len(nd.neighbors) == 0 {
		return
	}
	budget := nd.uplinkBudget() - nd.offersOut
	if budget <= 0 {
		return
	}
	order := nd.neighborOrder()
	idle := 0
	walk := len(order)
	if walk > 12 {
		walk = 12 // bound per-call work; round-robin resumes next call
	}
	for budget > 0 && idle < walk {
		nid := order[nd.rrCursor%len(order)]
		nd.rrCursor++
		st := nd.neighbors[nid]
		if st == nil {
			idle++
			continue
		}
		seq, ok := nd.newestOfferFor(nid, st)
		if !ok {
			idle++
			continue
		}
		idle = 0
		nd.markPushed(nid, seq)
		nd.offersOut++
		key := offKey{nid: nid, seq: seq}
		nd.offerCharges[key] = true
		nd.sys.Net.Send(nd.id, nid, kOffer, &offerMsg{Seq: seq, From: nd.id})
		nd.sys.K.After(offerLease, func() { nd.settleOffer(key) })
		budget--
	}
}

// newestOfferFor scans from our newest chunk downward for one the neighbor
// lacks (per its advertised map) that we have not offered yet.
//
// In dense meshes each node restricts its fresh offers of a given chunk to
// a deterministic pseudo-random subset of its neighbors (offerCandidate):
// with 64 neighbors, 60+ holders racing to offer the same chunk to the
// same receiver drown the swarm in declines. The subsets differ per chunk
// and per holder, so any receiver is covered with overwhelming probability
// once a handful of its neighbors hold the chunk; the repair pass is
// uncapped and guarantees completion regardless.
func (nd *node) newestOfferFor(nid simnet.NodeID, st *neighborState) (int64, bool) {
	pushed := nd.pushedTo[nid]
	floor := nd.newest - window // older holes belong to the repair pass
	if floor < 0 {
		floor = 0
	}
	for seq := nd.newest; seq >= floor; seq-- {
		if !nd.buf.Has(seq) || (pushed != nil && pushed.Has(seq)) {
			continue
		}
		if st.lastMap != nil && st.lastMap.Has(seq) {
			continue
		}
		if !nd.offerCandidate(nid, seq) {
			continue
		}
		return seq, true
	}
	return 0, false
}

// offerCandidate decides whether this node fresh-offers chunk seq to
// neighbor nid: a SplitMix64-style hash selects ~MaxOfferDegree of the
// neighbor set per (holder, chunk).
func (nd *node) offerCandidate(nid simnet.NodeID, seq int64) bool {
	deg := len(nd.neighbors)
	max := maxOfferDegree
	if nd.isSource || max <= 0 || deg <= max {
		return true
	}
	h := uint64(nd.id)*0x9E3779B97F4A7C15 ^ uint64(nid)*0xBF58476D1CE4E5B9 ^ uint64(seq)*0x94D049BB133111EB
	h ^= h >> 31
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 29
	return h%uint64(deg) < uint64(max)
}

func (nd *node) markPushed(nid simnet.NodeID, seq int64) {
	bm := nd.pushedTo[nid]
	if bm == nil {
		bm = stream.NewBufferMap(0)
		nd.pushedTo[nid] = bm
	}
	bm.Set(seq)
}

func (nd *node) wasPushed(nid simnet.NodeID, seq int64) bool {
	bm := nd.pushedTo[nid]
	return bm != nil && bm.Has(seq)
}

// onOffer accepts the first offer for a chunk we lack; every other offer is
// declined — the push method's redundancy, paid in control messages.
func (nd *node) onOffer(m *offerMsg) {
	if nd.buf.Has(m.Seq) {
		nd.sys.Net.Send(nd.id, m.From, kDecline, &acceptMsg{Seq: m.Seq})
		return
	}
	if until, pending := nd.offerPending[m.Seq]; pending && until > nd.sys.K.Now() {
		nd.sys.Net.Send(nd.id, m.From, kDecline, &acceptMsg{Seq: m.Seq})
		return
	}
	if nd.offerPending == nil {
		nd.offerPending = make(map[int64]time.Duration)
	}
	nd.offerPending[m.Seq] = nd.sys.K.Now() + acceptLease
	nd.sys.Net.Send(nd.id, m.From, kAccept, &acceptMsg{Seq: m.Seq})
}

func (nd *node) onAccept(from simnet.NodeID, m *acceptMsg) {
	nd.settleOffer(offKey{nid: from, seq: m.Seq})
	if nd.buf.Has(m.Seq) {
		nd.sys.Net.SendData(nd.id, from, kChunk, &chunkMsg{Seq: m.Seq}, nd.sys.Cfg.Stream.ChunkBits)
	}
	nd.drainOffers()
}

// settleOffer releases an offer's budget charge exactly once, whether it
// was accepted, declined, or its lease expired unanswered.
func (nd *node) settleOffer(key offKey) {
	if nd.offerCharges[key] {
		delete(nd.offerCharges, key)
		if nd.offersOut > 0 {
			nd.offersOut--
		}
	}
}

// drainPush is the 1 Hz repair tick. The hot path only scans a recent
// window; here each neighbor's advertised holes (bounded per tick) are
// enumerated so older gaps still fill, guaranteeing complete dissemination.
func (nd *node) drainPush() {
	nd.drainOffers()
	if !nd.alive || len(nd.neighbors) == 0 {
		return
	}
	budget := nd.uplinkBudget() - nd.offersOut
	if budget <= 0 {
		return
	}
	const holesPerNeighbor = 16
	order := nd.neighborOrder()
	for i := 0; budget > 0 && i < len(order); i++ {
		nid := order[nd.rrCursor%len(order)]
		nd.rrCursor++
		st := nd.neighbors[nid]
		if st == nil || st.lastMap == nil {
			continue
		}
		for _, seq := range st.lastMap.Missing(0, nd.newest, holesPerNeighbor) {
			if budget <= 0 {
				break
			}
			if !nd.buf.Has(seq) || nd.wasPushed(nid, seq) {
				continue
			}
			nd.markPushed(nid, seq)
			nd.offersOut++
			key := offKey{nid: nid, seq: seq}
			nd.offerCharges[key] = true
			nd.sys.Net.Send(nd.id, nid, kOffer, &offerMsg{Seq: seq, From: nd.id})
			nd.sys.K.After(offerLease, func() { nd.settleOffer(key) })
			budget--
		}
	}
}

// neighborOrder returns a stable slice of neighbor IDs for round-robin.
func (nd *node) neighborOrder() []simnet.NodeID {
	if len(nd.nbrOrder) != len(nd.neighbors) {
		nd.nbrOrder = nd.nbrOrder[:0]
		for nid := range nd.neighbors {
			nd.nbrOrder = append(nd.nbrOrder, nid)
		}
		sort.Slice(nd.nbrOrder, func(i, j int) bool { return nd.nbrOrder[i] < nd.nbrOrder[j] })
	}
	return nd.nbrOrder
}

// uplinkBudget converts free uplink time into a number of chunk sends.
func (nd *node) uplinkBudget() int {
	cfg := &nd.sys.Cfg
	free := time.Second - (nd.sys.Net.UploadBusyUntil(nd.id) - nd.sys.K.Now())
	if free <= 0 {
		return 0
	}
	chunkTime := time.Duration(float64(cfg.Stream.ChunkBits) / float64(nd.upBps()) * float64(time.Second))
	return int(free / chunkTime)
}

func (nd *node) upBps() int64 {
	if nd.isSource {
		return simnet.ServerBps
	}
	return simnet.PeerBps
}

// ---------------------------------------------------------------------------
// Tree: forward every chunk to all children; the only traffic is data, so
// the tree contributes zero extra overhead by construction.

func (nd *node) treeForward(seq int64) {
	for _, c := range nd.children {
		nd.sys.Net.SendData(nd.id, c, kChunk, &chunkMsg{Seq: seq}, nd.sys.Cfg.Stream.ChunkBits)
	}
}
