package core

import (
	"sort"
	"time"

	"dco/internal/chord"
	"dco/internal/simnet"
)

// providerInfo is one provider's row inside an index-table entry (paper
// Fig. 3: IP address, buffer map, bandwidth), augmented with the
// coordinator's outstanding-assignment accounting that realizes "a chunk
// provider with sufficient bandwidth".
type providerInfo struct {
	node        simnet.NodeID
	upBps       int64
	bufferCount int
	cap         int    // concurrent assignments its uplink sustains
	outstanding int    // live assignments
	assigned    uint64 // lifetime assignments (tie-breaking)
	coolUntil   time.Duration
}

type assignment struct {
	pr  *providerInfo
	gen uint64
}

// indexEntry is the coordinator-side record for one chunk ID: its known
// providers plus the requesters waiting for the first provider to appear.
type indexEntry struct {
	seq            int64
	key            chord.ID
	providers      []*providerInfo
	pending        []simnet.NodeID
	pendingSet     map[simnet.NodeID]bool
	assignedTo     map[simnet.NodeID]*assignment
	genCounter     uint64
	flushScheduled bool
}

func (p *Peer) indexEntry(seq int64) *indexEntry {
	e := p.index[seq]
	if e == nil {
		e = &indexEntry{
			seq:        seq,
			key:        p.sys.chunkKey(seq),
			pendingSet: make(map[simnet.NodeID]bool),
			assignedTo: make(map[simnet.NodeID]*assignment),
		}
		p.index[seq] = e
	}
	return e
}

// IndexSize reports how many chunk entries this peer coordinates (tests,
// load accounting).
func (p *Peer) IndexSize() int { return len(p.index) }

func (e *indexEntry) findProvider(node simnet.NodeID) (int, *providerInfo) {
	for i, pr := range e.providers {
		if pr.node == node {
			return i, pr
		}
	}
	return -1, nil
}

func (e *indexEntry) removeProvider(node simnet.NodeID) {
	if i, pr := e.findProvider(node); pr != nil {
		e.providers[i] = e.providers[len(e.providers)-1]
		e.providers = e.providers[:len(e.providers)-1]
	}
}

// coordLookup handles a Lookup that reached its owner: answer with a
// provider, or queue the requester until one registers (the paper's
// guarantee that "a chunk request in DCO is always answered with a chunk
// provider").
func (p *Peer) coordLookup(seq int64, origin simnet.NodeID) {
	p.opsThisSec++
	e := p.indexEntry(seq)
	if pr := p.selectProvider(e, origin); pr != nil {
		p.assignProvider(e, origin, pr)
		p.send(origin, kLookupResp, &lookupResp{Seq: seq, Provider: pr.node, Coord: p.id, OK: true})
		return
	}
	if p.sys.Cfg.PendingQueue {
		if !e.pendingSet[origin] {
			e.pendingSet[origin] = true
			e.pending = append(e.pending, origin)
			p.sys.Counters.PendingQueued++
			if p.sys.Trace != nil {
				p.tracef("lookup.queued", "seq=%d origin=%d", seq, origin)
			}
		}
		// Ack the queue position so the requester parks instead of
		// re-routing the whole lookup on its short timeout.
		p.send(origin, kLookupResp, &lookupResp{Seq: seq, Coord: p.id, Queued: true})
		return
	}
	p.send(origin, kLookupResp, &lookupResp{Seq: seq, Coord: p.id, OK: false})
}

// coordInsert handles an Insert that reached its owner: record (or remove)
// the provider, settle the provider-capacity accounting for the requester
// that just finished, and serve anyone still waiting.
func (p *Peer) coordInsert(m *insertMsg) {
	p.opsThisSec++
	e := p.indexEntry(m.Seq)
	holder := m.Index.Holder
	if m.Unregister {
		e.removeProvider(holder)
		return
	}
	// The holder completing a fetch frees its provider's capacity.
	if a, ok := e.assignedTo[holder]; ok {
		delete(e.assignedTo, holder)
		a.pr.outstanding--
	}
	if _, pr := e.findProvider(holder); pr != nil {
		pr.upBps = m.Index.UpBps
		pr.bufferCount = m.Index.BufferCount
	} else {
		e.providers = append(e.providers, &providerInfo{
			node:        holder,
			upBps:       m.Index.UpBps,
			bufferCount: m.Index.BufferCount,
			cap:         p.sys.Cfg.providerCap(m.Index.UpBps),
		})
	}
	p.flushPending(e)
}

// onFail implements the failure path of §III-B1b: drop the dead provider
// (or cool down a merely saturated one) and immediately re-serve the
// reporting requester.
func (p *Peer) onFail(m *failMsg) {
	p.opsThisSec++
	e := p.indexEntry(m.Seq)
	if m.Busy {
		if _, pr := e.findProvider(m.Provider); pr != nil {
			pr.coolUntil = p.sys.K.Now() + providerCooldown
		}
	} else {
		e.removeProvider(m.Provider)
		if p.sys.Trace != nil {
			p.tracef("provider.fail", "seq=%d provider=%d", m.Seq, m.Provider)
		}
	}
	if a, ok := e.assignedTo[m.Origin]; ok {
		delete(e.assignedTo, m.Origin)
		a.pr.outstanding--
	}
	p.coordLookup(m.Seq, m.Origin)
}

// selectProvider picks a provider with spare capacity for origin, or nil.
// The candidates are gathered in the System's scratch slice, which no call
// keeps past its return.
func (p *Peer) selectProvider(e *indexEntry, origin simnet.NodeID) *providerInfo {
	now := p.sys.K.Now()
	candidates := p.sys.candidates[:0]
	for _, pr := range e.providers {
		if pr.node == origin || pr.outstanding >= pr.cap || pr.coolUntil > now {
			continue
		}
		candidates = append(candidates, pr)
	}
	p.sys.candidates = candidates
	if len(candidates) == 0 {
		return nil
	}
	switch p.sys.Cfg.Selection {
	case SelectRandom:
		return candidates[p.sys.K.Rand().Intn(len(candidates))]
	default: // SelectLeastLoaded
		best := candidates[0]
		bestScore := float64(best.outstanding) / float64(best.cap)
		for _, pr := range candidates[1:] {
			score := float64(pr.outstanding) / float64(pr.cap)
			if score < bestScore || (score == bestScore && pr.assigned < best.assigned) {
				best, bestScore = pr, score
			}
		}
		return best
	}
}

// assignProvider charges one outstanding slot against pr and leases it: if
// the requester never completes (it died, or its chunk message was lost),
// the slot is reclaimed after leaseTime so a vanished requester cannot pin
// provider capacity forever.
func (p *Peer) assignProvider(e *indexEntry, origin simnet.NodeID, pr *providerInfo) {
	pr.outstanding++
	pr.assigned++
	p.sys.Counters.Assignments++
	e.genCounter++
	a := &assignment{pr: pr, gen: e.genCounter}
	e.assignedTo[origin] = a
	gen := a.gen
	p.sys.K.After(leaseTime, func() {
		if cur, ok := e.assignedTo[origin]; ok && cur.gen == gen {
			p.sys.Counters.LeaseExpiries++
			delete(e.assignedTo, origin)
			cur.pr.outstanding--
			if p.alive {
				p.flushPending(e)
			}
		}
	})
}

// flushPending serves queued requesters while providers have capacity. If
// requesters remain queued against known-but-saturated providers, a retry
// flush is scheduled so a cooldown ending cannot strand the queue.
func (p *Peer) flushPending(e *indexEntry) {
	for len(e.pending) > 0 {
		origin := e.pending[0]
		pr := p.selectProvider(e, origin)
		if pr == nil {
			if len(e.providers) > 0 && !e.flushScheduled {
				e.flushScheduled = true
				p.sys.K.After(providerCooldown, func() {
					e.flushScheduled = false
					if p.alive {
						p.flushPending(e)
					}
				})
			}
			return
		}
		e.pending = e.pending[1:]
		delete(e.pendingSet, origin)
		p.assignProvider(e, origin, pr)
		p.send(origin, kLookupResp, &lookupResp{Seq: e.seq, Provider: pr.node, Coord: p.id, OK: true})
	}
}

// exportEntries serializes index entries matching keep for a handoff; the
// exported entries are deleted locally. Iteration is in seq order for
// reproducibility.
func (p *Peer) exportEntries(keep func(key chord.ID) bool) []handoffEntry {
	seqs := make([]int64, 0, len(p.index))
	for seq := range p.index {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	var out []handoffEntry
	for _, seq := range seqs {
		e := p.index[seq]
		if !keep(e.key) {
			continue
		}
		he := handoffEntry{Seq: seq, Key: e.key}
		for _, pr := range e.providers {
			he.Providers = append(he.Providers, ChunkIndex{Holder: pr.node, UpBps: pr.upBps, BufferCount: pr.bufferCount})
		}
		he.Pending = append(he.Pending, e.pending...)
		out = append(out, he)
		delete(p.index, seq)
	}
	return out
}

// onHandoff merges transferred index entries (graceful coordinator leave,
// or ownership change after a join). Pending requesters are re-queued and
// served from the merged provider set.
func (p *Peer) onHandoff(m *handoffMsg) {
	for _, he := range m.Entries {
		e := p.indexEntry(he.Seq)
		for _, idx := range he.Providers {
			if _, pr := e.findProvider(idx.Holder); pr == nil {
				e.providers = append(e.providers, &providerInfo{
					node:        idx.Holder,
					upBps:       idx.UpBps,
					bufferCount: idx.BufferCount,
					cap:         p.sys.Cfg.providerCap(idx.UpBps),
				})
			}
		}
		for _, origin := range he.Pending {
			if !e.pendingSet[origin] {
				e.pendingSet[origin] = true
				e.pending = append(e.pending, origin)
			}
		}
		p.flushPending(e)
	}
}
