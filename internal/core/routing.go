package core

import (
	"sort"

	"dco/internal/chord"
	"dco/internal/simnet"
)

// sortedKeys returns a map's keys in ascending order; every simulated
// iteration over a map must use it (or an equivalent) so that Go's
// randomized map order cannot change the event sequence between runs.
func sortedKeys(m map[int64]bool) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// forward routes a message one step toward key over connection-oriented
// links: a dead next hop is detected at connect time (as real TCP-based
// Chord implementations do), removed from the local tables, and routing
// re-picks until a live hop accepts or this node turns out to own the key.
// Returns mine=true when this node is the owner.
func (p *Peer) forward(key chord.ID, hops *int, kind string, payload any) (mine bool) {
	for tries := 0; ; tries++ {
		if *hops > p.sys.maxHops || tries > p.sys.Cfg.Neighbors+2 {
			p.sys.droppedRoutes++
			return false
		}
		hop, done := p.cs.NextHopUsing(key, p.sys.Cfg.UseFingers)
		if done && hop.Addr == p.id {
			return true
		}
		if !hop.OK {
			p.sys.droppedRoutes++
			return false
		}
		*hops++
		if p.sys.Net.TrySend(p.id, hop.Addr, kind, payload) {
			return false
		}
		// Connect failed: the hop is dead. Purge and re-route.
		p.cs.RemoveFailed(hop.Addr)
	}
}

func (p *Peer) routeLookup(m *lookupMsg) {
	if p.forward(m.Key, &m.Hops, kLookup, m) {
		p.coordLookup(m.Seq, m.Origin)
	}
}

func (p *Peer) routeInsert(m *insertMsg) {
	if p.forward(m.Key, &m.Hops, kInsert, m) {
		p.coordInsert(m)
	}
}

func (p *Peer) routeFind(m *findMsg) {
	if p.forward(m.Key, &m.Hops, kFind, m) {
		resp := &findResp{Tag: m.Tag, Owner: p.entry()}
		if m.Tag == tagJoin {
			resp.Succs = p.cs.SuccessorList()
			resp.Pred = p.cs.Predecessor()
		}
		p.send(m.Origin, kFindResp, resp)
	}
}

func (p *Peer) onFindResp(r *findResp) {
	if r.Tag >= 0 {
		// A fix-fingers refresh completed.
		p.cs.SetFinger(int(r.Tag), r.Owner)
		return
	}
	p.completeJoin(r)
}

// ---------------------------------------------------------------------------
// Join (§III-B1b "Node Join").

// onBootstrap: the server hands each newcomer one coordinator in
// round-robin order for load balance.
func (p *Peer) onBootstrap(from simnet.NodeID) {
	coord := p.sys.nextCoordinator()
	if !coord.OK {
		coord = p.entry()
	}
	p.send(from, kBootstrapR, &bootstrapResp{Coordinator: coord})
}

func (p *Peer) onBootstrapResp(r *bootstrapResp) {
	if p.joined {
		return
	}
	if p.sys.Cfg.Hierarchy.Enabled && !p.wantDHT {
		// Lower tier: attach to the assigned coordinator.
		p.coordinator = r.Coordinator.Addr
		p.send(r.Coordinator.Addr, kAttach, &attachMsg{From: p.id})
		return
	}
	// Upper tier: find our ring position through the coordinator.
	p.send(r.Coordinator.Addr, kFind, &findMsg{Key: p.cs.Self.ID, Origin: p.id, Tag: tagJoin})
}

// completeJoin installs the discovered successor and announces ourselves.
func (p *Peer) completeJoin(r *findResp) {
	if p.joined && p.inDHT {
		return
	}
	p.cs.SetSuccessor(r.Owner)
	p.cs.AdoptSuccessorList(r.Owner, r.Succs)
	if r.Pred.OK {
		// Provisional predecessor so OwnsKey is sane before the first
		// stabilize round; our successor's notify handling will correct it.
		p.cs.SetPredecessor(r.Pred)
	}
	p.joined = true
	p.inDHT = true
	if p.sys.Trace != nil {
		p.tracef("peer.join", "ring=%s", p.cs.Self.ID)
	}
	if p.coordinator != simnet.Invalid {
		// A promoted client no longer proxies through its old coordinator.
		p.send(p.coordinator, kDetach, nil)
		p.coordinator = simnet.Invalid
	}
	p.send(r.Owner.Addr, kNotify, &notifyMsg{From: p.entry()})
}

// ---------------------------------------------------------------------------
// Stabilization (Chord's periodic repair; runs when Cfg.Maintenance).

func (p *Peer) stabilizeTick() {
	if !p.alive || !p.inDHT {
		return
	}
	p.checkPredecessor()
	if !p.joined {
		return
	}
	succ := p.cs.Successor()
	if succ.Addr == p.id {
		p.stabWaiting = false
		if !p.isSource {
			// Islanded: every known successor died before repair could
			// follow the ring. Re-enter through the server, like a fresh
			// joiner (§III-B1b node-failure handling).
			p.joined = false
			p.send(p.sys.server.id, kBootstrap, nil)
		}
		return
	}
	if p.stabWaiting && p.stabTarget == succ.Addr {
		// The previous probe went unanswered: the successor is dead.
		p.cs.RemoveFailed(succ.Addr)
		succ = p.cs.Successor()
		if succ.Addr == p.id {
			p.stabWaiting = false
			return
		}
	}
	p.stabWaiting = true
	p.stabTarget = succ.Addr
	p.send(succ.Addr, kStabQ, &stabQ{From: p.entry()})
	// Probe one random deeper list entry too: routing picks hops from the
	// whole successor list, and a dead entry deep in the list otherwise
	// lingers for many rounds (it propagates backward from the successor's
	// own list faster than it is purged). Entries that did not answer by
	// the next tick are removed.
	for addr := range p.listProbes {
		if !p.listProbes[addr] {
			continue
		}
		p.cs.RemoveFailed(addr)
		delete(p.listProbes, addr)
	}
	list := p.cs.SuccessorList()
	if len(list) > 1 {
		e := list[1+p.sys.K.Rand().Intn(len(list)-1)]
		if e.Addr != p.id {
			if p.listProbes == nil {
				p.listProbes = make(map[simnet.NodeID]bool)
			}
			p.listProbes[e.Addr] = true
			p.send(e.Addr, kPredQ, nil)
		}
	}
}

// checkPredecessor is Chord's check_predecessor step: probe the current
// predecessor and clear it if the previous probe went unanswered. Without
// this, a dead predecessor is endlessly re-advertised to the node behind it
// (stabilize adopts the successor's predecessor), and the ring never heals.
func (p *Peer) checkPredecessor() {
	pred := p.cs.Predecessor()
	if !pred.OK || pred.Addr == p.id {
		p.predWaiting = false
		return
	}
	if p.predWaiting && p.predTarget == pred.Addr {
		p.cs.ClearPredecessor()
		p.predWaiting = false
		return
	}
	p.predWaiting = true
	p.predTarget = pred.Addr
	p.send(pred.Addr, kPredQ, nil)
}

func (p *Peer) onStabQ(q *stabQ) {
	p.send(q.From.Addr, kStabR, &stabR{Pred: p.cs.Predecessor(), List: p.cs.SuccessorList()})
}

func (p *Peer) onStabR(from simnet.NodeID, r *stabR) {
	if !p.stabWaiting || p.stabTarget != from {
		return
	}
	p.stabWaiting = false
	succ := p.cs.Successor()
	if r.Pred.OK && r.Pred.Addr != p.id && chord.InOO(p.cs.Self.ID, r.Pred.ID, succ.ID) {
		// Someone joined between us and our successor.
		p.cs.SetSuccessor(r.Pred)
		succ = r.Pred
	} else {
		p.cs.AdoptSuccessorList(succ, r.List)
	}
	p.send(succ.Addr, kNotify, &notifyMsg{From: p.entry()})
}

// onNotify adopts a closer predecessor and hands it the index entries that
// now fall in its key range, preserving chunk availability across joins.
func (p *Peer) onNotify(n *notifyMsg) {
	if !p.cs.Notify(n.From) {
		return
	}
	moved := p.exportEntries(func(key chord.ID) bool { return !p.cs.OwnsKey(key) })
	if len(moved) > 0 {
		p.send(n.From.Addr, kHandoff, &handoffMsg{Entries: moved})
	}
}

// republishTick re-inserts a few random registered chunk indices (soft
// state). Under churn a routed insert can vanish at a dead hop and a
// coordinator can die with its table; periodic republication restores the
// paper's chunk-availability guarantee.
func (p *Peer) republishTick() {
	if !p.alive || !p.joined {
		return
	}
	if len(p.registered) == 0 {
		return
	}
	// Sample from a sorted snapshot so the kernel RNG, not map iteration
	// order, decides the picks (reproducibility).
	seqs := sortedKeys(p.registered)
	picks := make([]int64, 0, republishBatch)
	for len(picks) < republishBatch && len(seqs) > 0 {
		i := p.sys.K.Rand().Intn(len(seqs))
		picks = append(picks, seqs[i])
		seqs[i] = seqs[len(seqs)-1]
		seqs = seqs[:len(seqs)-1]
	}
	idx := ChunkIndex{Holder: p.id, UpBps: p.upBps, BufferCount: p.buf.Count()}
	for _, seq := range picks {
		if p.inDHT {
			p.routeInsert(&insertMsg{Key: p.sys.chunkKey(seq), Seq: seq, Index: idx})
		} else if p.coordinator != simnet.Invalid {
			p.send(p.coordinator, kProxyInsert, &proxyInsert{Seq: seq, Index: idx})
		}
	}
}

func (p *Peer) fixFingersTick() {
	if !p.alive || !p.joined || !p.inDHT {
		return
	}
	i, start := p.cs.NextFingerToFix()
	p.routeFind(&findMsg{Key: start, Origin: p.id, Tag: int64(i)})
}

// ---------------------------------------------------------------------------
// Departure (§III-B1b "Node Departure" / "Node Failure").

// Depart removes the peer from the system. A graceful departure performs
// the paper's three coordinator duties (redirect clients, transfer chunk
// indices, standard Chord leave) plus provider unregistration; an abrupt
// one vanishes and leaves repair to timeouts and stabilization.
func (p *Peer) Depart(graceful bool) {
	if !p.alive || p.isSource {
		return
	}
	if graceful {
		p.gracefulLeave()
	}
	p.alive = false
	for _, t := range p.tickers {
		t.Stop()
	}
	p.tickers = nil
	for _, f := range p.fetches {
		f.clearTimeout()
	}
	p.fetches = make(map[int64]*fetch)
	p.sys.Log.NodeLeft(p.id, p.sys.K.Now())
	if p.sys.Trace != nil {
		p.tracef("peer.depart", "graceful=%v", graceful)
	}
	p.sys.Net.Kill(p.id)
	p.sys.peerDeparted()
}

func (p *Peer) gracefulLeave() {
	// Withdraw our provider registrations so coordinators stop advertising
	// us ("it informs the coordinators to which it has reported its chunks").
	// Sorted order keeps the run reproducible: map iteration order must
	// never leak into the event sequence.
	for _, seq := range sortedKeys(p.registered) {
		p.unregister(seq)
	}
	if !p.inDHT {
		if p.coordinator != simnet.Invalid {
			p.send(p.coordinator, kDetach, nil)
		}
		return
	}
	succ := p.cs.Successor()
	pred := p.cs.Predecessor()
	if succ.Addr != p.id {
		// (1) Redirect lower-tier clients to our ring neighbors, half each.
		p.redirectClients(succ, pred)
		// (2) Transfer every index entry to the successor, the new owner of
		// our key range under the DHT file-assignment policy.
		all := p.exportEntries(func(chord.ID) bool { return true })
		if len(all) > 0 {
			p.send(succ.Addr, kHandoff, &handoffMsg{Entries: all})
		}
		// (3) Standard Chord leave: link predecessor and successor.
		p.send(succ.Addr, kLeave, &leaveMsg{From: p.entry(), NewPred: pred})
		if pred.OK && pred.Addr != p.id {
			p.send(pred.Addr, kLeave, &leaveMsg{From: p.entry(), NewSucc: p.cs.SuccessorList()})
		}
	}
}

func (p *Peer) onLeave(m *leaveMsg) {
	if m.NewPred.OK || m.NewSucc == nil {
		// Sent to the successor: our predecessor left.
		if pr := p.cs.Predecessor(); pr.OK && pr.Addr == m.From.Addr {
			p.cs.SetPredecessor(m.NewPred)
		}
	}
	if m.NewSucc != nil {
		// Sent to the predecessor: our successor left.
		p.cs.RemoveFailed(m.From.Addr)
		if len(m.NewSucc) > 0 {
			filtered := m.NewSucc[:0]
			for _, e := range m.NewSucc {
				if e.Addr != m.From.Addr && e.Addr != p.id {
					filtered = append(filtered, e)
				}
			}
			if len(filtered) > 0 {
				p.cs.AdoptSuccessorList(filtered[0], filtered[1:])
			}
		}
	}
}
