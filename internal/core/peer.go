package core

import (
	"time"

	"dco/internal/chord"
	"dco/internal/sim"
	"dco/internal/simnet"
	"dco/internal/stream"
)

// Peer is one DCO node. Every peer is simultaneously a viewer (fetching
// chunks per Algorithm 1), a provider (serving chunks it buffered), and —
// when it is a DHT member — a coordinator for the chunk IDs it owns.
type Peer struct {
	sys *System
	id  simnet.NodeID
	cs  *chord.State[simnet.NodeID]

	isSource bool // the streaming server
	alive    bool
	joined   bool // DHT position established (or attached, in hierarchy mode)
	inDHT    bool // upper tier member
	wantDHT  bool // a promoted/volunteering node joining the upper tier
	joinAt   time.Duration

	upBps, downBps int64

	// Viewer state.
	buf        *stream.BufferMap
	startSeq   int64 // first chunk this node is expected to receive
	cursor     int64 // first potentially-missing sequence
	ft         *stream.FailureTracker
	fetches    map[int64]*fetch
	registered map[int64]bool

	// Coordinator state.
	index map[int64]*indexEntry

	// Hierarchy (two-tier) state.
	coordinator simnet.NodeID          // upper-tier contact for a lower-tier client
	coordFails  int                    // consecutive unanswered proxy lookups
	clients     map[simnet.NodeID]bool // lower-tier clients attached to this coordinator
	opsThisSec  int                    // coordinator load, reset each second
	overloaded  bool

	playback playbackState

	// Maintenance state.
	stabWaiting bool
	stabTarget  simnet.NodeID
	predWaiting bool
	predTarget  simnet.NodeID
	listProbes  map[simnet.NodeID]bool // outstanding deep successor-list pings

	tickers []*sim.Ticker
}

func newPeer(sys *System, id simnet.NodeID, cid chord.ID, upBps, downBps int64) *Peer {
	self := entry{ID: cid, Addr: id, OK: true}
	return &Peer{
		sys:         sys,
		id:          id,
		cs:          chord.NewState(self, sys.Cfg.Neighbors),
		upBps:       upBps,
		downBps:     downBps,
		buf:         stream.NewBufferMap(0),
		ft:          stream.NewFailureTracker(0.1),
		fetches:     make(map[int64]*fetch),
		registered:  make(map[int64]bool),
		index:       make(map[int64]*indexEntry),
		coordinator: simnet.Invalid,
		clients:     make(map[simnet.NodeID]bool),
	}
}

// ID returns the peer's network identity.
func (p *Peer) ID() simnet.NodeID { return p.id }

// Alive reports liveness.
func (p *Peer) Alive() bool { return p.alive }

// HasChunk reports whether the peer buffered chunk seq.
func (p *Peer) HasChunk(seq int64) bool { return p.buf.Has(seq) }

// PrefetchWindow returns the node's current adaptive window size.
func (p *Peer) PrefetchWindow() int {
	return p.sys.Cfg.Prefetch.Window(p.downBps, p.ft.Prob())
}

func (p *Peer) entry() entry { return p.cs.Self }

func (p *Peer) send(to simnet.NodeID, kind string, payload any) {
	p.sys.Net.Send(p.id, to, kind, payload)
}

// HandleMessage dispatches every message addressed to this peer.
func (p *Peer) HandleMessage(m *simnet.Message) {
	if !p.alive {
		return
	}
	switch m.Kind {
	case kLookup:
		p.routeLookup(m.Payload.(*lookupMsg))
	case kLookupResp:
		p.onLookupResp(m.Payload.(*lookupResp))
	case kInsert:
		p.routeInsert(m.Payload.(*insertMsg))
	case kGet:
		p.onGet(m.Payload.(*getMsg))
	case kGetNack:
		p.onGetNack(m.From, m.Payload.(*getNack))
	case kChunk:
		p.onChunk(m.From, m.Payload.(*chunkMsg))
	case kFail:
		p.onFail(m.Payload.(*failMsg))
	case kFind:
		p.routeFind(m.Payload.(*findMsg))
	case kFindResp:
		p.onFindResp(m.Payload.(*findResp))
	case kBootstrap:
		p.onBootstrap(m.From)
	case kBootstrapR:
		p.onBootstrapResp(m.Payload.(*bootstrapResp))
	case kStabQ:
		p.onStabQ(m.Payload.(*stabQ))
	case kStabR:
		p.onStabR(m.From, m.Payload.(*stabR))
	case kPredQ:
		p.send(m.From, kPredR, nil)
	case kPredR:
		if p.predWaiting && p.predTarget == m.From {
			p.predWaiting = false
		}
		delete(p.listProbes, m.From)
	case kNotify:
		p.onNotify(m.Payload.(*notifyMsg))
	case kHandoff:
		p.onHandoff(m.Payload.(*handoffMsg))
	case kLeave:
		p.onLeave(m.Payload.(*leaveMsg))
	case kAttach:
		p.onAttach(m.Payload.(*attachMsg))
	case kAttachOK:
		p.onAttachOK(m.From)
	case kDetach:
		delete(p.clients, m.From)
	case kProxyLookup:
		p.onProxyLookup(m.Payload.(*proxyLookup))
	case kProxyInsert:
		p.onProxyInsert(m.Payload.(*proxyInsert))
	case kVolunteer:
		p.onVolunteer(m.Payload.(*volunteerMsg))
	case kPromote:
		p.onPromote(m.Payload.(*promoteMsg))
	case kRedirect:
		p.onRedirect(m.Payload.(*redirectMsg))
	}
}

// ---------------------------------------------------------------------------
// Viewer: the chunk-sharing client loop (Algorithm 1, lines 1–9).

// tick is the fetch scheduler: it keeps up to maxParallelFetch chunk
// acquisitions in flight inside the adaptive prefetching window.
func (p *Peer) tick() {
	if !p.alive || p.isSource || !p.joined {
		return
	}
	cfg := &p.sys.Cfg
	latest := cfg.Stream.SeqAt(p.sys.K.Now())
	if latest < p.startSeq {
		return
	}
	if p.cursor < p.startSeq {
		p.cursor = p.startSeq
	}
	for p.cursor <= latest && p.buf.Has(p.cursor) {
		p.cursor++
	}
	win := int64(cfg.Prefetch.Window(p.downBps, p.ft.Prob()))
	hi := p.cursor + win - 1
	if hi > latest {
		hi = latest
	}
	free := maxParallelFetch - len(p.fetches)
	if free <= 0 {
		return
	}
	var missing []int64
	for seq := p.cursor; seq <= hi; seq++ {
		if !p.buf.Has(seq) && p.fetches[seq] == nil {
			missing = append(missing, seq)
		}
	}
	if len(missing) == 0 {
		return
	}
	// One slot always chases the most urgent (oldest) missing chunk; the
	// remaining slots pick randomly across the prefetching window. The
	// random spread keeps system-wide demand from piling onto the newest
	// chunk, whose provider population is still small — the same reason
	// swarming protocols randomize piece selection.
	p.startFetch(missing[0])
	missing = missing[1:]
	free--
	for free > 0 && len(missing) > 0 {
		i := p.sys.K.Rand().Intn(len(missing))
		p.startFetch(missing[i])
		missing[i] = missing[len(missing)-1]
		missing = missing[:len(missing)-1]
		free--
	}
}

func (p *Peer) startFetch(seq int64) {
	f := &fetch{seq: seq, phase: phaseLookup, started: p.sys.K.Now()}
	p.fetches[seq] = f
	p.sendLookup(f)
}

// sendLookup issues (or reissues) the Lookup(ID) for a fetch. Lower-tier
// clients proxy through their coordinator (§III-B1b); DHT members route the
// query themselves starting locally.
func (p *Peer) sendLookup(f *fetch) {
	f.attempts++
	p.sys.Counters.Lookups++
	if p.inDHT {
		msg := &lookupMsg{Key: p.sys.chunkKey(f.seq), Seq: f.seq, Origin: p.id}
		p.routeLookup(msg)
	} else {
		if p.coordinator == simnet.Invalid {
			// Detached client (coordinator died): re-bootstrap, retry later.
			p.send(p.sys.server.id, kBootstrap, nil)
		} else {
			p.send(p.coordinator, kProxyLookup, &proxyLookup{Seq: f.seq, Origin: p.id})
		}
	}
	seq := f.seq
	f.setTimeout(p.sys.K, lookupTimeout, func() { p.onLookupTimeout(seq) })
}

func (p *Peer) onLookupTimeout(seq int64) {
	f := p.fetches[seq]
	if f == nil || f.phase != phaseLookup || !p.alive {
		return
	}
	// The coordinator (or the route to it) failed; count it toward p_f and
	// retry — stabilization will have repaired the ring by the next attempt.
	p.sys.Counters.LookupTimeouts++
	p.ft.Record(true)
	if !p.inDHT && p.coordinator != simnet.Invalid {
		// A lower-tier client that keeps hearing nothing concludes its
		// coordinator failed and asks the server for a new one (§III-B1b
		// "Node Failure").
		p.coordFails++
		if p.coordFails >= 2 {
			p.coordFails = 0
			p.coordinator = simnet.Invalid
			p.joined = false
		}
	}
	p.sendLookup(f)
}

func (p *Peer) onLookupResp(r *lookupResp) {
	f := p.fetches[r.Seq]
	p.coordFails = 0
	if f == nil || f.phase != phaseLookup {
		return // stale answer (chunk already obtained or re-looked-up)
	}
	if !r.OK {
		seq := r.Seq
		if r.Queued {
			// Parked in the coordinator's pending queue; it will answer
			// when a provider registers. Keep a slow re-lookup timer as
			// insurance against the coordinator dying with our queue slot.
			f.coord = r.Coord
			f.setTimeout(p.sys.K, 2*lookupTimeout, func() { p.onLookupTimeout(seq) })
			return
		}
		// No provider registered yet and the coordinator doesn't queue
		// (ablation mode): back off and re-ask.
		f.setTimeout(p.sys.K, retryInterval, func() {
			if ff := p.fetches[seq]; ff != nil && ff.phase == phaseLookup && p.alive {
				p.sendLookup(ff)
			}
		})
		return
	}
	f.phase = phaseGet
	f.provider = r.Provider
	f.coord = r.Coord
	if !p.sys.Net.TrySend(p.id, r.Provider, kGet, &getMsg{Seq: r.Seq, From: p.id}) {
		// Dead provider detected at connect time: report and re-ask now
		// instead of burning the fetch timeout.
		p.ft.Record(true)
		p.reportProviderProblem(f, false)
		return
	}
	seq := r.Seq
	f.setTimeout(p.sys.K, fetchTimeout, func() { p.onFetchTimeout(seq) })
}

func (p *Peer) onFetchTimeout(seq int64) {
	f := p.fetches[seq]
	if f == nil || f.phase != phaseGet || !p.alive {
		return
	}
	p.ft.Record(true)
	p.sys.Counters.FetchTimeouts++
	if p.sys.Trace != nil {
		p.tracef("fetch.timeout", "seq=%d provider=%d", seq, f.provider)
	}
	// A first timeout usually means congestion (the chunk is queued behind
	// other transfers), so report "busy" and try another provider without
	// evicting this one; a repeat timeout means the provider is dead.
	busy := f.ntimeouts == 0
	f.ntimeouts++
	p.reportProviderProblem(f, busy)
}

func (p *Peer) onGetNack(from simnet.NodeID, n *getNack) {
	f := p.fetches[n.Seq]
	if f == nil || f.phase != phaseGet || f.provider != from {
		return
	}
	if n.Busy {
		p.sys.Counters.BusyNacks++
	} else {
		p.sys.Counters.MissingNacks++
		p.ft.Record(true)
	}
	p.reportProviderProblem(f, n.Busy)
}

// reportProviderProblem tells the chunk's coordinator the provider failed
// (or is saturated) and waits for a replacement — the coordinator answers a
// kFail exactly like a fresh lookup (§III-B1b "Node Failure").
func (p *Peer) reportProviderProblem(f *fetch, busy bool) {
	p.send(f.coord, kFail, &failMsg{Seq: f.seq, Provider: f.provider, Origin: p.id, Busy: busy})
	f.phase = phaseLookup
	f.provider = simnet.Invalid
	seq := f.seq
	f.setTimeout(p.sys.K, lookupTimeout, func() { p.onLookupTimeout(seq) })
}

// onGet serves a chunk request if the chunk is buffered (Algorithm 1,
// lines 10–14); the bandwidth model in simnet provides the "idle bandwidth"
// queueing behavior.
func (p *Peer) onGet(g *getMsg) {
	if !p.buf.Has(g.Seq) {
		p.send(g.From, kGetNack, &getNack{Seq: g.Seq})
		return
	}
	// Admission control: coordinators only know the bandwidth we reported
	// at insert time, which can be stale across many chunk entries. If our
	// uplink queue already exceeds the limit, turn the requester away as
	// "busy" rather than letting the transfer crawl past its fetch timeout.
	queued := p.sys.Net.UploadBusyUntil(p.id) - p.sys.K.Now()
	if queued > busyQueueLimit {
		p.send(g.From, kGetNack, &getNack{Seq: g.Seq, Busy: true})
		return
	}
	p.sys.Net.SendData(p.id, g.From, kChunk, &chunkMsg{Seq: g.Seq}, p.sys.Cfg.Stream.ChunkBits)
}

func (p *Peer) onChunk(from simnet.NodeID, c *chunkMsg) {
	first := !p.buf.Has(c.Seq)
	p.buf.Set(c.Seq)
	if f := p.fetches[c.Seq]; f != nil {
		f.clearTimeout()
		delete(p.fetches, c.Seq)
		p.ft.Record(false)
		p.sys.Counters.FetchLatency += p.sys.K.Now() - f.started
		p.sys.Counters.FetchCount++
	}
	if first {
		p.sys.Log.Received(p.id, c.Seq, p.sys.K.Now())
		p.sys.noteReceived()
		if p.sys.Trace != nil {
			p.tracef("fetch.done", "seq=%d from=%d", c.Seq, from)
		}
		p.register(c.Seq)
		// Immediately pull the next window entry rather than waiting a tick.
		p.tick()
	}
	_ = from
}

// register announces this node as a provider of seq: Insert(ID, index) into
// the DHT (Algorithm 1, line 8).
func (p *Peer) register(seq int64) {
	if p.registered[seq] {
		return
	}
	p.registered[seq] = true
	idx := ChunkIndex{Holder: p.id, UpBps: p.upBps, BufferCount: p.buf.Count()}
	if p.inDHT {
		p.routeInsert(&insertMsg{Key: p.sys.chunkKey(seq), Seq: seq, Index: idx})
	} else if p.coordinator != simnet.Invalid {
		p.send(p.coordinator, kProxyInsert, &proxyInsert{Seq: seq, Index: idx})
	}
}

// unregister removes this node's provider records on graceful departure.
func (p *Peer) unregister(seq int64) {
	idx := ChunkIndex{Holder: p.id}
	if p.inDHT {
		p.routeInsert(&insertMsg{Key: p.sys.chunkKey(seq), Seq: seq, Index: idx, Unregister: true})
	} else if p.coordinator != simnet.Invalid {
		p.send(p.coordinator, kProxyInsert, &proxyInsert{Seq: seq, Index: idx, Unregister: true})
	}
}

// generate is the server's chunk production step: buffer the new chunk and
// insert its index into the DHT (§III-B2: "when a video server generates a
// new chunk ... it stores the index of the new chunk in the DHT").
func (p *Peer) generate(seq int64) {
	if !p.alive {
		return
	}
	p.buf.Set(seq)
	p.sys.Log.Generated(seq, p.sys.K.Now())
	p.register(seq)
}

func (f *fetch) setTimeout(k *sim.Kernel, d time.Duration, fn func()) {
	f.clearTimeout()
	f.timeout = k.After(d, fn)
}

func (f *fetch) clearTimeout() {
	if f.timeout != nil {
		f.timeout.Cancel()
		f.timeout = nil
	}
}
