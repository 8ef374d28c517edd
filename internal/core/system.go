package core

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"dco/internal/chord"
	"dco/internal/metrics"
	"dco/internal/sim"
	"dco/internal/simnet"
	"dco/internal/stable"
	"dco/internal/telemetry"
)

// System wires a DCO deployment onto the simulator: one streaming server,
// n-1 viewers, the Chord ring, and the metric collectors.
type System struct {
	K          *sim.Kernel
	Net        *simnet.Network
	Cfg        Config
	Log        *metrics.DeliveryLog
	Classifier stable.Classifier

	server     *Peer
	peers      map[simnet.NodeID]*Peer
	alivePeers int
	rr         int
	nameSeq    int
	ringIDs    map[chord.ID]bool // every ring ID freshChordID issued
	keys       []chord.ID        // chunkKey memo, indexed by seq

	// candidates is selectProvider's scratch slice, reused across calls.
	candidates []*providerInfo

	// maxHops drops a routed message after this many forwards (loop guard
	// during ring convergence): max(4n, 256) for an n-node build.
	maxHops       int
	droppedRoutes uint64
	received      int64
	target        int64 // K.Stop() once this many first-receipts happen (0 = run to horizon)

	Counters Counters

	// Trace, when set (before or after NewSystem), receives structured
	// protocol events: fetch.done, fetch.timeout, provider.fail,
	// peer.join, peer.depart, coord.promote, lookup.queued. Give it the
	// kernel's clock (Trace.SetClock) to stamp them in virtual time.
	Trace *telemetry.Trace
}

// tracef records a protocol event attributed to p. Call sites check
// p.sys.Trace != nil first: the arguments of a variadic call are boxed
// before a nil receiver can turn it away, and these fire per delivery.
func (p *Peer) tracef(kind, format string, args ...any) {
	p.sys.Trace.Recordf(kind, strconv.FormatInt(int64(p.id), 10), format, args...)
}

// Counters aggregates protocol-event tallies across all peers; tests and
// diagnostics read them to see where fetch latency is spent.
type Counters struct {
	Lookups        uint64 // lookups issued by clients
	LookupTimeouts uint64
	BusyNacks      uint64 // provider admission-control rejections
	MissingNacks   uint64 // provider did not have the chunk
	FetchTimeouts  uint64
	PendingQueued  uint64 // lookups parked in a coordinator pending queue
	Assignments    uint64 // provider handouts
	LeaseExpiries  uint64 // assignment slots reclaimed by lease timeout
	FetchLatency   time.Duration
	FetchCount     uint64 // completed first-receipt fetches
}

// NewSystem builds a static DCO network of n nodes (the server plus n-1
// viewers) at virtual time zero. In the default all-DHT mode (the paper's
// §IV comparability setting) every node is a ring member; with
// Cfg.Hierarchy.Enabled only the server and the configured number of
// initial coordinators form the ring and everyone else attaches as a
// lower-tier client.
func NewSystem(k *sim.Kernel, cfg Config, n int) *System {
	if n < 2 {
		panic("core: need at least a server and one viewer")
	}
	s := &System{
		K:          k,
		Net:        simnet.New(k, cfg.Net),
		Cfg:        cfg,
		Classifier: stable.NewClassifier(cfg.Hierarchy.LongevityThreshold),
		peers:      make(map[simnet.NodeID]*Peer, n),
		ringIDs:    make(map[chord.ID]bool, n),
		maxHops:    max(4*n, 256),
	}

	// Create hosts. Node 0 is the server.
	all := make([]*Peer, 0, n)
	for i := 0; i < n; i++ {
		up, down := cfg.drawPeerBandwidth(k.Rand().Float64())
		if i == 0 {
			up, down = simnet.ServerBps, simnet.ServerBps
		}
		id := s.Net.AddNode(up, down)
		p := newPeer(s, id, s.freshChordID(), up, down)
		p.alive = true
		s.Net.SetHandler(id, p)
		s.peers[id] = p
		all = append(all, p)
	}
	s.server = all[0]
	s.server.isSource = true
	s.alivePeers = n

	// Decide ring membership.
	ringMembers := all
	if cfg.Hierarchy.Enabled {
		nc := cfg.Hierarchy.InitialCoordinators
		if nc < 1 {
			nc = 1
		}
		if nc > n-1 {
			nc = n - 1
		}
		ringMembers = all[:nc+1] // server + nc coordinators
	}
	entries := make([]entry, len(ringMembers))
	for i, p := range ringMembers {
		entries[i] = p.entry()
	}
	states := chord.BuildRing(entries, cfg.Neighbors)
	for _, p := range ringMembers {
		p.cs = states[p.id]
		p.inDHT = true
		p.joined = true
	}
	// Attach lower-tier clients round-robin (static build skips the
	// bootstrap handshake; dynamic joins via SpawnPeer exercise it).
	if cfg.Hierarchy.Enabled {
		for i, p := range all[len(ringMembers):] {
			c := ringMembers[1+i%(len(ringMembers)-1)] // skip the server for client load
			p.coordinator = c.id
			p.joined = true
			c.clients[p.id] = true
		}
	}

	// Metrics.
	s.Log = metrics.NewDeliveryLog(cfg.Stream.Count, s.server.id)
	for _, p := range all[1:] {
		s.Log.NodeJoined(p.id, 0)
	}
	s.target = int64(n-1) * cfg.Stream.Count

	// Chunk production schedule.
	for seq := int64(0); seq < cfg.Stream.Count; seq++ {
		seq := seq
		k.At(cfg.Stream.GenerationTime(seq), func() { s.server.generate(seq) })
	}

	for _, p := range all {
		s.startTickers(p)
	}
	return s
}

// chunkKey returns chunk seq's DHT key, Stream.Ref(seq).ID(). A key is a
// SHA-1 over a formatted name and never changes, so each is computed once.
func (s *System) chunkKey(seq int64) chord.ID {
	for int64(len(s.keys)) <= seq {
		s.keys = append(s.keys, s.Cfg.Stream.Ref(int64(len(s.keys))).ID())
	}
	return s.keys[seq]
}

// freshChordID derives a collision-free ring ID from a process-unique name:
// a name whose hash some earlier peer already holds is skipped.
func (s *System) freshChordID() chord.ID {
	for {
		id := chord.HashString(fmt.Sprintf("dco-node-%d", s.nameSeq))
		s.nameSeq++
		if !s.ringIDs[id] {
			s.ringIDs[id] = true
			return id
		}
	}
}

func (s *System) startTickers(p *Peer) {
	cfg := &s.Cfg
	add := func(t *sim.Ticker) { p.tickers = append(p.tickers, t) }
	if !p.isSource {
		add(s.K.Every(s.K.Uniform(0, tickPeriod), tickPeriod, p.tick))
		if cfg.Playback {
			add(s.K.Every(s.K.Uniform(0, cfg.Stream.Period), cfg.Stream.Period, p.playbackTick))
		}
	}
	if cfg.Maintenance {
		add(s.K.Every(s.K.Uniform(0, stabilizeEvery), stabilizeEvery, p.stabilizeTick))
		if cfg.UseFingers {
			add(s.K.Every(s.K.Uniform(0, fixFingersEvery), fixFingersEvery, p.fixFingersTick))
		}
		// The source republishes too: it is the only holder of a brand-new
		// chunk, and if its insert dies with a failing coordinator nobody
		// else can ever restore that index entry.
		add(s.K.Every(s.K.Uniform(0, republishEvery), republishEvery, p.republishTick))
	}
	if cfg.Hierarchy.Enabled {
		add(s.K.Every(s.K.Uniform(0, time.Second), time.Second, p.loadTick))
		if !p.isSource {
			add(s.K.Every(s.K.Uniform(0, evalEvery), evalEvery, p.longevityTick))
		}
	}
}

// SpawnPeer adds a brand-new viewer at the current virtual time. It
// bootstraps through the server (§III-B1b): all-DHT deployments join the
// ring, hierarchical ones attach to an assigned coordinator. The returned
// peer satisfies churn.Peer.
func (s *System) SpawnPeer() *Peer {
	up, down := s.Cfg.drawPeerBandwidth(s.K.Rand().Float64())
	id := s.Net.AddNode(up, down)
	p := newPeer(s, id, s.freshChordID(), up, down)
	p.alive = true
	p.joinAt = s.K.Now()
	p.wantDHT = !s.Cfg.Hierarchy.Enabled
	// A latecomer watches live from its join point onward: it is expected
	// to receive the chunks generated after it arrived.
	seq := int64(s.K.Now() / s.Cfg.Stream.Period)
	if s.Cfg.Stream.GenerationTime(seq) < s.K.Now() {
		seq++
	}
	p.startSeq = seq
	p.cursor = seq
	s.Net.SetHandler(id, p)
	s.peers[id] = p
	s.alivePeers++
	s.Log.NodeJoined(id, s.K.Now())
	s.startTickers(p)
	// Bootstrap, with retries until membership is established.
	p.send(s.server.id, kBootstrap, nil)
	retry := s.K.Every(2*time.Second, 2*time.Second, func() {
		if p.alive && !p.joined {
			p.send(s.server.id, kBootstrap, nil)
		}
	})
	p.tickers = append(p.tickers, retry)
	return p
}

// nextCoordinator returns the next upper-tier node for a newcomer, cycling
// round-robin through the server's view of the ring for load balance.
func (s *System) nextCoordinator() entry {
	candidates := s.server.cs.Neighbors()
	candidates = append(candidates, s.server.entry())
	// Keep only live DHT members.
	live := candidates[:0]
	for _, e := range candidates {
		if p, ok := s.peers[e.Addr]; ok && p.alive && p.inDHT {
			live = append(live, e)
		}
	}
	if len(live) == 0 {
		return entry{}
	}
	s.rr++
	return live[s.rr%len(live)]
}

func (s *System) noteReceived() {
	s.received++
	if s.target > 0 && s.received >= s.target {
		s.K.Stop()
	}
}

func (s *System) peerDeparted() { s.alivePeers-- }

// DisableCompletionStop makes Run continue to the horizon even after every
// static viewer has every chunk — required for churn runs, where the
// initial target is meaningless.
func (s *System) DisableCompletionStop() { s.target = 0 }

// Run executes the simulation until the horizon, full delivery (static
// runs), or event exhaustion, returning the final virtual time.
func (s *System) Run(horizon time.Duration) time.Duration {
	s.K.SetHorizon(horizon)
	return s.K.Run()
}

// Server returns the source node.
func (s *System) Server() *Peer { return s.server }

// Peer returns the peer with the given network ID (nil if unknown).
func (s *System) Peer(id simnet.NodeID) *Peer { return s.peers[id] }

// Peers returns all peers ever created, including departed ones, in
// network-ID order (stable across runs).
func (s *System) Peers() []*Peer {
	out := make([]*Peer, 0, len(s.peers))
	for _, p := range s.peers {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// ViewerPeers returns the live viewers (every live peer but the server) in
// network-ID order; churn drivers schedule their departures through them.
func (s *System) ViewerPeers() []*Peer {
	var out []*Peer
	for _, p := range s.Peers() {
		if p.alive && p != s.server {
			out = append(out, p)
		}
	}
	return out
}

// AlivePeers returns the current live population (server included).
func (s *System) AlivePeers() int { return s.alivePeers }

// ReceivedTotal returns the number of first-receipt chunk deliveries so far.
func (s *System) ReceivedTotal() int64 { return s.received }

// DroppedRoutes reports routed messages abandoned by the hop limit.
func (s *System) DroppedRoutes() uint64 { return s.droppedRoutes }

// Coordinators returns the live upper-tier members in network-ID order.
func (s *System) Coordinators() []*Peer {
	var out []*Peer
	for _, p := range s.Peers() {
		if p.alive && p.inDHT {
			out = append(out, p)
		}
	}
	return out
}
