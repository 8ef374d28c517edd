package overlay

import (
	"time"

	"dco/internal/metrics"
	"dco/internal/sim"
	"dco/internal/simnet"
	"dco/internal/stream"
)

// NewSystem builds a static baseline overlay of n nodes (server + n-1
// viewers) at virtual time zero.
func NewSystem(k *sim.Kernel, cfg Config, n int) *System {
	if n < 2 {
		panic("overlay: need at least a server and one viewer")
	}
	s := &System{
		K:   k,
		Net: simnet.New(k, simnet.Config{}),
		Cfg: cfg,
	}
	for i := 0; i < n; i++ {
		bps := simnet.PeerBps
		if i == 0 {
			bps = simnet.ServerBps
		}
		id := s.Net.AddNode(bps, bps)
		nd := &node{
			sys:          s,
			id:           id,
			alive:        true,
			buf:          stream.NewBufferMap(0),
			neighbors:    make(map[simnet.NodeID]*neighborState, cfg.Neighbors+2),
			outstanding:  make(map[int64]*pullReq),
			pushedTo:     make(map[simnet.NodeID]*stream.BufferMap),
			offerCharges: make(map[offKey]bool),
			offerPending: make(map[int64]time.Duration),
		}
		s.Net.SetHandler(id, nd)
		s.nodes = append(s.nodes, nd)
	}
	s.server = s.nodes[0]
	s.server.isSource = true

	switch cfg.Kind {
	case Tree:
		s.buildTree()
	default:
		s.buildMesh()
	}

	s.Log = metrics.NewDeliveryLog(cfg.Stream.Count, s.server.id)
	for _, nd := range s.nodes[1:] {
		s.Log.NodeJoined(nd.id, 0)
	}
	s.target = int64(n-1) * cfg.Stream.Count

	for seq := int64(0); seq < cfg.Stream.Count; seq++ {
		seq := seq
		k.At(cfg.Stream.GenerationTime(seq), func() { s.server.generate(seq) })
	}
	for _, nd := range s.nodes {
		s.startTickers(nd)
	}
	return s
}

// buildMesh wires a connected random graph with average degree ≈ Neighbors:
// a ring guarantees connectivity, then random edges raise each node's
// degree to the target.
func (s *System) buildMesh() {
	n := len(s.nodes)
	connect := func(a, b *node) {
		if a == b {
			return
		}
		if _, dup := a.neighbors[b.id]; dup {
			return
		}
		a.neighbors[b.id] = &neighborState{id: b.id}
		b.neighbors[a.id] = &neighborState{id: a.id}
	}
	for i := range s.nodes {
		connect(s.nodes[i], s.nodes[(i+1)%n])
	}
	deg := s.Cfg.Neighbors
	if deg > n-1 {
		deg = n - 1
	}
	rng := s.K.Rand()
	for _, nd := range s.nodes {
		for attempts := 0; len(nd.neighbors) < deg && attempts < 8*deg; attempts++ {
			connect(nd, s.nodes[rng.Intn(n)])
		}
	}
}

// buildTree lays the nodes out as a complete d-ary tree in index order,
// rooted at the server.
func (s *System) buildTree() {
	d := s.Cfg.Neighbors
	if d < 1 {
		d = 1
	}
	for i, nd := range s.nodes {
		for c := 1; c <= d; c++ {
			child := d*i + c
			if child >= len(s.nodes) {
				break
			}
			nd.children = append(nd.children, s.nodes[child].id)
		}
	}
}

func (s *System) startTickers(nd *node) {
	cfg := &s.Cfg
	add := func(t *sim.Ticker) { nd.tickers = append(nd.tickers, t) }
	switch cfg.Kind {
	case Pull, Push:
		add(s.K.Every(s.K.Uniform(0, exchangeEvery), exchangeEvery, nd.exchangeTick))
		if cfg.Kind == Pull && !nd.isSource {
			period := exchangeEvery / 2
			add(s.K.Every(s.K.Uniform(0, period), period, nd.pullTick))
		}
		if cfg.Kind == Push {
			period := time.Second
			add(s.K.Every(s.K.Uniform(0, period), period, nd.drainPush))
		}
	case Tree:
		// Tree is fully event-driven: chunks are forwarded on receipt.
	}
}

// SpawnPeer adds a new viewer mid-run (churn). Mesh joiners connect to
// random live nodes; tree joiners attach under a live parent with spare
// out-degree (orphaned subtrees are NOT repaired, matching the fragility
// the paper attributes to tree overlays).
func (s *System) SpawnPeer() *node {
	id := s.Net.AddNode(simnet.PeerBps, simnet.PeerBps)
	nd := &node{
		sys:          s,
		id:           id,
		alive:        true,
		joinAt:       s.K.Now(),
		buf:          stream.NewBufferMap(0),
		neighbors:    make(map[simnet.NodeID]*neighborState, s.Cfg.Neighbors+2),
		outstanding:  make(map[int64]*pullReq),
		pushedTo:     make(map[simnet.NodeID]*stream.BufferMap),
		offerCharges: make(map[offKey]bool),
		offerPending: make(map[int64]time.Duration),
	}
	seq := int64(s.K.Now() / s.Cfg.Stream.Period)
	if s.Cfg.Stream.GenerationTime(seq) < s.K.Now() {
		seq++
	}
	nd.startSeq = seq
	nd.cursor = seq
	s.Net.SetHandler(id, nd)
	s.nodes = append(s.nodes, nd)
	s.Log.NodeJoined(id, s.K.Now())

	rng := s.K.Rand()
	switch s.Cfg.Kind {
	case Tree:
		d := s.Cfg.Neighbors
		var parent *node
		for _, cand := range s.nodes {
			if cand.alive && cand != nd && len(cand.children) < d {
				parent = cand
				break
			}
		}
		if parent == nil {
			parent = s.server
		}
		parent.children = append(parent.children, id)
	default:
		deg := s.Cfg.Neighbors
		alive := s.aliveNodes()
		for attempts := 0; len(nd.neighbors) < deg && attempts < 8*deg && len(alive) > 1; attempts++ {
			other := alive[rng.Intn(len(alive))]
			if other == nd {
				continue
			}
			if _, dup := nd.neighbors[other.id]; dup {
				continue
			}
			nd.neighbors[other.id] = &neighborState{id: other.id}
			other.neighbors[nd.id] = &neighborState{id: nd.id}
		}
	}
	s.startTickers(nd)
	return nd
}

func (s *System) aliveNodes() []*node {
	out := make([]*node, 0, len(s.nodes))
	for _, nd := range s.nodes {
		if nd.alive {
			out = append(out, nd)
		}
	}
	return out
}

// Depart removes the node. Graceful mesh leavers tell their neighbors;
// abrupt ones just vanish (pull requesters hit timeouts). Tree nodes never
// announce — their subtree starves either way, per the paper's model.
func (nd *node) Depart(graceful bool) {
	if !nd.alive || nd.isSource {
		return
	}
	nd.alive = false
	for _, t := range nd.tickers {
		t.Stop()
	}
	nd.tickers = nil
	for _, r := range nd.outstanding {
		r.timeout.Cancel()
	}
	nd.outstanding = make(map[int64]*pullReq)
	if graceful && nd.sys.Cfg.Kind != Tree {
		for nid := range nd.neighbors {
			if other := nd.sys.nodeByID(nid); other != nil {
				delete(other.neighbors, nd.id)
			}
		}
	}
	nd.sys.Log.NodeLeft(nd.id, nd.sys.K.Now())
	nd.sys.Net.Kill(nd.id)
}

func (s *System) nodeByID(id simnet.NodeID) *node {
	if int(id) < len(s.nodes) {
		return s.nodes[id]
	}
	return nil
}

func (s *System) noteReceived() {
	s.received++
	if s.target > 0 && s.received >= s.target {
		s.K.Stop()
	}
}

// DisableCompletionStop keeps Run going to the horizon (churn runs).
func (s *System) DisableCompletionStop() { s.target = 0 }

// Run executes until the horizon or full delivery, returning the end time.
func (s *System) Run(horizon time.Duration) time.Duration {
	s.K.SetHorizon(horizon)
	return s.K.Run()
}

// ReceivedTotal returns first-receipt deliveries so far.
func (s *System) ReceivedTotal() int64 { return s.received }

// Duplicates returns how many redundant chunk deliveries occurred (push's
// characteristic waste).
func (s *System) Duplicates() int64 { return s.duplicates }

// ViewerPeers returns the live non-server nodes (churn drivers schedule
// their departures through the returned handles).
func (s *System) ViewerPeers() []*node {
	var out []*node
	for _, nd := range s.nodes {
		if nd.alive && !nd.isSource {
			out = append(out, nd)
		}
	}
	return out
}
