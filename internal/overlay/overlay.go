// Package overlay implements the three baselines the paper evaluates DCO
// against (§IV):
//
//   - pull: a random mesh whose nodes exchange buffer maps with every
//     neighbor each second and request missing chunks round-robin;
//   - push: the same mesh, but nodes eagerly push chunks their neighbors
//     lack, accepting duplicate deliveries;
//   - tree: a balanced out-degree-d tree rooted at the server that pushes
//     chunks top-down with zero extra overhead.
//
// All three run on the same simnet substrate (latency + bandwidth-queued
// chunk transfers) as DCO, so the four metrics are directly comparable.
package overlay

import (
	"time"

	"dco/internal/metrics"
	"dco/internal/sim"
	"dco/internal/simnet"
	"dco/internal/stream"
)

// Kind selects a baseline protocol.
type Kind int

const (
	// Pull is the pull-based mesh (CoolStreaming/Chainsaw style).
	Pull Kind = iota
	// Push is the push-based mesh.
	Push
	// Tree is the single-tree top-down overlay.
	Tree
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Pull:
		return "pull"
	case Push:
		return "push"
	case Tree:
		return "tree"
	default:
		return "unknown"
	}
}

// Protocol settings fixed at the values every figure, ablation and example
// runs with; the paper (§IV) varies only the neighbor count.
const (
	exchangeEvery = time.Second // buffer-map gossip period (paper: 1 s)

	// requestTimeout (pull): give up on a neighbor and re-request elsewhere.
	requestTimeout = 4 * time.Second
	// serveQueueLimit is the responder-side admission gate: requests are
	// ignored while the uplink backlog exceeds it (the requester's timeout
	// rotates to another holder).
	serveQueueLimit = 2 * time.Second
	// maxParallelRequests (pull): outstanding chunk requests per node.
	maxParallelRequests = 8
	// window limits how far ahead of its first missing chunk a pull node
	// requests, and how far behind its newest chunk a push node offers
	// fresh chunks (mirrors DCO's prefetch window).
	window = 20

	// maxOfferDegree (push): fresh offers of one chunk go to at most this
	// many of a holder's neighbors (a per-chunk pseudo-random subset); the
	// repair pass remains uncapped.
	maxOfferDegree = 12
	// offerLease (push): how long an unanswered offer stays charged against
	// the sender's uplink budget.
	offerLease = 1500 * time.Millisecond
	// acceptLease (push): how long the receiver reserves a chunk for its
	// accepted sender before it will accept a different offer. Must exceed
	// the worst queued-transfer time or duplicate accepts spiral.
	acceptLease = 5 * time.Second
)

// Config parameterizes a baseline overlay run. The zero value is unusable;
// start from DefaultConfig. Hosts get the paper's bandwidths,
// simnet.ServerBps and simnet.PeerBps, on simnet's default network.
type Config struct {
	Kind   Kind
	Stream stream.Params

	// Neighbors is the mesh degree (pull/push). For Tree it is the
	// out-degree of every internal node (the paper's default tree uses
	// neighbors/8, i.e. 3 when others use 24; "tree*" uses the full count).
	Neighbors int
}

// DefaultConfig returns the paper's §IV settings for the given kind.
func DefaultConfig(kind Kind) Config {
	return Config{
		Kind:      kind,
		Stream:    stream.DefaultParams(),
		Neighbors: 32,
	}
}

// System is one baseline deployment on the simulator.
type System struct {
	K   *sim.Kernel
	Net *simnet.Network
	Cfg Config
	Log *metrics.DeliveryLog

	nodes      []*node
	server     *node
	received   int64
	duplicates int64
	target     int64
}

// message kinds
const (
	kBufferMap = "mesh.bufmap"
	kRequest   = "mesh.request" // pull: ask a neighbor for one chunk
	kOffer     = "mesh.offer"   // push: sender offers a chunk
	kAccept    = "mesh.accept"  // push: receiver accepts the first offer
	kDecline   = "mesh.decline" // push: duplicate offer turned away
	kChunk     = "mesh.chunk"   // data
)

type offerMsg struct {
	Seq  int64
	From simnet.NodeID
}

type acceptMsg struct{ Seq int64 }

// offKey identifies one outstanding offer (target neighbor, chunk).
type offKey struct {
	nid simnet.NodeID
	seq int64
}

type bufMapMsg struct {
	Map *stream.BufferMap // read-only shared snapshot
}

type requestMsg struct {
	Seq  int64
	From simnet.NodeID
}

type chunkMsg struct{ Seq int64 }

type node struct {
	sys      *System
	id       simnet.NodeID
	isSource bool
	alive    bool
	joinAt   time.Duration

	buf      *stream.BufferMap
	startSeq int64
	cursor   int64

	neighbors map[simnet.NodeID]*neighborState

	// pull state
	outstanding map[int64]*pullReq
	rrCursor    int // round-robin position over neighbors

	// push state
	newest       int64 // newest chunk held (push scan origin)
	nbrOrder     []simnet.NodeID
	pushedTo     map[simnet.NodeID]*stream.BufferMap // chunks offered, per neighbor
	offersOut    int                                 // unanswered offers (budget charge)
	offerCharges map[offKey]bool                     // offers still charged
	offerPending map[int64]time.Duration             // receiver-side accept reservations

	// tree state
	children []simnet.NodeID

	tickers []*sim.Ticker
}

type neighborState struct {
	id      simnet.NodeID
	lastMap *stream.BufferMap
}

type pullReq struct {
	seq     int64
	target  simnet.NodeID
	timeout *sim.Event
	tried   map[simnet.NodeID]bool
}
