// Package simnet models the network underneath the simulated overlays.
//
// It is the stand-in for the P2PSim substrate used in the paper's
// evaluation. Two properties of that substrate drive every result in the
// paper and are reproduced faithfully here:
//
//   - Control messages (buffer maps, lookups, requests, index inserts) cost
//     one "extra overhead" unit per forwarding operation and are delivered
//     after a per-link propagation latency.
//
//   - Chunk transfers are serialized by per-node upload and download
//     bandwidth: a 300 kbit chunk over a 600 kbps link occupies the link for
//     0.5 s, and an overloaded node queues chunks until it has bandwidth
//     (paper §IV).
package simnet

import (
	"fmt"
	"time"

	"dco/internal/sim"
)

// NodeID identifies a simulated host. IDs are dense small integers assigned
// by the Network.
type NodeID int

// Invalid is the zero-value NodeID and never names a real node.
const Invalid NodeID = -1

// Message is a unit of communication between two simulated hosts.
type Message struct {
	From, To NodeID
	Kind     string // protocol-defined tag
	Payload  any
	Bits     int64 // payload size; only data messages set this
	Data     bool  // true for chunk payloads (bandwidth-bound, not overhead)
	SentAt   time.Duration
}

// Handler receives messages addressed to a node. The *Message is valid only
// during HandleMessage: its record is reused for a later send once the
// handler returns, so a handler copies out what it keeps (Payload, From)
// rather than the pointer.
type Handler interface {
	HandleMessage(m *Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(m *Message)

// HandleMessage calls f(m).
func (f HandlerFunc) HandleMessage(m *Message) { f(m) }

// Config sets the physical parameters of the simulated network.
type Config struct {
	// BaseLatency is the one-way propagation delay floor between any two
	// hosts. The paper assumes "typical delay in today's broadband Internet
	// connection is below 0.1s"; the default spreads links over
	// [BaseLatency, BaseLatency+LatencySpread].
	BaseLatency   time.Duration
	LatencySpread time.Duration

	// Zones, when > 1, places hosts round-robin into geographic zones and
	// adds InterZone to links that cross a zone boundary (a transit-stub
	// style topology). Zero keeps the flat single-zone model.
	Zones     int
	InterZone time.Duration
}

// The paper's §IV bandwidths (bits/s), up and down alike: the streaming
// server has 4000 kbps and every viewer 600 kbps. Both simulators build
// their hosts from these.
const (
	ServerBps int64 = 4_000_000
	PeerBps   int64 = 600_000
)

// DefaultConfig matches the paper's assumptions: per-hop delays below 0.1 s.
func DefaultConfig() Config {
	return Config{BaseLatency: 30 * time.Millisecond, LatencySpread: 60 * time.Millisecond}
}

// WideAreaConfig models a multi-region deployment: four zones with an
// extra 80 ms across zone boundaries.
func WideAreaConfig() Config {
	return Config{
		BaseLatency:   10 * time.Millisecond,
		LatencySpread: 30 * time.Millisecond,
		Zones:         4,
		InterZone:     80 * time.Millisecond,
	}
}

type node struct {
	id       NodeID
	handler  Handler
	upBps    int64 // upload capacity, bits/s
	downBps  int64
	upFree   time.Duration // virtual time the uplink drains
	downFree time.Duration
	alive    bool
}

// Network connects simulated hosts through the kernel.
type Network struct {
	K   *sim.Kernel
	cfg Config

	nodes []*node

	// Overhead accounting (paper metric 3): one unit per control-message
	// forwarding operation. Data (chunk) messages are excluded, as are
	// tree-push transfers, matching the paper's definition.
	overhead       uint64
	overheadByKind map[string]uint64
	overheadSeries []uint64 // indexed by virtual second, grown on demand

	// free holds delivery records that have fired, for the next send.
	free []*delivery

	// Data accounting for diagnostics.
	dataMsgs uint64
	dataBits int64

	dropDead uint64 // messages dropped because destination was dead
}

// New creates an empty network on top of kernel k. The zero Config means
// DefaultConfig(); any other is taken as given, so zones without a base
// latency stay zoned.
func New(k *sim.Kernel, cfg Config) *Network {
	if cfg == (Config{}) {
		cfg = DefaultConfig()
	}
	return &Network{
		K:              k,
		cfg:            cfg,
		overheadByKind: make(map[string]uint64),
	}
}

// AddNode registers a host with the given bandwidth capacities (bits/s) and
// returns its ID. The node starts alive with a nil handler; call SetHandler
// before any traffic can be delivered to it.
func (n *Network) AddNode(upBps, downBps int64) NodeID {
	if upBps <= 0 || downBps <= 0 {
		panic(fmt.Sprintf("simnet: non-positive bandwidth %d/%d", upBps, downBps))
	}
	id := NodeID(len(n.nodes))
	n.nodes = append(n.nodes, &node{id: id, upBps: upBps, downBps: downBps, alive: true})
	return id
}

// SetHandler installs the message handler for id.
func (n *Network) SetHandler(id NodeID, h Handler) { n.nodes[id].handler = h }

// Alive reports whether id is up.
func (n *Network) Alive(id NodeID) bool {
	return int(id) >= 0 && int(id) < len(n.nodes) && n.nodes[id].alive
}

// Kill marks a node as failed. In-flight messages to it are dropped on
// arrival; it sends and receives nothing afterwards.
func (n *Network) Kill(id NodeID) { n.nodes[id].alive = false }

// Revive brings a previously killed node back (a rejoining peer reuses its
// slot in some churn scenarios). Its bandwidth queues are reset.
func (n *Network) Revive(id NodeID) {
	nd := n.nodes[id]
	nd.alive = true
	nd.upFree, nd.downFree = 0, 0
}

// Zone returns the zone a host lives in (0 when zoning is off).
func (n *Network) Zone(id NodeID) int {
	if n.cfg.Zones <= 1 {
		return 0
	}
	return int(id) % n.cfg.Zones
}

// latency returns the one-way delay for a link. It is a deterministic
// function of the endpoint pair so repeated messages see a stable RTT.
func (n *Network) latency(a, b NodeID) time.Duration {
	var zonePenalty time.Duration
	if n.cfg.Zones > 1 && n.Zone(a) != n.Zone(b) {
		zonePenalty = n.cfg.InterZone
	}
	if n.cfg.LatencySpread <= 0 {
		return n.cfg.BaseLatency + zonePenalty
	}
	x, y := int64(a), int64(b)
	if x > y {
		x, y = y, x
	}
	// Cheap deterministic pair hash (SplitMix64 finalizer over the pair).
	h := uint64(x)*0x9E3779B97F4A7C15 ^ uint64(y)*0xBF58476D1CE4E5B9
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return n.cfg.BaseLatency + zonePenalty + time.Duration(h%uint64(n.cfg.LatencySpread))
}

// Send delivers a control message from src to dst after the link latency.
// It accounts one unit of extra overhead (one forwarding operation). The
// send is silently dropped if either endpoint is dead; protocols detect
// failures with their own timeouts, as real ones do.
func (n *Network) Send(src, dst NodeID, kind string, payload any) {
	n.send(src, dst, kind, payload, 0, false)
}

// TrySend is Send over a connection-oriented link: if the destination is
// dead the sender finds out (a TCP connect to a crashed host fails) and no
// delivery happens. The attempt still costs one overhead unit — the probe
// traffic is real. Returns whether the destination was alive.
func (n *Network) TrySend(src, dst NodeID, kind string, payload any) bool {
	if !n.Alive(dst) {
		if n.Alive(src) {
			n.countOverhead(kind, n.K.Now())
		}
		return false
	}
	n.send(src, dst, kind, payload, 0, false)
	return true
}

// SendData delivers a data (chunk) message. Delivery time is the link
// latency plus the transmission time implied by the smaller of the sender's
// upload and receiver's download capacity; both endpoints' links are
// occupied for the transmission. Data messages do not count as overhead.
func (n *Network) SendData(src, dst NodeID, kind string, payload any, bits int64) {
	n.send(src, dst, kind, payload, bits, true)
}

func (n *Network) send(src, dst NodeID, kind string, payload any, bits int64, data bool) {
	if int(src) < 0 || int(src) >= len(n.nodes) || int(dst) < 0 || int(dst) >= len(n.nodes) {
		panic(fmt.Sprintf("simnet: send %s between unknown nodes %d -> %d", kind, src, dst))
	}
	s, d := n.nodes[src], n.nodes[dst]
	if !s.alive {
		return
	}
	now := n.K.Now()
	arrive := now + n.latency(src, dst)

	if data {
		n.dataMsgs++
		n.dataBits += bits
		// Store-and-forward per link: the transfer occupies the sender's
		// uplink for bits/upBps, then the receiver's downlink for
		// bits/downBps, each serialized behind that link's queue. An
		// overloaded node thus queues chunks until it has bandwidth (§IV).
		sStart := now
		if s.upFree > sStart {
			sStart = s.upFree
		}
		upTx := time.Duration(float64(bits) / float64(s.upBps) * float64(time.Second))
		s.upFree = sStart + upTx
		rStart := s.upFree
		if d.downFree > rStart {
			rStart = d.downFree
		}
		downTx := time.Duration(float64(bits) / float64(d.downBps) * float64(time.Second))
		d.downFree = rStart + downTx
		arrive = d.downFree + n.latency(src, dst)
	} else {
		n.countOverhead(kind, now)
	}

	var rec *delivery
	if last := len(n.free) - 1; last >= 0 {
		rec = n.free[last]
		n.free = n.free[:last]
	} else {
		rec = &delivery{net: n}
	}
	rec.m = Message{From: src, To: dst, Kind: kind, Payload: payload, Bits: bits, Data: data, SentAt: now}
	n.K.Schedule(arrive, rec)
}

// countOverhead accounts one control-message forwarding operation at now.
func (n *Network) countOverhead(kind string, now time.Duration) {
	n.overhead++
	n.overheadByKind[kind]++
	sec := int(now / time.Second)
	for len(n.overheadSeries) <= sec {
		n.overheadSeries = append(n.overheadSeries, 0)
	}
	n.overheadSeries[sec]++
}

// delivery is one message in flight and the kernel action that hands it
// over on arrival. Records are recycled: once fired, a record goes back to
// its Network's free list, so a warm network sends without allocating.
type delivery struct {
	net *Network
	m   Message
}

// Fire delivers the message, or drops it if the destination died meanwhile,
// then clears the record (releasing the payload) and frees it for reuse.
func (d *delivery) Fire() {
	dd := d.net.nodes[d.m.To]
	if !dd.alive || dd.handler == nil {
		d.net.dropDead++
	} else {
		dd.handler.HandleMessage(&d.m)
	}
	d.m = Message{}
	d.net.free = append(d.net.free, d)
}

// Overhead returns the total extra-overhead units accrued so far.
func (n *Network) Overhead() uint64 { return n.overhead }

// OverheadByKind returns a copy of the per-kind overhead breakdown.
func (n *Network) OverheadByKind() map[string]uint64 {
	out := make(map[string]uint64, len(n.overheadByKind))
	for k, v := range n.overheadByKind {
		out[k] = v
	}
	return out
}

// OverheadAtSecond returns overhead units accrued during virtual second s.
func (n *Network) OverheadAtSecond(s int64) uint64 {
	if s < 0 || s >= int64(len(n.overheadSeries)) {
		return 0
	}
	return n.overheadSeries[s]
}

// DataStats returns the number of data messages and total data bits sent.
func (n *Network) DataStats() (msgs uint64, bits int64) { return n.dataMsgs, n.dataBits }

// DroppedDead returns how many messages were dropped at dead destinations.
func (n *Network) DroppedDead() uint64 { return n.dropDead }

// UploadBusyUntil exposes the sender-side queue horizon for id; the DCO
// coordinator uses it as the ground truth for "available bandwidth" when a
// node reports its state.
func (n *Network) UploadBusyUntil(id NodeID) time.Duration { return n.nodes[id].upFree }
