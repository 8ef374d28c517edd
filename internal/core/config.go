// Package core implements DCO — the DHT-aided chunk-driven overlay that is
// the paper's contribution (§III) — as actors on the discrete-event
// simulator. Every viewer runs the chunk-sharing algorithm (Algorithm 1):
// it looks a missing chunk's ID up in the Chord ring, fetches the chunk
// from the provider the coordinator returns, and then registers itself as a
// provider by inserting its own chunk index.
package core

import (
	"time"

	"dco/internal/simnet"
	"dco/internal/stream"
)

// SelectionPolicy decides which registered provider a coordinator hands to
// a requester.
type SelectionPolicy int

const (
	// SelectLeastLoaded returns the provider with the most residual upload
	// capacity — the paper's "chunk provider with sufficient bandwidth".
	SelectLeastLoaded SelectionPolicy = iota
	// SelectRandom picks uniformly among providers with spare capacity
	// (ablation baseline).
	SelectRandom
)

// Protocol timing fixed at the values every figure, ablation and example
// runs with. The paper (§IV) varies only the neighbor count, the network
// size and the churn lifetime; nothing else is a setting.
const (
	tickPeriod       = 500 * time.Millisecond // fetch-scheduler period
	lookupTimeout    = 4 * time.Second        // resend a Lookup that got no answer
	fetchTimeout     = 6 * time.Second        // declare a provider failed
	retryInterval    = time.Second            // pause after a not-found Lookup (no pending queue)
	maxParallelFetch = 8                      // concurrent chunk fetches per node

	// leaseTime is the assignment lease: it reclaims capacity if a
	// requester vanishes.
	leaseTime = 2500 * time.Millisecond
	// Provider-side admission control: a provider whose uplink queue
	// exceeds busyQueueLimit turns requesters away with a busy nack; the
	// coordinator then skips it for providerCooldown instead of evicting it.
	busyQueueLimit   = 700 * time.Millisecond
	providerCooldown = 700 * time.Millisecond

	// DHT maintenance cadences (Config.Maintenance). republishEvery
	// re-inserts republishBatch of a node's chunk indices (DHT soft-state
	// refresh): it heals registrations lost to dead hops and follows key
	// ranges as ownership moves under churn.
	stabilizeEvery  = time.Second
	fixFingersEvery = 500 * time.Millisecond // one finger refresh per interval (only if UseFingers)
	republishEvery  = 2 * time.Second
	republishBatch  = 3

	// evalEvery is how often a lower-tier client re-evaluates its
	// longevity (hierarchy mode).
	evalEvery = 5 * time.Second
	// startupChunks is how many consecutive chunks (from the viewer's first
	// expected sequence) must be buffered before playback starts — the
	// initial buffering spinner.
	startupChunks = 3
)

// Config parameterizes a DCO deployment. Each field is one a figure, an
// ablation or an example sets; DESIGN.md's "Configuration" section names
// who.
type Config struct {
	Stream stream.Params

	// Net sets the physical network model (latency, zones). The zero
	// value takes simnet's defaults (flat broadband, per the paper).
	Net simnet.Config

	// Neighbors is the successor-list size; the paper's evaluation calls
	// these entries the node's neighbors and sweeps 8..64.
	Neighbors int

	// UseFingers enables Chord finger-table routing. The figure experiments
	// run with false (successor-list routing only) to match the paper's
	// neighbor-count semantics; tests and the live node use true.
	UseFingers bool

	// PeerClasses, when non-empty, draws each viewer's bandwidth from a
	// weighted mix instead of the paper's flat simnet.PeerBps — the
	// heterogeneous populations the paper's related work (§II) discusses.
	// Fractions should sum to 1; the last class absorbs rounding.
	PeerClasses []BandwidthClass

	Prefetch stream.PrefetchConfig

	// Coordinator behavior.
	PendingQueue bool            // hold unanswerable lookups until a provider registers (paper behavior)
	Selection    SelectionPolicy //

	// Maintenance runs DHT upkeep (needed under churn; static runs skip
	// it, mirroring the paper's churn-free overhead accounting).
	Maintenance bool

	// Playback drives a playhead over every viewer's buffer and reports
	// startup delay / continuity (the QoS the paper motivates).
	Playback bool

	// Hierarchy enables the two-tier infrastructure of §III-B1: only
	// coordinators sit in the DHT; other nodes attach to a coordinator and
	// proxy their Insert/Lookup traffic through it. Off in the figure
	// experiments (§IV runs all nodes in the DHT "to make results
	// comparable").
	Hierarchy HierarchyConfig
}

// BandwidthClass is one stratum of a heterogeneous peer population.
type BandwidthClass struct {
	Frac    float64 // fraction of viewers in this class
	UpBps   int64
	DownBps int64
}

// HeterogeneousClasses is a convenient DSL/cable/fiber-style mix whose mean
// upload roughly matches the paper's flat 600 kbps population.
func HeterogeneousClasses() []BandwidthClass {
	return []BandwidthClass{
		{Frac: 0.3, UpBps: 200_000, DownBps: 600_000},     // constrained DSL
		{Frac: 0.5, UpBps: 600_000, DownBps: 1_200_000},   // cable
		{Frac: 0.2, UpBps: 1_800_000, DownBps: 4_000_000}, // fiber
	}
}

// HierarchyConfig tunes the two-tier mode.
type HierarchyConfig struct {
	Enabled bool
	// InitialCoordinators is how many stable nodes (besides the server)
	// seed the upper-tier ring in a static build.
	InitialCoordinators int
	// OverloadOpsPerSec marks a coordinator overloaded when its index
	// operations exceed this rate, triggering promotion of a stable client.
	OverloadOpsPerSec float64
	// LongevityThreshold is the stay-probability a client needs before
	// volunteering as a coordinator.
	LongevityThreshold float64
}

// DefaultConfig returns the paper's §IV settings.
func DefaultConfig() Config {
	return Config{
		Stream:       stream.DefaultParams(),
		Neighbors:    32,
		Prefetch:     stream.DefaultPrefetchConfig(),
		PendingQueue: true,
		Selection:    SelectLeastLoaded,
		Hierarchy: HierarchyConfig{
			InitialCoordinators: 8,
			OverloadOpsPerSec:   50,
			LongevityThreshold:  0.8,
		},
	}
}

// providerCap derives how many outstanding assignments a provider can carry
// from its upload bandwidth. An assignment slot is held for the whole
// control round-trip (handout → transfer → the requester's Insert landing
// back at the coordinator), which is several times the raw transmission
// time, so the cap oversubscribes the uplink by 2x; the provider's own
// admission control (busy nacks) bounds the real queue.
func (c Config) providerCap(upBps int64) int {
	perSec := float64(upBps) * c.Stream.Period.Seconds() / float64(c.Stream.ChunkBits)
	n := int(2 * perSec)
	if n < 1 {
		n = 1
	}
	return n
}

// drawPeerBandwidth picks a viewer's capacities: the paper's flat
// simnet.PeerBps, or a class sampled from PeerClasses with the run's
// deterministic RNG.
func (c Config) drawPeerBandwidth(pick float64) (up, down int64) {
	if len(c.PeerClasses) == 0 {
		return simnet.PeerBps, simnet.PeerBps
	}
	acc := 0.0
	for _, cl := range c.PeerClasses {
		acc += cl.Frac
		if pick < acc {
			return cl.UpBps, cl.DownBps
		}
	}
	last := c.PeerClasses[len(c.PeerClasses)-1]
	return last.UpBps, last.DownBps
}
