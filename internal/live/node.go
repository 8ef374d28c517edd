// Package live is the runnable, real-network DCO node. It implements the
// paper's chunk-sharing algorithm over internal/transport on top of a
// pluggable DHT kernel (internal/dht): viewers look up chunk IDs through
// the kernel, fetch chunk data from the returned providers, and register
// themselves as providers; coordinators keep the index tables and hold
// unanswerable lookups until a provider registers. The kernel backend —
// the Chord ring the paper assumes (internal/chordkern) or Kademlia
// k-buckets (internal/kademlia) — is selected by Config.DHT; nothing in
// this package names a backend type outside the factory in backend.go.
package live

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dco/internal/dht"
	"dco/internal/health"
	"dco/internal/index"
	"dco/internal/retry"
	"dco/internal/stream"
	"dco/internal/telemetry"
	"dco/internal/transport"
	"dco/internal/wire"
)

// Config parameterizes a live node.
type Config struct {
	// Channel fixes the stream geometry. Count == 0 means an endless
	// stream (the source generates until Close).
	Channel stream.Params

	// Source makes this node the stream origin.
	Source bool

	// StartSeq is the first chunk a viewer fetches.
	StartSeq int64

	// DHT selects the key-routing backend: "chord" (the paper's ring,
	// the default) or "kademlia" (XOR-metric k-buckets). Empty reads the
	// DCO_DHT environment variable, then falls back to "chord".
	DHT string

	// Maintenance base cadence. Chord runs stabilize/fix-fingers at these
	// periods while its ring changes and stretches them up to
	// dht.UpkeepBackoff times while it is quiet; Kademlia probes at
	// StabilizeEvery and refreshes one bucket every 4 x StabilizeEvery.
	StabilizeEvery  time.Duration
	FixFingersEvery time.Duration

	// Fetching.
	LookupWait  time.Duration // server-side pending-queue wait per lookup
	CallTimeout time.Duration

	// UpBps is advertised in inserts (paper Fig. 3's bandwidth column) and
	// — since the admission layer — enforced on the chunk serve path: a
	// token-bucket pacer serializes outgoing chunk bytes against this
	// budget. <= 0 disables pacing (serve at line rate).
	UpBps int64

	// AdmitQueue bounds how many admitted chunk serves may wait out their
	// pace delay at once; requests beyond it are shed with Busy +
	// RetryAfterMs. 0 takes DefaultNodeConfig's.
	AdmitQueue int

	// FetchDeadlineChunks is a viewer's playback horizon in chunk periods:
	// a chunk not acquired within Channel.Period x this depth is abandoned
	// (counted and traced) instead of retried forever, so fetch workers
	// can never wedge on a permanently lost chunk. 0 disables deadlines
	// (fetch retries until the node closes — the pre-overload-control
	// behavior, fine for bounded archival pulls).
	FetchDeadlineChunks int

	// RepublishEvery is the re-registration tick (DHT soft state): how often
	// this node looks for registrations due at their coordinators
	// (reregister). Zero disables re-registration.
	RepublishEvery time.Duration

	// Replicas is the index replication factor r: every Insert/Unregister
	// a coordinator accepts is asynchronously batch-replicated to its
	// first r live successors, a successor that detects its predecessor's
	// death promotes the replicated entries to owned state immediately
	// (takeover), and a periodic anti-entropy round reconciles divergence.
	// 0 disables replication entirely (re-registration alone restores
	// availability, at the cost of an outage until the holders' next refresh).
	Replicas int

	// ReplicateEvery is the flush cadence of the replication queue:
	// accepted index ops buffer for at most this long before they are
	// batched out to the replica set. It bounds the takeover staleness.
	ReplicateEvery time.Duration

	// AntiEntropyEvery is the digest-exchange cadence: how often a
	// coordinator summarizes its owned index to its replicas so that
	// missed batches, partitions, and ownership moves get repaired.
	AntiEntropyEvery time.Duration

	// CensusEvery is the ring-census cadence (census.go): how often this
	// node probes a few previously-seen members *outside* its current ring
	// view to detect a split-brain (two self-consistent rings after a
	// healed partition, which stabilization alone can never re-merge).
	// Zero disables the census — and with it automatic partition healing
	// and lone-node re-bootstrap.
	CensusEvery time.Duration

	// OnChunk, if set, is invoked for every chunk received or generated
	// (after it is buffered), in seq order per worker but not globally.
	// data is the buffered slice itself, which later callers are served
	// from: read it, do not modify it.
	OnChunk func(seq int64, data []byte)

	// Retry shapes the backoff loop idempotent RPCs run under (routing
	// steps, lookups, inserts, stabilization reads).
	Retry retry.Policy

	// Breaker opens a per-address circuit after consecutive transport
	// failures, so calls to a dead peer fail fast and the caller fails
	// over instead of waiting out timeouts.
	Breaker health.CircuitConfig

	// ProviderCooldown is how long a provider that failed a chunk fetch
	// is blacklisted before this node asks it again. Zero disables the
	// blacklist.
	ProviderCooldown time.Duration

	// Hedge enables hedged chunk fetches (gray-failure defense): when a
	// GetChunk to the chosen provider runs past the peer's p95-ish latency
	// estimate, one duplicate request is launched at the next-best
	// provider and the first response wins. DefaultNodeConfig turns it on;
	// graychaos runs the same faults with it off and on.
	Hedge bool

	// InsertRate caps how many index Inserts per second a coordinator
	// accepts from one holder address (token bucket, burst 2x) — the
	// index-spam defense. 0 takes DefaultNodeConfig's; negative disables
	// the limit.
	InsertRate float64

	// MaxProvidersPerSeq caps the provider rows one index entry holds;
	// inserts beyond it are rejected (a spammer cannot grow an entry
	// without bound). 0 takes DefaultNodeConfig's; negative disables the
	// cap.
	MaxProvidersPerSeq int

	// RetrySeed fixes the backoff-jitter schedule (reproducibility).
	// Zero derives a stable seed from the node's address.
	RetrySeed int64

	// Telemetry is the metrics registry this node reports through (see
	// internal/telemetry and DESIGN.md "Observability"). nil gives the
	// node a private registry: counters still work (Stats() reads them),
	// they are just not exported anywhere. Registries are per node — two
	// nodes sharing one registry would share counters.
	Telemetry *telemetry.Registry

	// Trace, if set, receives protocol events (joins, ring repairs, chunk
	// fetches/serves, breaker transitions, ...). nil disables tracing.
	Trace *telemetry.Trace
}

// DefaultNodeConfig returns sane settings for LAN/localhost deployments.
func DefaultNodeConfig() Config {
	return Config{
		Channel:            stream.Params{Channel: "LIVE", ChunkBits: 64 * 8 * 1024, Period: 250 * time.Millisecond, Count: 0},
		DHT:                defaultDHT(),
		StabilizeEvery:     300 * time.Millisecond,
		FixFingersEvery:    100 * time.Millisecond,
		LookupWait:         2 * time.Second,
		CallTimeout:        5 * time.Second,
		UpBps:              10_000_000,
		AdmitQueue:         16,
		RepublishEvery:     time.Second,
		Replicas:           2,
		ReplicateEvery:     150 * time.Millisecond,
		AntiEntropyEvery:   3 * time.Second,
		CensusEvery:        2 * time.Second,
		Retry:              retry.DefaultPolicy(),
		Breaker:            health.DefaultCircuit(),
		ProviderCooldown:   2 * time.Second,
		Hedge:              true,
		InsertRate:         200,
		MaxProvidersPerSeq: 128,
	}
}

// Parameters of the live node that are not configuration: nothing in the
// repository ever ran them at another value (DESIGN.md, "Configuration").
// The peer table's half-lives, thresholds, size and quarantine length are
// likewise constants of internal/health, and Kademlia's k and alpha its
// package's own defaults.
const (
	succListSize       = 8    // Chord successor-list length
	fetchWorkers       = 3    // concurrent chunk fetches per viewer
	censusProbes       = 2    // cached members probed per census round: a safety net, not gossip
	memberCacheSize    = 128  // members remembered for the census, reachable or not
	endlessWindow      = 4096 // chunks a node of an endless stream keeps
	pollutionReporters = 2    // distinct accusers that quarantine a peer: one slanderer is never enough
	insertHorizon      = 1024 // chunks past the live edge a registration may claim: nobody holds what the source has not produced
	maxInsertSeqs      = 1024 // seqs one Insert may name; a holder splits a bigger group
	refreshesPerToken  = 16   // further seqs of an Insert one rate-limit token pays for
	joinAttempts       = 3    // rounds JoinAny makes over the bootstrap list

	// The hedge trigger is the primary's latency estimate clamped to
	// [hedgeMinDelay, hedgeMaxDelay]; a peer with no history hedges at the
	// ceiling (conservative against strangers).
	hedgeMinDelay = 20 * time.Millisecond
	hedgeMaxDelay = 300 * time.Millisecond

	// admitMaxWait caps how long one admitted serve may queue behind the
	// pacer whatever the requester's declared patience, so a slow-draining
	// backlog cannot hold transport goroutines for whole call timeouts.
	admitMaxWait = 600 * time.Millisecond

	// indexTTL is the lease on a provider registration. Re-registration
	// refreshes it at every coordinator each indexTTL/3; a provider that dies
	// without unregistering ages out of lookup answers once it lapses.
	indexTTL = 45 * time.Second
)

// Node is a live DCO participant.
type Node struct {
	cfg  Config
	tr   transport.Transport
	self dht.Member // immutable after NewNode

	// kern is set once, by NewNode. The transport serves from the moment it
	// attaches, before the kernel exists; ready is what publishes kern to
	// those goroutines (serve nacks until it is set).
	kern  dht.Kernel
	ready atomic.Bool

	// routes is the owner-arc cache (backend.go): which member owned which
	// arc of the key space when a lookup was last routed there.
	routes *dht.ArcCache

	// mu guards exactly the buffer: chunks, low, regs, refreshed, latestGen.
	// Everything else a request touches has a lock of its own (idx,
	// replicas, replq, guard, health, members, routes), and no path
	// holds mu together with any of them.
	mu sync.Mutex
	// chunks holds every buffered payload, and its keys are the seqs this
	// node registers as a provider of. A stored slice is immutable: it is
	// the slice the wire decoder allocated (or the generator made), and
	// onGetChunk hands that same slice to every caller.
	chunks map[int64][]byte
	low    int64 // no buffered seq is below it: where a window trim starts
	// window is how many chunks the node keeps (§III-A1's active window):
	// the stream's Count, or endlessWindow on an endless stream.
	window int
	// regs is where each buffered seq this node registered was last taken,
	// and refreshed when reregister last refreshed them all.
	regs      map[int64]registration
	refreshed time.Time
	latestGen int64 // source: newest generated seq

	// idx is the coordinator's index table for the keys this node owns
	// (internal/index; DESIGN.md "Index table").
	idx *index.Table

	retrier *retry.Retrier

	// health is the node's one address-keyed peer table (internal/health;
	// DESIGN.md "Peer table"), fed by attempt, the one place this node calls
	// its transport: latency and suspicion, the circuit the retrier's gate
	// and peerCondemned ask, quarantine, the fetch blacklist and the load
	// reports that rank a lookup answer's providers.
	health *health.Tracker

	// pace is the upload admission pacer enforcing UpBps on the chunk
	// serve path (admission.go). Always non-nil; unlimited when UpBps <= 0.
	pace *pacer

	// jitter seeds the viewer-side backoff randomization for Busy nacks
	// (RetryAfterMs honoring); guarded by jitterMu, seeded like the retrier
	// so equal seeds give equal schedules.
	jitterMu sync.Mutex
	jitter   *rand.Rand

	// Replication state (replication.go): ops accepted but not yet flushed
	// to the replica set, and the slices of other owners' indices
	// replicated here.
	replq    replQueue
	replicas replicaStore

	// Ring census state (census.go): the bounded memory of previously-seen
	// members and the probe-rotation cursor. merging serializes split-brain
	// merge attempts — detection can fire concurrently from the census loop
	// and inbound probes — and guards the last merge's target and time.
	members      *dht.MemberCache
	censusCursor atomic.Uint64
	merging      atomic.Bool
	lastMerge    string
	lastMergeAt  time.Time

	// guard is the index-pollution defense state (integrity.go).
	guard pollutionGuard

	closed  chan struct{}
	closeMu sync.Once
	wg      sync.WaitGroup

	// lm holds the node's telemetry counters/histograms (lock-free
	// atomics; see metrics.go). Counting never takes n.mu.
	lm *liveMetrics
}

// Stats aggregates a node's protocol activity. Each field but the two
// peer-table counts (SuspectedPeers, QuarantinedPeers) is read from the
// liveMetrics counter of the same name (metrics.go): the registry is the
// single source of truth.
type Stats struct {
	LookupsServed uint64
	LookupsHeld   uint64 // lookups held because every usable provider was at its cap (index.Budget)
	InsertsServed uint64
	ChunksServed  uint64
	ChunksFetched uint64
	FetchRetries  uint64
	// Overload-control counters.
	ChunksMissed      uint64 // GetChunk for a seq this node has not buffered
	ChunksShedBusy    uint64 // serves turned away by the admission pacer
	ChunksAbandoned   uint64 // fetches given up past their playback horizon
	BusyNacksSeen     uint64 // Busy responses this node's fetches received
	BusyNacksHintless uint64 // of those, responses carrying no RetryAfterMs hint (should be 0)
	PacedServes       uint64 // serves that waited out a pace delay before sending
	// Resilience-layer counters.
	CallRetries          uint64 // RPC attempts beyond each op's first try
	BreakerOpens         uint64 // circuit transitions to open
	LookupFailovers      uint64 // lookups answered past a dead coordinator
	ProvidersBlacklisted uint64 // providers put on fetch cooldown
	// Gray-failure defense counters.
	HedgesLaunched  uint64 // duplicate fetches launched past the primary's latency estimate
	HedgeWins       uint64 // hedges whose duplicate answered first
	HedgesCancelled uint64 // hedge losers left in flight after a win
	DeadlineSheds   uint64 // serves shed because the propagated deadline could not be met
	SuspectedPeers  uint64 // peers currently at or above the suspicion threshold
	// Replication-layer counters.
	ReplicaOpsApplied uint64 // replicated index ops folded in from owners
	IndexTakeovers    uint64 // dead-owner replica slices promoted to owned state
	DigestRepairs     uint64 // index ops re-sent after a digest mismatch
	ProvidersExpired  uint64 // provider leases aged out of the owned index
	LookupFailures    uint64 // lookups that exhausted every candidate coordinator
	// Owner-arc cache counters (backend.go).
	RouteCacheHits      uint64 // index requests sent along a cached arc
	RouteCacheRedirects uint64 // requests a cached owner bounced: one extra round trip each
	IndexInsertFailures uint64 // fresh index inserts that failed: the chunk is registered nowhere until the next re-registration tick
	// Ring-census counters (census.go).
	SplitsDetected uint64 // confirmed split-brain detections
	RingMerges     uint64 // merge protocol completions (incl. lone-node re-bootstraps)
	// Byte meters for the write-amplification benchmark (dcosim -method live):
	// frame bytes of Insert traffic into the index, of replication batches
	// out, and of anti-entropy digests + repairs out.
	IndexInsertBytes uint64
	ReplicateBytes   uint64
	DigestBytes      uint64
	// Byzantine-defense counters (integrity.go).
	IntegrityRejects     uint64 // received chunks dropped by verification
	PeersQuarantined     uint64 // quarantine entries (demerit-tripped + report-tripped)
	QuarantinedPeers     uint64 // peers currently under quarantine
	InsertsRateLimited   uint64 // index inserts turned away by the per-holder rate limit
	InsertsRejected      uint64 // index inserts rejected (horizon, provider cap, quarantined holder)
	PollutionReportsSent uint64 // accusations this node sent to coordinators
	PollutionReportsSeen uint64 // accusations this node received as a coordinator
	LoadReportsClamped   uint64 // LoadMilli reports discounted as self-contradictory
}

// errNotOwner answers an index op that reaches a node that does not own
// the key; callers re-route.
var errNotOwner = &wire.Error{Code: wire.CodeNotOwner, Msg: "live: not the key owner"}

// NewNode creates a node bound to a transport factory. attach is called
// with the node's handler and must return the listening transport (this
// inversion lets the caller pick TCP or an in-memory fabric).
func NewNode(cfg Config, attach func(transport.Handler) (transport.Transport, error)) (*Node, error) {
	// A hand-built Config's zero values take DefaultNodeConfig's.
	def := DefaultNodeConfig()
	if cfg.AdmitQueue <= 0 {
		cfg.AdmitQueue = def.AdmitQueue
	}
	if cfg.InsertRate == 0 {
		cfg.InsertRate = def.InsertRate
	}
	if cfg.MaxProvidersPerSeq == 0 {
		cfg.MaxProvidersPerSeq = def.MaxProvidersPerSeq
	}
	n := &Node{
		cfg:       cfg,
		chunks:    make(map[int64][]byte),
		window:    cmp.Or(int(cfg.Channel.Count), endlessWindow),
		regs:      make(map[int64]registration),
		replicas:  replicaStore{maxRows: cfg.MaxProvidersPerSeq, slices: make(map[string]*index.Table)},
		guard:     newPollutionGuard(),
		pace:      newPacer(cfg.UpBps, admitBurst(cfg.Channel, cfg.UpBps), cfg.AdmitQueue),
		routes:    dht.NewArcCache(routeCacheSize),
		closed:    make(chan struct{}),
		latestGen: -1,
		refreshed: time.Now(),
	}
	tr, err := attach(transport.HandlerFunc(n.serve))
	if err != nil {
		return nil, err
	}
	n.tr = tr
	n.self = dht.Member{ID: dht.IDOf(tr.Addr()), Addr: tr.Addr()}
	n.lm = newLiveMetrics(cfg.Telemetry, cfg.Trace)
	n.health = health.NewTracker(health.Config{Circuit: cfg.Breaker, OnCircuit: n.onCircuit})
	// Quarantined providers are excluded from answers outright (integrity.go).
	n.idx = index.New(cfg.MaxProvidersPerSeq, index.Budget{Period: cfg.Channel.Period, ChunkBits: cfg.Channel.ChunkBits, Lapse: admitMaxWait + cfg.Channel.Period}, n.health.Quarantined)
	n.members = dht.NewMemberCache(n.self.Addr, memberCacheSize)
	seed := cfg.RetrySeed
	if seed == 0 {
		// Stable per-address seed: same deployment, same jitter schedule.
		seed = int64(n.self.ID)
	}
	n.retrier = retry.New(cfg.Retry, n.health.Allow, seed)
	n.jitter = rand.New(rand.NewSource(seed ^ 0x6a69747465726a69)) // distinct stream from the retrier's
	kern, err := n.newKernel()
	if err != nil {
		_ = tr.Close()
		return nil, err
	}
	// The transport is already serving: requests racing construction get a
	// retryable "starting" nack instead of a nil dispatch.
	n.kern = kern
	n.ready.Store(true)
	n.registerGauges()
	n.retrier.SetOnRetry(n.onRetry)
	return n, nil
}

// Addr returns the node's dialable address.
func (n *Node) Addr() string { return n.tr.Addr() }

// ID returns the node's position in the shared 64-bit key space.
func (n *Node) ID() uint64 { return n.self.ID }

// DHTName identifies the routing backend this node runs on.
func (n *Node) DHTName() string { return n.kern.Name() }

// HasChunk reports whether the node buffered seq.
func (n *Node) HasChunk(seq int64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.chunks[seq]
	return ok
}

// ChunkCount returns the number of buffered chunks.
func (n *Node) ChunkCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.chunks)
}

// Successor exposes the next member along the key space (tests,
// debugging): Chord's ring successor, or the first member of this node's
// replica set when the kernel has no explicit successor pointer.
func (n *Node) Successor() (id uint64, addr string) {
	if s, ok := n.kern.(interface{ Successor() dht.Member }); ok {
		m := s.Successor()
		return m.ID, m.Addr
	}
	if rs := n.kern.ReplicaSet(n.self.ID, 1); len(rs) > 0 {
		return rs[0].ID, rs[0].Addr
	}
	return n.self.ID, n.self.Addr
}

// Predecessor exposes the previous member along the key space (tests,
// RingCorrect); ok=false while none is known or the backend keeps no
// predecessor.
func (n *Node) Predecessor() (addr string, ok bool) {
	if p, ok := n.kern.(interface{ Predecessor() (dht.Member, bool) }); ok {
		m, ok := p.Predecessor()
		return m.Addr, ok
	}
	return "", false
}

// startRingMaint schedules the kernel's periodic maintenance (Chord:
// stabilize + fix-fingers, backing off while the ring is quiet; Kademlia:
// bucket refresh + liveness probe) with dht.Tick.Run.
func (n *Node) startRingMaint() {
	for _, t := range n.kern.Ticks() {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			t.Run(n.closed)
		}()
	}
}

// startMaint launches what keeps a member's ring position and index alive
// — kernel maintenance, re-registration, replication, and the anti-entropy
// round that also ages out lapsed leases (so it runs unreplicated too) —
// but neither the census nor the stream.
func (n *Node) startMaint() {
	n.startRingMaint()
	var regs []registration // the tick's snapshot, reused
	n.loop(n.cfg.RepublishEvery, func() { regs = n.reregister(time.Now(), regs) })
	if n.cfg.Replicas > 0 {
		n.loop(n.cfg.ReplicateEvery, n.replicateFlush)
	}
	n.loop(n.cfg.AntiEntropyEvery, n.antiEntropy)
}

// Start launches the maintenance loops and, for sources, the generator;
// viewers also start their fetch pipeline.
func (n *Node) Start() {
	n.startMaint()
	n.loop(n.cfg.CensusEvery, n.census)
	n.startStream()
}

// startStream launches the generator on a source, the fetch pipeline on a
// viewer.
func (n *Node) startStream() {
	n.wg.Add(1)
	if n.cfg.Source {
		go n.generateLoop()
	} else {
		go n.fetchLoop()
	}
}

func (n *Node) loop(period time.Duration, fn func()) {
	if period <= 0 {
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-n.closed:
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

// Close stops the node without the graceful-leave protocol (abrupt
// failure); use Leave for a polite departure.
func (n *Node) Close() error {
	n.closeMu.Do(func() { close(n.closed) })
	err := n.tr.Close()
	n.wg.Wait()
	return err
}

// Join attaches the node to the ring through one existing member. For
// failover across several candidate members, use JoinAny.
func (n *Node) Join(bootstrap string) error { return n.JoinAny([]string{bootstrap}) }

// JoinAny attaches the node to the ring via the first reachable address
// in bootstraps, making joinAttempts rounds over the whole list (with
// backoff between rounds) before giving up. A single dead or partitioned
// bootstrap no longer kills the join.
func (n *Node) JoinAny(bootstraps []string) error {
	var errs []error
	for round := 0; round < joinAttempts; round++ {
		if round > 0 {
			select {
			case <-n.closed:
				return errors.Join(errs...)
			case <-time.After(n.cfg.Retry.Pause(round)):
			}
		}
		for _, b := range bootstraps {
			if b == "" || b == n.Addr() {
				continue
			}
			// The kernel runs the backend's attach protocol and reports
			// everyone it met through the Seen event (the census cache).
			if err := n.kern.Join(b); err != nil {
				errs = append(errs, fmt.Errorf("live: join via %s: %w", b, err))
				continue
			}
			n.traceEvent("join.ok", "via="+b)
			return nil
		}
	}
	n.traceEvent("join.fail", fmt.Sprintf("bootstraps=%d rounds=%d", len(bootstraps), joinAttempts))
	if len(errs) == 0 {
		return errors.New("live: no usable bootstrap address")
	}
	return errors.Join(errs...)
}

// Leave departs gracefully, as a takeover announced in advance: the owned
// index, if not empty, goes as a Full batch to the replica set (one member
// at least), then the backend's departure protocol (Chord: ring unlink;
// Kademlia: goodbye to the neighborhood; nothing on a lone node) has each
// receiver promote what it now owns, as after an abrupt death
// (onKernDeparted), and keep the rest as a replica. Then shutdown.
func (n *Node) Leave() error {
	now := time.Now()
	var ops []wire.ReplicaOp
	for _, e := range n.idx.Take(nil) {
		ops = append(ops, e.Ops(now)...)
	}
	if len(ops) > 0 { // an empty index has nothing to announce, no call to wait on
		for _, t := range n.kern.ReplicaSet(n.self.ID, max(n.cfg.Replicas, 1)) {
			n.sendOps(t.Addr, n.wireSelf(), true, ops)
		}
	}
	n.kern.Leave()
	return n.Close()
}

func (n *Node) wireSelf() wire.Entry { return n.self.Wire() }

// remoteReply reports whether err is a peer's own wire.Error reply — an
// answer, which proves the peer alive — and not a transport failure.
func remoteReply(err error) bool {
	var we *wire.Error
	return errors.As(err, &we)
}

// attempt is the one place this node calls its transport, and so the peer
// table's only liveness feed: every attempt, whichever loop or retry made
// it, is observed once — latency, suspicion and the circuit together.
func (n *Node) attempt(addr string, req wire.Message, timeout time.Duration) (wire.Message, error) {
	start := time.Now()
	resp, err := n.tr.Call(addr, req, timeout)
	n.health.Observe(addr, time.Since(start), err == nil || remoteReply(err))
	return resp, err
}

// call performs one single-shot RPC: no retry. This is the right shape
// for the maintenance loops, where a failure IS the signal (stabilize and
// check_predecessor exist to detect dead peers, and they run again on the
// next tick): repeated probe failures accumulate in the peer's circuit
// into the conclusive evidence that finally purges it. timeout is the
// deadline propagation seam: fetch paths derive it from the chunk's
// remaining playback horizon (deadlineTimeout) instead of always paying the
// full CallTimeout against a stalled peer.
func (n *Node) call(addr string, req wire.Message, timeout time.Duration) (wire.Message, error) {
	resp, err := n.attempt(addr, req, timeout)
	if err != nil {
		n.noteCallFailure(addr, err)
	}
	return resp, err
}

// callIdem performs a retried RPC for idempotent requests (every DCO
// request except the maintenance probes is idempotent by construction:
// inserts dedupe by address, lookups and fetches are reads, notify and
// replicated ops are merges), timeout applying to each attempt. Transient
// failures are absorbed by jittered backoff; the peer's circuit fails the
// loop fast once the peer looks dead, and only the final failure purges it
// from the routing tables. Remote wire.Errors retry only when their code
// says so.
func (n *Node) callIdem(addr string, req wire.Message, timeout time.Duration) (wire.Message, error) {
	var resp wire.Message
	err := n.retrier.Do(n.closed, addr, wire.Retryable, func() (err error) {
		resp, err = n.attempt(addr, req, timeout)
		return err
	})
	if err != nil {
		n.noteCallFailure(addr, err)
		return nil, err
	}
	return resp, nil
}

// deadlineTimeout derives a call's transport timeout from the remaining
// playback horizon and the time the server may legitimately hold the
// request (a lookup parked in the pending queue, a serve queued behind the
// pacer): the remaining budget when a deadline applies and is the shorter,
// else CallTimeout; then never shorter than serverWait plus 250ms of slack,
// so a legitimate hold is not cut off mid-wait (and a nearly expired fetch
// never dials with a timeout too small to ever succeed — the fetch loop's
// own deadline check abandons it instead); then, last, never longer than
// CallTimeout when one is set.
func (n *Node) deadlineTimeout(deadline time.Time, serverWait time.Duration) time.Duration {
	ct := n.cfg.CallTimeout
	t := ct
	if !deadline.IsZero() {
		if r := time.Until(deadline); ct <= 0 || r < ct {
			t = r
		}
	}
	t = max(t, serverWait+250*time.Millisecond)
	if ct > 0 {
		t = min(t, ct)
	}
	return t
}

// deadlineMs converts the remaining playback horizon into the wire's
// relative DeadlineMs budget (0 = unbounded; expired in flight = 1, so the
// server sheds immediately), the same convention as a lease's TTLMillis.
func deadlineMs(deadline time.Time) uint32 { return index.TTLMillis(deadline, time.Now()) }

// peerCondemned reports whether err against addr is conclusive evidence
// that the peer is down, as opposed to a transient hiccup. A remote
// application reply proves the peer alive. With circuits configured, a
// lone transport error is presumed transient — only addr's circuit
// opening (threshold consecutive failures) condemns it; under lossy
// links this is what keeps live successors from being purged on every
// dropped probe. Without them, any transport failure condemns.
func (n *Node) peerCondemned(addr string, err error) bool {
	if remoteReply(err) {
		return false
	}
	return n.cfg.Breaker.Threshold < 1 || n.health.Open(addr) || errors.Is(err, retry.ErrOpen)
}

// noteCallFailure purges addr from the kernel's routing tables once the
// failure evidence is conclusive; maintenance re-adds the peer if it was
// only a hiccup after all. A condemned peer whose key range fell to this
// node triggers index takeover: a custody pass moves every replicated entry
// this node now owns into its own index. A dead peer whose range went
// elsewhere starts no pass. A send of that pass can fail and land here.
func (n *Node) noteCallFailure(addr string, err error) {
	if !n.peerCondemned(addr, err) {
		return
	}
	n.routes.Drop(addr)
	n.kern.PeerFailed(addr)
	n.traceEvent("ring.purge", "peer="+addr)
	if n.kern.Owns(dht.IDOf(addr)) {
		go n.custody(dht.Member{})
	}
}

// ---------------------------------------------------------------------------
// Chunk payloads: deterministic synthetic media so any node can verify
// integrity end-to-end.

// MakeChunkPayload builds the synthetic chunk body for seq: an 8-byte
// big-endian seq header, then payloadWord(seq, i) for i = 0, 1, ... in
// little-endian order, the last word cut short by the payload's end.
func MakeChunkPayload(p stream.Params, seq int64) []byte {
	out := make([]byte, payloadSize(p))
	binary.BigEndian.PutUint64(out, uint64(seq))
	body, i := out[8:], uint64(0)
	for ; len(body) >= 8; body, i = body[8:], i+1 {
		binary.LittleEndian.PutUint64(body, payloadWord(seq, i))
	}
	last := payloadTail(seq, i)
	copy(body, last[:])
	return out
}

// payloadSize is the byte length of every chunk of the channel: the seq
// header at least.
func payloadSize(p stream.Params) int {
	return max(int(p.ChunkBits/8), 8)
}

// payloadWord is body word i of seq, the stand-in for encoded media: the
// splitmix64 finalizer of seq·φ + (i+1)·c. φ is odd and the finalizer a
// bijection, so word i differs between any two seqs and a body never
// verifies under another seq's header; being non-cryptographic loses
// nothing (DESIGN.md "One choke point").
func payloadWord(seq int64, i uint64) uint64 {
	z := uint64(seq)*0x9e3779b97f4a7c15 + (i+1)*0xd1b54a32d192ed03
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// payloadTail is word i encoded whole; a partial last word keeps its prefix.
func payloadTail(seq int64, i uint64) (b [8]byte) {
	binary.LittleEndian.PutUint64(b[:], payloadWord(seq, i))
	return b
}

// VerifyChunkPayload checks a received body against the generator, word by
// word and in place: nothing is allocated.
func VerifyChunkPayload(p stream.Params, seq int64, data []byte) bool {
	if len(data) != payloadSize(p) || int64(binary.BigEndian.Uint64(data)) != seq {
		return false
	}
	body, i := data[8:], uint64(0)
	for ; len(body) >= 8; body, i = body[8:], i+1 {
		if binary.LittleEndian.Uint64(body) != payloadWord(seq, i) {
			return false
		}
	}
	last := payloadTail(seq, i)
	return bytes.Equal(body, last[:len(body)])
}
