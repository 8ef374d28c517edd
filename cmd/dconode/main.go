// Command dconode runs a live DCO node over real TCP: a stream source, or a
// viewer that joins an existing ring and watches the channel.
//
// Start a source:
//
//	dconode -listen 127.0.0.1:7000 -source -chunks 100
//
// Join viewers (any ring member works as bootstrap):
//
//	dconode -listen 127.0.0.1:7001 -join 127.0.0.1:7000
//	dconode -listen 127.0.0.1:7002 -join 127.0.0.1:7001
//
// Each node prints progress; Ctrl-C leaves the ring gracefully.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"dco/internal/faulty"
	"dco/internal/live"
	"dco/internal/stream"
	"dco/internal/telemetry"
	"dco/internal/transport"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		join      = flag.String("join", "", "comma-separated bootstrap addresses of ring members (omit for the first node)")
		source    = flag.Bool("source", false, "act as the stream source")
		channel   = flag.String("channel", "LIVE", "channel name")
		chunks    = flag.Int64("chunks", 0, "stream length (0 = endless: the node then keeps only the newest 4096 chunks)")
		chunkKB   = flag.Int64("chunk-kb", 64, "chunk size in KiB")
		period    = flag.Duration("period", 500*time.Millisecond, "chunk period")
		startSeq  = flag.Int64("start", 0, "first chunk to fetch (viewers)")
		verbosity = flag.Int("v", 1, "0 = quiet, 1 = progress, 2 = per chunk")
		out       = flag.String("out", "", "write received chunks, in order, to this file ('-' = stdout)")

		// DHT kernel (see DESIGN.md, "DHT kernel").
		dhtBackend = flag.String("dht", "", "coordinator substrate: chord or kademlia (empty = $DCO_DHT, then chord)")

		// Observability (see DESIGN.md, "Observability").
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars.json, /debug/trace and /debug/pprof/ on this address (empty disables)")
		traceCap    = flag.Int("trace-cap", 4096, "protocol-event trace ring capacity")

		// Resilience knobs (see DESIGN.md, "Failure model of the live stack").
		retryAttempts   = flag.Int("retry-attempts", 3, "attempts per idempotent RPC (1 disables retries)")
		retryBackoff    = flag.Duration("retry-backoff", 30*time.Millisecond, "initial retry backoff")
		retryMaxBackoff = flag.Duration("retry-max-backoff", 500*time.Millisecond, "retry backoff cap")
		retryBudget     = flag.Duration("retry-budget", 3*time.Second, "total wall-clock budget per retried RPC (0 = attempts only)")
		breakerThresh   = flag.Int("breaker-threshold", 5, "consecutive failures that open a peer's circuit (0 disables the breaker)")
		breakerCooldown = flag.Duration("breaker-cooldown", 2*time.Second, "how long an open circuit rejects before a half-open probe")
		providerCool    = flag.Duration("provider-cooldown", 2*time.Second, "blacklist duration for a provider that failed a chunk transfer (0 disables)")
		joinAttempts    = flag.Int("join-attempts", 3, "rounds over the -join list before giving up")
		maxFrameKB      = flag.Int("max-frame-kb", 0, "per-connection frame size cap in KiB (0 = wire protocol default)")
		ioReadTimeout   = flag.Duration("io-read-timeout", 0, "per-connection TCP read deadline; idle server conns are reclaimed after this (0 = 2m default)")
		ioWriteTimeout  = flag.Duration("io-write-timeout", 0, "per-frame TCP write deadline (0 = 30s default)")

		// Gray-failure defense (see DESIGN.md, "Gray failures: hedging,
		// health scoring & deadline propagation").
		hedge    = flag.Bool("hedge", true, "hedge slow chunk fetches to the next-best provider, first response wins")
		hedgeMax = flag.Duration("hedge-max", 300*time.Millisecond, "ceiling for the hedge trigger delay derived from the peer's latency EWMA (also used against peers with no history)")

		// Overload & admission control (see DESIGN.md, "Overload & admission
		// control").
		upBps         = flag.Int64("up-bps", 10_000_000, "upload budget in bits/sec, enforced on the chunk serve path (0 = unlimited)")
		admitQueue    = flag.Int("admit-queue", 0, "bound on chunk serves queued behind the upload pacer; excess is shed Busy+RetryAfterMs (0 = derive)")
		admitBurst    = flag.Int64("admit-burst", 0, "pacer burst allowance in bytes (0 = derive from chunk size and -up-bps)")
		admitMaxWait  = flag.Duration("admit-max-wait", 600*time.Millisecond, "cap on how long one admitted serve may queue behind the pacer")
		fetchDeadline = flag.Int("fetch-deadline", 0, "viewer playback horizon in chunk periods; chunks not fetched in time are abandoned (0 = retry forever)")

		// Replication & repair (see DESIGN.md, "Replication & repair").
		replicas    = flag.Int("replicas", 2, "index replication factor: successors mirroring each coordinator's entries (0 disables)")
		replEvery   = flag.Duration("replicate-every", 150*time.Millisecond, "how often queued index ops are batch-flushed to the replicas")
		antiEntropy = flag.Duration("antientropy-every", 3*time.Second, "digest-exchange period repairing replicas that missed batches")
		indexTTL    = flag.Duration("index-ttl", 45*time.Second, "provider lease in the chunk index; republishes refresh it (0 disables expiry)")

		// Ring census & split-brain merge (see DESIGN.md, "Partitions &
		// ring merge").
		censusEvery = flag.Duration("census-every", 2*time.Second, "ring-census period probing cached members outside the ring view (0 disables split-brain detection)")

		// Pollution defense (see DESIGN.md, "Threat model & pollution
		// defense").
		integrityQuarantine = flag.Float64("integrity-quarantine", 0, "integrity demerits that quarantine a peer; <0 disables quarantine (0 = default 3)")
		quarantineTTL       = flag.Duration("quarantine-ttl", 0, "how long a quarantined peer stays excluded (0 = default 30s)")
		insertRate          = flag.Float64("insert-rate", 0, "index registrations accepted per second per holder, burst 2x; <0 disables (0 = default 200)")
		insertHorizon       = flag.Int("insert-horizon", 0, "chunks past the verified live edge an index registration may claim; <0 disables (0 = default 1024)")

		// Fault injection (testing/chaos drills; off by default).
		faultSeed     = flag.Uint64("fault-seed", 1, "seed for the deterministic fault schedule")
		faultDrop     = flag.Float64("fault-drop", 0, "probability a call is dropped (0 disables)")
		faultRefuse   = flag.Float64("fault-refuse", 0, "probability a call is refused immediately")
		faultDup      = flag.Float64("fault-dup", 0, "probability a call is delivered twice")
		faultDelay    = flag.Float64("fault-delay", 0, "probability a call is delayed")
		faultMaxDelay = flag.Duration("fault-max-delay", 200*time.Millisecond, "upper bound for injected delays")
		faultCorrupt  = flag.Float64("fault-corrupt", 0, "probability a delivered chunk payload has one byte flipped")
	)
	flag.Parse()

	cfg := live.DefaultNodeConfig()
	if *dhtBackend != "" {
		cfg.DHT = *dhtBackend
	}
	cfg.Source = *source
	cfg.StartSeq = *startSeq
	cfg.Channel = stream.Params{
		Channel:   *channel,
		ChunkBits: *chunkKB * 8 * 1024,
		Period:    *period,
		Count:     *chunks,
	}
	cfg.Retry.MaxAttempts = *retryAttempts
	cfg.Retry.InitialBackoff = *retryBackoff
	cfg.Retry.MaxBackoff = *retryMaxBackoff
	cfg.Retry.Budget = *retryBudget
	cfg.Breaker.Threshold = *breakerThresh
	cfg.Breaker.Cooldown = *breakerCooldown
	cfg.ProviderCooldown = *providerCool
	cfg.JoinAttempts = *joinAttempts
	cfg.IOReadTimeout = *ioReadTimeout
	cfg.IOWriteTimeout = *ioWriteTimeout
	cfg.Hedge = *hedge
	cfg.HedgeMaxDelay = *hedgeMax
	cfg.UpBps = *upBps
	cfg.AdmitQueue = *admitQueue
	cfg.AdmitBurst = *admitBurst
	cfg.AdmitMaxWait = *admitMaxWait
	cfg.FetchDeadlineChunks = *fetchDeadline
	cfg.Replicas = *replicas
	cfg.ReplicateEvery = *replEvery
	cfg.AntiEntropyEvery = *antiEntropy
	cfg.IndexTTL = *indexTTL
	cfg.CensusEvery = *censusEvery
	if *integrityQuarantine != 0 {
		cfg.QuarantineThreshold = *integrityQuarantine
	}
	if *quarantineTTL != 0 {
		cfg.QuarantineTTL = *quarantineTTL
	}
	if *insertRate != 0 {
		cfg.InsertRate = *insertRate
	}
	if *insertHorizon != 0 {
		cfg.InsertHorizon = *insertHorizon
	}

	// One registry + trace per process: the node, the transport and the
	// exposition server all share it.
	var (
		reg  *telemetry.Registry
		tr   *telemetry.Trace
		tm   *transport.Metrics
		tsrv *telemetry.Server
	)
	if *metricsAddr != "" {
		reg = telemetry.NewRegistry()
		tr = telemetry.NewTrace(*traceCap)
		tm = transport.NewMetrics(reg)
		cfg.Telemetry = reg
		cfg.Trace = tr
	}

	var inj *faulty.Injector
	if *faultDrop > 0 || *faultRefuse > 0 || *faultDup > 0 || *faultDelay > 0 || *faultCorrupt > 0 {
		inj = faulty.NewInjector(*faultSeed)
		inj.SetDefaultRule(faulty.Rule{
			Drop:      *faultDrop,
			Refuse:    *faultRefuse,
			Duplicate: *faultDup,
			Delay:     *faultDelay,
			DelayBy:   *faultMaxDelay,
			Corrupt:   *faultCorrupt,
		})
	}

	var sink *orderedSink
	if *out != "" {
		w := os.Stdout
		if *out != "-" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dconode: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		sink = newOrderedSink(w, *startSeq)
	}
	cfg.OnChunk = func(seq int64, data []byte) {
		if *verbosity >= 2 {
			fmt.Printf("chunk %d (%d bytes)\n", seq, len(data))
		}
		if sink != nil {
			sink.put(seq, data)
		}
	}

	node, err := live.NewNode(cfg, func(h transport.Handler) (transport.Transport, error) {
		tcp, err := transport.ListenTCP(*listen, h)
		if err != nil {
			return nil, err
		}
		if *maxFrameKB > 0 {
			tcp.SetMaxFrameSize(uint32(*maxFrameKB) * 1024)
		}
		if tm != nil {
			tcp.SetMetrics(tm)
		}
		if inj == nil {
			return tcp, nil
		}
		return inj.Wrap(tcp), nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dconode: %v\n", err)
		os.Exit(1)
	}
	role := "viewer"
	if *source {
		role = "source"
	}
	fmt.Printf("dconode %s listening on %s (%s id %016x)\n", role, node.Addr(), node.DHTName(), node.ID())
	if *metricsAddr != "" {
		tsrv, err = telemetry.Serve(*metricsAddr, reg, tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dconode: metrics: %v\n", err)
			os.Exit(1)
		}
		defer tsrv.Close()
		fmt.Printf("metrics on http://%s/metrics (trace: /debug/trace, pprof: /debug/pprof/)\n", tsrv.Addr())
	}

	if *join != "" {
		bootstraps := strings.Split(*join, ",")
		for i := range bootstraps {
			bootstraps[i] = strings.TrimSpace(bootstraps[i])
		}
		if err := node.JoinAny(bootstraps); err != nil {
			fmt.Fprintf(os.Stderr, "dconode: join %s: %v\n", *join, err)
			os.Exit(1)
		}
		fmt.Printf("joined ring via %s\n", *join)
	}
	node.Start()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	ticker := time.NewTicker(2 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			fmt.Println("\nleaving the ring gracefully…")
			if err := node.Leave(); err != nil {
				fmt.Fprintf(os.Stderr, "dconode: leave: %v\n", err)
			}
			return
		case <-ticker.C:
			if *verbosity >= 1 {
				st := node.Stats()
				_, succ := node.Successor()
				fmt.Printf("buffered=%d fetched=%d served=%d retries=%d shed=%d paced=%d abandoned=%d rpcretries=%d opens=%d failovers=%d blacklisted=%d replops=%d takeovers=%d hedges=%d/%d suspected=%d badchunks=%d quarantined=%d/%d ratelimited=%d succ=%s\n",
					node.ChunkCount(), st.ChunksFetched, st.ChunksServed,
					st.FetchRetries, st.ChunksShedBusy, st.PacedServes, st.ChunksAbandoned,
					st.CallRetries, st.BreakerOpens, st.LookupFailovers, st.ProvidersBlacklisted,
					st.ReplicaOpsApplied, st.IndexTakeovers, st.HedgeWins, st.HedgesLaunched,
					st.SuspectedPeers, st.IntegrityRejects, st.QuarantinedPeers, st.PeersQuarantined,
					st.InsertsRateLimited, succ)
			}
			if *chunks > 0 && !*source && int64(node.ChunkCount()) >= *chunks {
				fmt.Println("stream complete; leaving")
				_ = node.Leave()
				return
			}
		}
	}
}

// orderedSink re-sequences chunks arriving out of order (parallel fetch
// workers race) and writes a contiguous byte stream — what a media player
// sitting behind the node would consume.
type orderedSink struct {
	mu      sync.Mutex
	w       io.Writer
	next    int64
	pending map[int64][]byte
}

func newOrderedSink(w io.Writer, start int64) *orderedSink {
	return &orderedSink{w: w, next: start, pending: make(map[int64][]byte)}
}

func (s *orderedSink) put(seq int64, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq < s.next {
		return
	}
	s.pending[seq] = data
	for {
		d, ok := s.pending[s.next]
		if !ok {
			return
		}
		delete(s.pending, s.next)
		if _, err := s.w.Write(d); err != nil {
			fmt.Fprintf(os.Stderr, "dconode: sink: %v\n", err)
			return
		}
		s.next++
	}
}
