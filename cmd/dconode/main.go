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
	"dco/internal/telemetry"
	"dco/internal/transport"
)

// options are the flags that are not node configuration: where to listen
// and whom to join, what to print, the TCP listener's limits and the fault
// injector.
type options struct {
	listen, join, out, metricsAddr  string
	verbosity, traceCap, maxFrameKB int
	ioReadTimeout, ioWriteTimeout   time.Duration
	faultSeed                       uint64
	fault                           faulty.Rule
}

// defaultPeriod is dconode's one departure from DefaultNodeConfig: its
// stream runs at two chunks a second.
const defaultPeriod = 500 * time.Millisecond

// parseFlags parses args into a node configuration and dconode's own
// options. Every configuration flag is bound to a field of
// DefaultNodeConfig(), so its default is the library's.
func parseFlags(fs *flag.FlagSet, args []string) (live.Config, options, error) {
	cfg := live.DefaultNodeConfig()
	cfg.Channel.Period = defaultPeriod
	var o options

	fs.StringVar(&o.listen, "listen", "127.0.0.1:0", "TCP listen address")
	fs.StringVar(&o.join, "join", "", "comma-separated bootstrap addresses of ring members (omit for the first node)")
	fs.BoolVar(&cfg.Source, "source", cfg.Source, "act as the stream source")
	fs.StringVar(&cfg.Channel.Channel, "channel", cfg.Channel.Channel, "channel name")
	fs.Int64Var(&cfg.Channel.Count, "chunks", cfg.Channel.Count, "stream length (0 = endless: the node then keeps only the newest 4096 chunks)")
	chunkKB := fs.Int64("chunk-kb", cfg.Channel.ChunkBits/8/1024, "chunk size in KiB")
	fs.DurationVar(&cfg.Channel.Period, "period", cfg.Channel.Period, "chunk period")
	fs.Int64Var(&cfg.StartSeq, "start", cfg.StartSeq, "first chunk to fetch (viewers)")
	fs.IntVar(&o.verbosity, "v", 1, "0 = quiet, 1 = progress, 2 = per chunk")
	fs.StringVar(&o.out, "out", "", "write received chunks, in order, to this file ('-' = stdout)")

	// DHT kernel (see DESIGN.md, "DHT kernel").
	fs.StringVar(&cfg.DHT, "dht", cfg.DHT, "coordinator substrate: chord or kademlia ($DCO_DHT, when set, is the default)")

	// Observability (see DESIGN.md, "Observability").
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics, /debug/vars.json, /debug/trace and /debug/pprof/ on this address (empty disables)")
	fs.IntVar(&o.traceCap, "trace-cap", 4096, "protocol-event trace ring capacity")

	// Resilience knobs (see DESIGN.md, "Failure model of the live stack").
	fs.IntVar(&cfg.Retry.MaxAttempts, "retry-attempts", cfg.Retry.MaxAttempts, "attempts per idempotent RPC (1 disables retries)")
	fs.DurationVar(&cfg.Retry.InitialBackoff, "retry-backoff", cfg.Retry.InitialBackoff, "initial retry backoff")
	fs.DurationVar(&cfg.Retry.MaxBackoff, "retry-max-backoff", cfg.Retry.MaxBackoff, "retry backoff cap")
	fs.DurationVar(&cfg.Retry.Budget, "retry-budget", cfg.Retry.Budget, "total wall-clock budget per retried RPC (0 = attempts only)")
	fs.IntVar(&cfg.Breaker.Threshold, "breaker-threshold", cfg.Breaker.Threshold, "consecutive failures that open a peer's circuit (0 disables the breaker)")
	fs.DurationVar(&cfg.Breaker.Cooldown, "breaker-cooldown", cfg.Breaker.Cooldown, "how long an open circuit rejects before a half-open probe")
	fs.DurationVar(&cfg.ProviderCooldown, "provider-cooldown", cfg.ProviderCooldown, "blacklist duration for a provider that failed a chunk transfer (0 disables)")
	fs.IntVar(&o.maxFrameKB, "max-frame-kb", 0, "per-connection frame size cap in KiB (0 = wire protocol default)")
	fs.DurationVar(&o.ioReadTimeout, "io-read-timeout", 0, "per-connection TCP read deadline; idle server conns are reclaimed after this (0 = 2m default)")
	fs.DurationVar(&o.ioWriteTimeout, "io-write-timeout", 0, "per-frame TCP write deadline (0 = 30s default)")

	// Gray-failure defense (see DESIGN.md, "Gray failures: hedging, health
	// scoring & deadline propagation").
	fs.BoolVar(&cfg.Hedge, "hedge", cfg.Hedge, "hedge slow chunk fetches to the next-best provider, first response wins")

	// Overload & admission control (see DESIGN.md, "Overload & admission
	// control").
	fs.Int64Var(&cfg.UpBps, "up-bps", cfg.UpBps, "upload budget in bits/sec, enforced on the chunk serve path (0 = unlimited)")
	fs.IntVar(&cfg.AdmitQueue, "admit-queue", cfg.AdmitQueue, "bound on chunk serves queued behind the upload pacer; excess is shed Busy+RetryAfterMs")
	fs.IntVar(&cfg.FetchDeadlineChunks, "fetch-deadline", cfg.FetchDeadlineChunks, "viewer playback horizon in chunk periods; chunks not fetched in time are abandoned (0 = retry forever)")

	// Replication & repair (see DESIGN.md, "Replication & repair").
	fs.IntVar(&cfg.Replicas, "replicas", cfg.Replicas, "index replication factor: successors mirroring each coordinator's entries (0 disables)")
	fs.DurationVar(&cfg.ReplicateEvery, "replicate-every", cfg.ReplicateEvery, "how often queued index ops are batch-flushed to the replicas")
	fs.DurationVar(&cfg.AntiEntropyEvery, "antientropy-every", cfg.AntiEntropyEvery, "digest-exchange period repairing replicas that missed batches")

	// Ring census & split-brain merge (see DESIGN.md, "Partitions & ring
	// merge").
	fs.DurationVar(&cfg.CensusEvery, "census-every", cfg.CensusEvery, "ring-census period probing cached members outside the ring view (0 disables split-brain detection)")

	// Pollution defense (see DESIGN.md, "Threat model & pollution defense").
	fs.Float64Var(&cfg.InsertRate, "insert-rate", cfg.InsertRate, "index registrations accepted per second per holder, burst 2x; <0 disables")

	// Fault injection (testing/chaos drills; off by default).
	fs.Uint64Var(&o.faultSeed, "fault-seed", 1, "seed for the deterministic fault schedule")
	fs.Float64Var(&o.fault.Drop, "fault-drop", 0, "probability a call is dropped (0 disables)")
	fs.Float64Var(&o.fault.Refuse, "fault-refuse", 0, "probability a call is refused immediately")
	fs.Float64Var(&o.fault.Duplicate, "fault-dup", 0, "probability a call is delivered twice")
	fs.Float64Var(&o.fault.Delay, "fault-delay", 0, "probability a call is delayed")
	fs.DurationVar(&o.fault.DelayBy, "fault-max-delay", 200*time.Millisecond, "upper bound for injected delays")
	fs.Float64Var(&o.fault.Corrupt, "fault-corrupt", 0, "probability a delivered chunk payload has one byte flipped")

	err := fs.Parse(args)
	cfg.Channel.ChunkBits = *chunkKB * 8 * 1024
	return cfg, o, err
}

// attach returns the transport factory NewNode serves on: a TCP listener
// with the frame cap and I/O timeouts applied, wrapped in the fault
// injector when a -fault-* flag asks for one. tm may be nil.
func (o options) attach(tm *transport.Metrics) func(transport.Handler) (transport.Transport, error) {
	return func(h transport.Handler) (transport.Transport, error) {
		tcp, err := transport.ListenTCP(o.listen, h)
		if err != nil {
			return nil, err
		}
		if o.maxFrameKB > 0 {
			tcp.SetMaxFrameSize(uint32(o.maxFrameKB) * 1024)
		}
		tcp.SetIOTimeouts(o.ioReadTimeout, o.ioWriteTimeout)
		if tm != nil {
			tcp.SetMetrics(tm)
		}
		f := o.fault
		if f.Drop <= 0 && f.Refuse <= 0 && f.Duplicate <= 0 && f.Delay <= 0 && f.Corrupt <= 0 {
			return tcp, nil
		}
		inj := faulty.NewInjector(o.faultSeed)
		inj.SetDefaultRule(f)
		return inj.Wrap(tcp), nil
	}
}

func main() {
	cfg, o, _ := parseFlags(flag.CommandLine, os.Args[1:]) // CommandLine exits on a bad flag

	// One registry + trace per process: the node, the transport and the
	// exposition server all share it.
	var (
		reg *telemetry.Registry
		tr  *telemetry.Trace
		tm  *transport.Metrics
	)
	if o.metricsAddr != "" {
		reg = telemetry.NewRegistry()
		tr = telemetry.NewTrace(o.traceCap)
		tm = transport.NewMetrics(reg)
		cfg.Telemetry = reg
		cfg.Trace = tr
	}

	var sink *orderedSink
	if o.out != "" {
		w := os.Stdout
		if o.out != "-" {
			f, err := os.Create(o.out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dconode: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		sink = newOrderedSink(w, cfg.StartSeq)
	}
	cfg.OnChunk = func(seq int64, data []byte) {
		if o.verbosity >= 2 {
			fmt.Printf("chunk %d (%d bytes)\n", seq, len(data))
		}
		if sink != nil {
			sink.put(seq, data)
		}
	}

	node, err := live.NewNode(cfg, o.attach(tm))
	if err != nil {
		fmt.Fprintf(os.Stderr, "dconode: %v\n", err)
		os.Exit(1)
	}
	role := "viewer"
	if cfg.Source {
		role = "source"
	}
	fmt.Printf("dconode %s listening on %s (%s id %016x)\n", role, node.Addr(), node.DHTName(), node.ID())
	if o.metricsAddr != "" {
		tsrv, err := telemetry.Serve(o.metricsAddr, reg, tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dconode: metrics: %v\n", err)
			os.Exit(1)
		}
		defer tsrv.Close()
		fmt.Printf("metrics on http://%s/metrics (trace: /debug/trace, pprof: /debug/pprof/)\n", tsrv.Addr())
	}

	if o.join != "" {
		bootstraps := strings.Split(o.join, ",")
		for i := range bootstraps {
			bootstraps[i] = strings.TrimSpace(bootstraps[i])
		}
		if err := node.JoinAny(bootstraps); err != nil {
			fmt.Fprintf(os.Stderr, "dconode: join %s: %v\n", o.join, err)
			os.Exit(1)
		}
		fmt.Printf("joined ring via %s\n", o.join)
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
			if o.verbosity >= 1 {
				st := node.Stats()
				_, succ := node.Successor()
				fmt.Printf("buffered=%d fetched=%d served=%d retries=%d held=%d shed=%d paced=%d abandoned=%d rpcretries=%d opens=%d failovers=%d blacklisted=%d replops=%d takeovers=%d hedges=%d/%d suspected=%d badchunks=%d quarantined=%d/%d ratelimited=%d succ=%s\n",
					node.ChunkCount(), st.ChunksFetched, st.ChunksServed,
					st.FetchRetries, st.LookupsHeld, st.ChunksShedBusy, st.PacedServes, st.ChunksAbandoned,
					st.CallRetries, st.BreakerOpens, st.LookupFailovers, st.ProvidersBlacklisted,
					st.ReplicaOpsApplied, st.IndexTakeovers, st.HedgeWins, st.HedgesLaunched,
					st.SuspectedPeers, st.IntegrityRejects, st.QuarantinedPeers, st.PeersQuarantined,
					st.InsertsRateLimited, succ)
			}
			if cfg.Channel.Count > 0 && !cfg.Source && int64(node.ChunkCount()) >= cfg.Channel.Count {
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
