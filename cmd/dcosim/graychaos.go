package main

// The "graychaos" method is the gray-failure soak: the real node stack on
// both DHT backends under a seeded mix of alive-but-degraded peers —
// persistent slow lanes, mid-frame chunk stalls (the peer answers control
// RPCs but its data frames never finish), and asymmetric one-way
// partitions — injected mid-stream. Each backend runs the identical
// scenario twice, hedging disabled then enabled, and the run is judged on
// the gray-failure invariants: the swarm still delivers (≥95%), no fetch
// worker wedges (every node closes promptly), and hedging cuts the p99
// chunk-fetch latency by at least 30% against the undefended run. This is
// what `dcosim -method graychaos -json <file>` writes.

import (
	"errors"
	"fmt"
	"time"

	"dco/internal/faulty"
	"dco/internal/live"
)

// grayRunResult is one (backend, hedge) column. Field names are stable —
// reports written with -json and CI trend checks parse them.
type grayRunResult struct {
	Backend          string  `json:"backend"`
	Hedge            bool    `json:"hedge"`
	WallSeconds      float64 `json:"wall_seconds"`
	DeliveredPercent float64 `json:"delivered_percent"` // min over all viewers

	// Chunk-fetch latency distribution, summed over every viewer's
	// dco_live_chunk_fetch_seconds histogram (interpolated quantiles).
	Fetches  uint64  `json:"fetches"`
	FetchP50 float64 `json:"fetch_p50_seconds"`
	FetchP95 float64 `json:"fetch_p95_seconds"`
	FetchP99 float64 `json:"fetch_p99_seconds"`

	HedgesLaunched  uint64 `json:"hedges_launched"`
	HedgeWins       uint64 `json:"hedge_wins"`
	HedgesCancelled uint64 `json:"hedges_cancelled"`
	DeadlineSheds   uint64 `json:"deadline_sheds"`
	SuspectedPeers  uint64 `json:"suspected_peers"` // sum at stream end
	LookupFailures  uint64 `json:"lookup_failures"`
	ChunksAbandoned uint64 `json:"chunks_abandoned"`
	WedgedWorkers   int    `json:"wedged_workers"` // nodes that failed to close in time
	Injected        uint64 `json:"injected"`       // non-pass injector decisions
}

// grayChaosResult is the -json schema of a graychaos run.
type grayChaosResult struct {
	Method string          `json:"method"`
	N      int             `json:"n"`
	Chunks int64           `json:"chunks"`
	Seed   int64           `json:"seed"`
	Runs   []grayRunResult `json:"runs"`
	// P99CutPercent[backend] = how much hedging cut p99 fetch latency.
	P99CutPercent map[string]float64 `json:"p99_cut_percent"`
}

// awaitResolved runs the stream until every viewer has resolved every
// chunk — fetched or (past its playback horizon) abandoned — or d passes;
// running out of time is judged by the scenario's delivery gate, not here.
func awaitResolved(s *live.Swarm, d time.Duration, chunks int64) {
	_ = s.WaitUntil(d, "every chunk to be fetched or abandoned", func() bool {
		for _, v := range s.Viewers() {
			if int64(v.ChunkCount())+int64(v.Stats().ChunksAbandoned) < chunks {
				return false
			}
		}
		return true
	})
}

// runGrayRun executes the shared scenario on one backend with hedging on
// or off.
func runGrayRun(backend string, hedge bool, n int, chunks, seed int64) (*grayRunResult, error) {
	cfg := live.DefaultNodeConfig()
	live.FastLocalTimings(&cfg)
	cfg.DHT = backend
	cfg.Channel.Period = 60 * time.Millisecond
	cfg.Channel.ChunkBits = 8 * 1024
	cfg.Channel.Count = chunks
	cfg.LookupWait = 250 * time.Millisecond
	cfg.Replicas = 2
	cfg.ReplicateEvery = 25 * time.Millisecond
	cfg.AntiEntropyEvery = 250 * time.Millisecond
	cfg.Hedge = hedge
	// A generous playback horizon (200 periods = 12s): deadline propagation
	// stays live on every call without abandoning chunks a defended fetch
	// could still land.
	cfg.FetchDeadlineChunks = 200

	in := faulty.NewInjector(uint64(seed))
	s, err := live.NewSwarm(live.SwarmSpec{N: n, Base: cfg, Crowd: true, Wrap: in.Wrap})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	viewers := s.Viewers()
	start := time.Now()
	if err := s.Up(); err != nil {
		return nil, err
	}

	// Mid-stream, turn a deterministic slice of the viewers gray. The
	// source stays clean: it is the only origin of chunks, and a grayed
	// origin tests chunk scarcity, not gray-failure defense. The three sets
	// are disjoint slices of the arrival order.
	time.Sleep(time.Duration(chunks) * cfg.Channel.Period / 3)
	stallN := max(n/6, 3)
	slowN := max(n/12, 2)
	oneN := max(n/12, 2)
	if stallN+slowN+oneN > len(viewers) {
		return nil, fmt.Errorf("n=%d too small for the gray sets (%d needed)", n, stallN+slowN+oneN+1)
	}
	for _, v := range viewers[:stallN] {
		in.SetMidFrameStall(v.Addr(), true)
	}
	for _, v := range viewers[stallN : stallN+slowN] {
		in.SetSlowLane(v.Addr(), 150*time.Millisecond)
	}
	// One-way: everyone else loses the path TO these viewers while the
	// viewers' own outbound calls (fetches, re-registrations — which re-advertise
	// them as providers nobody can actually reach) keep flowing.
	var others, onewayDst []string
	for i, nd := range s.Nodes {
		if v := i - 1; v >= stallN+slowN && v < stallN+slowN+oneN {
			onewayDst = append(onewayDst, nd.Addr())
		} else {
			others = append(others, nd.Addr())
		}
	}
	in.OneWay(others, onewayDst)

	// Gray viewers count too: their outbound data path still works.
	awaitResolved(s, 2*time.Minute, chunks)
	wall := time.Since(start)

	tot := live.SumStats(s.Nodes)
	fetch := s.Snapshot().Histograms["dco_live_chunk_fetch_seconds"]
	res := &grayRunResult{
		Backend:          backend,
		Hedge:            hedge,
		WallSeconds:      wall.Seconds(),
		DeliveredPercent: live.MinDelivered(viewers, chunks),
		Fetches:          fetch.Count,
		FetchP50:         live.HistQuantile(fetch, 0.50),
		FetchP95:         live.HistQuantile(fetch, 0.95),
		FetchP99:         live.HistQuantile(fetch, 0.99),
		HedgesLaunched:   tot.HedgesLaunched,
		HedgeWins:        tot.HedgeWins,
		HedgesCancelled:  tot.HedgesCancelled,
		DeadlineSheds:    tot.DeadlineSheds,
		SuspectedPeers:   tot.SuspectedPeers,
		LookupFailures:   tot.LookupFailures,
		ChunksAbandoned:  tot.ChunksAbandoned,
		Injected:         in.Injected(),
	}
	// The wedge check: every node — gray ones included — must close inside
	// the grace window. A fetch worker stuck past every deadline shows up
	// here as a hung Close.
	res.WedgedWorkers = s.Close()
	return res, nil
}

// runGrayChaos executes the gray-failure soak on both backends.
func runGrayChaos(a liveArgs) (any, error) {
	n, chunks, seed := a.n, a.chunks, a.seed
	if n < 24 {
		fmt.Printf("graychaos: raising n=%d to the scenario floor of 24\n", n)
		n = 24
	}
	res := grayChaosResult{Method: "graychaos", N: n, Chunks: chunks, Seed: seed, P99CutPercent: map[string]float64{}}
	for _, backend := range []string{"chord", "kademlia"} {
		var off, on *grayRunResult
		for _, hedge := range []bool{false, true} {
			fmt.Printf("--- backend=%s hedge=%v n=%d chunks=%d (slow lanes + mid-frame stalls + one-way partitions at t/3)\n",
				backend, hedge, n, chunks)
			r, err := runGrayRun(backend, hedge, n, chunks, seed)
			if err != nil {
				return nil, fmt.Errorf("backend %s hedge=%v: %w", backend, hedge, err)
			}
			fmt.Printf("wall time:              %v\n", time.Duration(r.WallSeconds*float64(time.Second)).Round(time.Millisecond))
			fmt.Printf("delivered (min viewer): %.2f%%\n", r.DeliveredPercent)
			fmt.Printf("fetches:                %d (p50=%.3fs p95=%.3fs p99=%.3fs)\n", r.Fetches, r.FetchP50, r.FetchP95, r.FetchP99)
			fmt.Printf("hedges:                 launched=%d wins=%d cancelled=%d\n", r.HedgesLaunched, r.HedgeWins, r.HedgesCancelled)
			fmt.Printf("deadline sheds:         %d  suspected peers: %d  lookup failures: %d  abandoned: %d\n",
				r.DeadlineSheds, r.SuspectedPeers, r.LookupFailures, r.ChunksAbandoned)
			fmt.Printf("wedged workers:         %d  injected faults: %d\n", r.WedgedWorkers, r.Injected)
			if hedge {
				on = r
			} else {
				off = r
			}
			res.Runs = append(res.Runs, *r)
		}
		cut := 0.0
		if off.FetchP99 > 0 {
			cut = 100 * (off.FetchP99 - on.FetchP99) / off.FetchP99
		}
		res.P99CutPercent[backend] = cut
		fmt.Printf("=== backend=%s p99 fetch latency: hedge-off %.3fs → hedge-on %.3fs (cut %.1f%%)\n",
			backend, off.FetchP99, on.FetchP99, cut)
	}

	// Acceptance: the defended runs deliver, nothing wedges anywhere, the
	// faults actually fired, hedging actually engaged, and it bought ≥30%
	// of p99 on both backends.
	var failed []error
	for _, r := range res.Runs {
		if r.Injected == 0 {
			failed = append(failed, fmt.Errorf("backend %s hedge=%v injected no faults; the run tested nothing", r.Backend, r.Hedge))
		}
		if r.WedgedWorkers != 0 {
			failed = append(failed, fmt.Errorf("backend %s hedge=%v left %d wedged workers", r.Backend, r.Hedge, r.WedgedWorkers))
		}
		if r.Hedge && (r.DeliveredPercent < 95 || r.HedgesLaunched == 0) {
			failed = append(failed, fmt.Errorf("backend %s failed acceptance (delivered=%.2f hedges=%d)",
				r.Backend, r.DeliveredPercent, r.HedgesLaunched))
		}
	}
	for _, backend := range []string{"chord", "kademlia"} {
		if cut := res.P99CutPercent[backend]; cut < 30 {
			failed = append(failed, fmt.Errorf("backend %s p99 cut %.1f%% < 30%%", backend, cut))
		}
	}
	return res, errors.Join(failed...)
}
