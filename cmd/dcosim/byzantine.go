package main

// The "byzantine" method is the pollution soak: the real node stack on
// both DHT backends with 25% of the swarm adversarial — persistent chunk
// poisoners, every-3rd poisoners, a lying load reporter, and an active
// index spammer flooding coordinators with bogus registrations. The run
// is judged on the pollution-defense invariants: honest viewers still
// deliver (≥95%), not one polluted chunk is accepted into any buffer
// (the choke point is absolute), every poisoner ends up quarantined by
// the honest swarm, and the index hardening visibly fired (integrity
// rejects, rate-limited inserts). This is what
// `dcosim -method byzantine -json <file>` writes.

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"dco/internal/faulty"
	"dco/internal/live"
	"dco/internal/transport"
	"dco/internal/wire"
)

// byzRunResult is one backend column. Field names are stable —
// reports written with -json and CI trend checks parse them.
type byzRunResult struct {
	Backend                string  `json:"backend"`
	WallSeconds            float64 `json:"wall_seconds"`
	DeliveredPercentHonest float64 `json:"delivered_percent_honest"` // min over honest viewers

	Fetches  uint64  `json:"fetches"`
	FetchP50 float64 `json:"fetch_p50_seconds"`
	FetchP95 float64 `json:"fetch_p95_seconds"`
	FetchP99 float64 `json:"fetch_p99_seconds"`

	IntegrityRejects   uint64   `json:"integrity_rejects"`
	PollutedAccepted   int      `json:"polluted_accepted"` // sum of VerifyBuffered over every node
	PeersQuarantined   uint64   `json:"peers_quarantined"`
	PoisonersCaught    int      `json:"poisoners_caught"` // poisoners in some honest node's quarantine log
	PoisonersTotal     int      `json:"poisoners_total"`
	QuarantinedUnion   []string `json:"quarantined_union"`
	InsertsRateLimited uint64   `json:"inserts_rate_limited"`
	InsertsRejected    uint64   `json:"inserts_rejected"`
	PollutionReports   uint64   `json:"pollution_reports"`
	LoadReportsClamped uint64   `json:"load_reports_clamped"`
	WedgedWorkers      int      `json:"wedged_workers"`
	Injected           uint64   `json:"injected"`
}

// byzantineResult is the -json schema of a byzantine run.
type byzantineResult struct {
	Method      string         `json:"method"`
	N           int            `json:"n"`
	Adversarial int            `json:"adversarial"`
	Chunks      int64          `json:"chunks"`
	Seed        int64          `json:"seed"`
	Runs        []byzRunResult `json:"runs"`
}

// runByzantineRun executes the shared scenario on one backend.
func runByzantineRun(backend string, n int, chunks, seed int64) (*byzRunResult, error) {
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
	cfg.FetchDeadlineChunks = 200
	// Pollution-defense knobs: a modest insert rate is still far above
	// honest re-registration traffic per coordinator, and the provider cap
	// backstops entry growth while leaving room for the whole swarm — a
	// tight cap would let the early-registrant elite crowd everyone else
	// (the adversaries included) out of the serve rotation entirely.
	cfg.MaxProvidersPerSeq = 32
	cfg.InsertRate = 50
	// Constrain upload so the source cannot serve the swarm alone (at the
	// default budget it can, and the adversarial providers never see a
	// request). ~15 chunk serves per period per node forces real
	// peer-to-peer serving — the regime pollution defense exists for.
	cfg.UpBps = 2_000_000

	in := faulty.NewInjector(uint64(seed))
	s, err := live.NewSwarm(live.SwarmSpec{N: n, Base: cfg, Crowd: true, Wrap: in.Wrap})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	viewers, all := s.Viewers(), s.Nodes

	// The adversarial cohort: 25% of n. Five byzantine node roles on the
	// first viewers in arrival order (deterministic), plus one active index
	// spammer that is a bare fabric endpoint, not a node. The source stays
	// honest — it is the only origin of chunks, and a poisoning source
	// tests chunk scarcity, not pollution defense.
	if len(viewers) < 8 {
		return nil, fmt.Errorf("n=%d too small for the byzantine cohort", n)
	}
	poisoners, liar, honest := viewers[:4], viewers[4], viewers[5:]
	for _, p := range poisoners[:2] {
		in.SetPoisoner(p.Addr(), 1) // persistent
	}
	for _, p := range poisoners[2:] {
		in.SetPoisoner(p.Addr(), 3) // every 3rd serve
	}
	in.SetLoadLiar(liar.Addr(), true)

	start := time.Now()
	if err := s.Up(); err != nil {
		return nil, err
	}

	// The index spammer: a bare endpoint flooding bogus registrations for
	// live and future seqs at every node (non-owners nack them; the owner
	// pays the rate-limit check). One fake holder identity keeps all the
	// spam inside one token bucket per coordinator, concentrated enough to
	// blow through the per-holder rate on the owners of popular keys.
	spamTr, err := s.Attach(transport.HandlerFunc(func(string, wire.Message) wire.Message {
		return &wire.Error{Code: wire.CodeBadRequest, Msg: "spammer serves nothing"}
	}))
	if err != nil {
		return nil, err
	}
	defer spamTr.Close()
	targets := make([]string, 0, len(all))
	for _, nd := range all {
		targets = append(targets, nd.Addr())
	}
	stopSpam := make(chan struct{})
	spamDone := make(chan struct{})
	go func() {
		defer close(spamDone)
		faulty.SpamInserts(stopSpam, spamTr, faulty.SpamConfig{
			Targets:  targets,
			KeyFor:   func(seq int64) uint64 { return uint64(cfg.Channel.Ref(seq).ID()) },
			Seqs:     func(i int) int64 { return int64(i) % (2 * chunks) },
			Holders:  []wire.Entry{{ID: 0xE1, Addr: "byz-spam:1"}},
			Interval: 5 * time.Millisecond,
			Burst:    8,
		})
	}()

	// Adversarial viewers resolve too: their inbound path is clean, only
	// what they serve is bent.
	awaitResolved(s, 3*time.Minute, chunks)
	wall := time.Since(start)
	close(stopSpam)
	<-spamDone

	// Coordinator-side state lives wherever the key (or report rendezvous)
	// owner is — sum over everyone, the quarantine union included: the
	// adversarial nodes run unmodified coordinator code (the injector only
	// bends what they serve), so their quarantine verdicts are the honest
	// defense working, not the adversary's word.
	tot, honestTot := live.SumStats(all), live.SumStats(honest)
	fetch := s.Snapshot().Histograms["dco_live_chunk_fetch_seconds"]
	res := &byzRunResult{
		Backend:                backend,
		WallSeconds:            wall.Seconds(),
		DeliveredPercentHonest: live.MinDelivered(honest, chunks),
		Fetches:                fetch.Count,
		FetchP50:               live.HistQuantile(fetch, 0.50),
		FetchP95:               live.HistQuantile(fetch, 0.95),
		FetchP99:               live.HistQuantile(fetch, 0.99),
		IntegrityRejects:       honestTot.IntegrityRejects,
		PeersQuarantined:       tot.PeersQuarantined,
		PoisonersTotal:         len(poisoners),
		InsertsRateLimited:     tot.InsertsRateLimited,
		InsertsRejected:        tot.InsertsRejected,
		PollutionReports:       tot.PollutionReportsSeen,
		LoadReportsClamped:     honestTot.LoadReportsClamped,
		Injected:               in.Injected(),
	}
	// The absolute gate: nothing polluted in any buffer, anywhere — the
	// adversarial nodes' own buffers included (they fetch clean bytes; the
	// injector bends only what they serve).
	quarUnion := map[string]bool{}
	for _, nd := range all {
		res.PollutedAccepted += nd.VerifyBuffered()
		for _, a := range nd.EverQuarantined() {
			quarUnion[a] = true
		}
	}
	for a := range quarUnion {
		res.QuarantinedUnion = append(res.QuarantinedUnion, a)
	}
	sort.Strings(res.QuarantinedUnion)
	// Per-poisoner exposure: how many poisoned serves each actually landed
	// and on how many distinct victims — the raw material for quarantine.
	// PoisonStats, not History: the soak's call volume floods the bounded
	// history log with Pass records, evicting early Poisoned entries.
	stats := in.PoisonStats()
	for _, p := range poisoners {
		if quarUnion[p.Addr()] {
			res.PoisonersCaught++
		}
		total := 0
		for _, k := range stats[p.Addr()] {
			total += k
		}
		fmt.Printf("  poisoner %s: %d poisoned serves to %d distinct victims (quarantined=%v)\n",
			p.Addr(), total, len(stats[p.Addr()]), quarUnion[p.Addr()])
	}
	res.WedgedWorkers = s.Close()
	return res, nil
}

// runByzantine executes the pollution soak on both backends.
func runByzantine(a liveArgs) (any, error) {
	n, chunks, seed := a.n, a.chunks, a.seed
	if n < 24 {
		fmt.Printf("byzantine: raising n=%d to the scenario floor of 24\n", n)
		n = 24
	}
	res := byzantineResult{Method: "byzantine", N: n, Adversarial: 6, Chunks: chunks, Seed: seed}
	for _, backend := range []string{"chord", "kademlia"} {
		fmt.Printf("--- backend=%s n=%d chunks=%d (2 persistent poisoners, 2 every-3rd poisoners, 1 load liar, 1 index spammer)\n",
			backend, n, chunks)
		r, err := runByzantineRun(backend, n, chunks, seed)
		if err != nil {
			return nil, fmt.Errorf("backend %s: %w", backend, err)
		}
		fmt.Printf("wall time:                %v\n", time.Duration(r.WallSeconds*float64(time.Second)).Round(time.Millisecond))
		fmt.Printf("delivered (min honest):   %.2f%%\n", r.DeliveredPercentHonest)
		fmt.Printf("fetches:                  %d (p50=%.3fs p95=%.3fs p99=%.3fs)\n", r.Fetches, r.FetchP50, r.FetchP95, r.FetchP99)
		fmt.Printf("integrity rejects:        %d  polluted accepted: %d\n", r.IntegrityRejects, r.PollutedAccepted)
		fmt.Printf("poisoners quarantined:    %d/%d (union %v)\n", r.PoisonersCaught, r.PoisonersTotal, r.QuarantinedUnion)
		fmt.Printf("inserts rate-limited:     %d  rejected: %d  pollution reports: %d\n",
			r.InsertsRateLimited, r.InsertsRejected, r.PollutionReports)
		fmt.Printf("load reports clamped:     %d\n", r.LoadReportsClamped)
		fmt.Printf("wedged workers:           %d  injected: %d\n", r.WedgedWorkers, r.Injected)
		res.Runs = append(res.Runs, *r)
	}

	// Acceptance: honest delivery holds, the choke point is absolute,
	// every poisoner got caught, the hardening visibly fired, and nothing
	// wedged.
	var failed []error
	for _, r := range res.Runs {
		if r.DeliveredPercentHonest < 95 {
			failed = append(failed, fmt.Errorf("backend %s honest delivery %.2f%% < 95%%", r.Backend, r.DeliveredPercentHonest))
		}
		if r.PollutedAccepted != 0 {
			failed = append(failed, fmt.Errorf("backend %s accepted %d polluted chunks into buffers", r.Backend, r.PollutedAccepted))
		}
		if r.PoisonersCaught < r.PoisonersTotal {
			failed = append(failed, fmt.Errorf("backend %s quarantined only %d/%d poisoners", r.Backend, r.PoisonersCaught, r.PoisonersTotal))
		}
		// No false positives: only the peers that actually served polluted
		// bytes may be quarantined. The load liar and the spammer degrade
		// service but never pollute; honest peers must never be slandered
		// into exclusion.
		if len(r.QuarantinedUnion) > r.PoisonersCaught {
			failed = append(failed, fmt.Errorf("backend %s quarantined a non-poisoner: %v", r.Backend, r.QuarantinedUnion))
		}
		if r.IntegrityRejects == 0 {
			failed = append(failed, fmt.Errorf("backend %s saw no integrity rejects; the poisoners never fired", r.Backend))
		}
		if r.InsertsRateLimited == 0 {
			failed = append(failed, fmt.Errorf("backend %s never rate-limited the spammer", r.Backend))
		}
		if r.WedgedWorkers != 0 {
			failed = append(failed, fmt.Errorf("backend %s left %d wedged workers", r.Backend, r.WedgedWorkers))
		}
	}
	return res, errors.Join(failed...)
}
