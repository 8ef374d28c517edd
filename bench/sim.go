package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"dco/internal/churn"
	"dco/internal/core"
	"dco/internal/metrics"
	"dco/internal/overlay"
	"dco/internal/sim"
	"dco/internal/simnet"
)

// The simulator workload runs three phases at the paper's scale (n = 512,
// 32 neighbours): DCO on a static network, the pull-mesh baseline at the
// same size, and DCO under churn. None of the live stack runs.
const (
	simNodes     = 512
	simNeighbors = 32
	simChunks    = 100
	simHorizon   = 400 * time.Second
	churnChunks  = 200
	churnLife    = 60 * time.Second
	churnHorizon = 300 * time.Second
)

var simPhases = []string{"dco", "pull", "churn"}

// setupSamples is how many times the simulator's set-up, building the three
// systems (milliseconds each), is repeated before the window opens; the
// median is reported.
const setupSamples = 9

// simStats is what one phase produced inside the simulation. Every field
// is a function of the seed alone: two runs of one commit must agree on
// all of them exactly, and a simulator speed-up must leave them untouched.
type simStats struct {
	Events       uint64  `json:"events"`
	Deliveries   int64   `json:"deliveries"`
	EndSeconds   float64 `json:"end_seconds"`
	MeshDelaySec float64 `json:"mesh_delay_seconds"`
	OverheadMsgs uint64  `json:"overhead_msgs"`
	ReceivedPct  float64 `json:"received_pct"`
}

// simCost is what one phase cost the host.
type simCost struct {
	from, to   time.Time
	cpu        time.Duration
	allocBytes uint64
	allocs     uint64
}

func (c simCost) wall() time.Duration { return c.to.Sub(c.from) }

// buildSimPhase constructs one phase's system and returns the function
// that runs it to completion. The kernel seed is the run seed offset by the
// phase, so phases do not share a random stream.
func buildSimPhase(phase string, seed int64) (run func() simStats) {
	k := sim.NewKernel(seed)
	finish := func(end time.Duration, deliveries int64, log *metrics.DeliveryLog, net *simnet.Network, horizon time.Duration) simStats {
		mean, _, _ := log.MeshDelay()
		return simStats{Events: k.Fired(), Deliveries: deliveries, EndSeconds: end.Seconds(), MeshDelaySec: mean.Seconds(),
			OverheadMsgs: net.Overhead(), ReceivedPct: log.ReceivedPercent(horizon)}
	}
	switch phase {
	case "dco", "churn":
		cfg := core.DefaultConfig()
		cfg.Neighbors = simNeighbors
		cfg.Stream.Count = simChunks
		horizon := simHorizon
		if phase == "churn" {
			cfg.Stream.Count = churnChunks
			cfg.Maintenance = true
			horizon = churnHorizon
		}
		s := core.NewSystem(k, cfg, simNodes)
		if phase == "churn" {
			s.DisableCompletionStop()
			d := churn.NewDriver(k, churn.Config{MeanLife: churnLife, MeanJoin: churnLife / time.Duration(simNodes-1), GracefulFrac: 0.5},
				func() churn.Peer { return s.SpawnPeer() })
			for _, p := range s.Peers() {
				if p.Alive() && p.ID() != s.Server().ID() {
					d.Track(p)
				}
			}
			d.StartArrivals()
		}
		return func() simStats { return finish(s.Run(horizon), s.ReceivedTotal(), s.Log, s.Net, horizon) }
	case "pull":
		cfg := overlay.DefaultConfig(overlay.Pull)
		cfg.Neighbors = simNeighbors
		cfg.Stream.Count = simChunks
		s := overlay.NewSystem(k, cfg, simNodes)
		return func() simStats { return finish(s.Run(simHorizon), s.ReceivedTotal(), s.Log, s.Net, simHorizon) }
	}
	panic("bench: unknown sim phase " + phase)
}

// runSimPhase builds and runs one phase and reports what it cost.
func runSimPhase(phase string, seed int64, sampler *windowSampler) (simStats, simCost) {
	var cost simCost
	var ms0, ms1 runtime.MemStats
	run := buildSimPhase(phase, seed)
	runtime.ReadMemStats(&ms0)
	c0 := sampler.cpu()
	cost.from = time.Now()
	st := run()
	cost.to = time.Now()
	cost.cpu = sampler.cpu() - c0
	runtime.ReadMemStats(&ms1)
	cost.allocBytes, cost.allocs = ms1.TotalAlloc-ms0.TotalAlloc, ms1.Mallocs-ms0.Mallocs
	return st, cost
}

// goldens are the simulated results stored per seed in goldens.json: seed
// -> phase name -> stats. A seed without an entry is checked only for
// agreement between the repeats inside one run.
//
//go:embed goldens.json
var goldensJSON []byte

func loadGoldens() (map[string]map[string]simStats, error) {
	var g map[string]map[string]simStats
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		return nil, fmt.Errorf("goldens.json: %w", err)
	}
	return g, nil
}

// runSim cycles through the phases until `seconds` have passed and every
// phase ran at least once. Host costs are the per-phase medians over the
// repeats, so a run that fits one more DCO phase than another still reports
// the same figure.
func runSim(seed int64, seconds int) RunResult {
	res := RunResult{Workload: "sim_paper512", Seed: seed, Seconds: seconds, Metrics: Metrics{}}
	m := res.Metrics
	fail := func(format string, args ...any) {
		res.Invalid = append(res.Invalid, fmt.Sprintf(format, args...))
	}

	// Set-up is process start -> the three systems built, as on the live
	// workloads; the builds, the one part of it that can be repeated, are.
	preamble := time.Since(processStart).Seconds()
	builds := make([]float64, 0, setupSamples)
	for rep := 0; rep < setupSamples; rep++ {
		// Each sample starts, as a fresh process does, without the garbage
		// of the one before; the collector runs during the build as usual.
		runtime.GC()
		t0 := time.Now()
		for i, p := range simPhases {
			buildSimPhase(p, seed+int64(i))
		}
		builds = append(builds, time.Since(t0).Seconds())
	}

	stats := make(map[string]simStats)
	costs := make(map[string][]simCost)
	sampler := startWindowSampler()
	begin := time.Now()
	for i := 0; ; i++ {
		phase := simPhases[i%len(simPhases)]
		if i >= len(simPhases) && time.Since(begin) >= time.Duration(seconds)*time.Second {
			break
		}
		st, cost := runSimPhase(phase, seed+int64(i%len(simPhases)), sampler)
		if prev, ok := stats[phase]; ok && prev != st {
			fail("%s phase did not repeat exactly: %+v then %+v", phase, prev, st)
		}
		stats[phase] = st
		costs[phase] = append(costs[phase], cost)
	}
	sampler.finish()

	med := func(phase string, f func(simCost) float64) float64 {
		v := make([]float64, 0, len(costs[phase]))
		for _, c := range costs[phase] {
			v = append(v, f(c))
		}
		return median(v)
	}
	var wall, cpu, allocBytes, allocs, events, deliveries, simSeconds float64
	reps := 0
	for _, p := range simPhases {
		wall += med(p, func(c simCost) float64 { return c.wall().Seconds() })
		cpu += med(p, func(c simCost) float64 { return sampler.inRef(c.cpu, c.from, c.to).Seconds() })
		allocBytes += med(p, func(c simCost) float64 { return float64(c.allocBytes) })
		allocs += med(p, func(c simCost) float64 { return float64(c.allocs) })
		events += float64(stats[p].Events)
		deliveries += float64(stats[p].Deliveries)
		simSeconds += stats[p].EndSeconds
		reps += len(costs[p])
	}
	sort.Float64s(builds)
	res.Notes = append(res.Notes, fmt.Sprintf("set-up: %.1f ms to reach the workload, then builds of %.1f..%.1f ms", preamble*1e3, builds[0]*1e3, builds[len(builds)-1]*1e3))
	res.Notes = append(res.Notes, fmt.Sprintf("%d phase runs (dco %d, pull %d, churn %d)", reps, len(costs["dco"]), len(costs["pull"]), len(costs["churn"])))

	// A "chunk" here is one simulated (peer, chunk) delivery; CPU time is in
	// reference microseconds (see windowSampler).
	m.set("setup_s", preamble+median(builds), setupSamples)
	m.set("cpu_us_per_chunk", cpu*1e6/deliveries, int(deliveries))
	m.set("alloc_bytes_per_chunk", allocBytes/deliveries, int(deliveries))
	m.set("allocs_per_chunk", allocs/deliveries, int(deliveries))
	m.set("runtime.ref_kernel_us", float64(sampler.refCost(0, len(sampler.ticks)))/1e3, len(sampler.ticks))
	m.set("sim_events_per_s", events/wall, int(events))
	m.set("sim_host_ms_per_sim_s", wall*1e3/simSeconds, reps)
	for _, p := range simPhases {
		m.set("sim."+p+".host_s", med(p, func(c simCost) float64 { return c.wall().Seconds() }), len(costs[p]))
		m.set("sim."+p+".events", float64(stats[p].Events), 0)
	}
	m.set("sim.dco.alloc_bytes_per_event", med("dco", func(c simCost) float64 { return float64(c.allocBytes) })/float64(stats["dco"].Events), int(stats["dco"].Events))
	m.set("core.dco.mesh_delay_s", stats["dco"].MeshDelaySec, 0)
	m.set("core.dco.overhead_msgs", float64(stats["dco"].OverheadMsgs), 0)
	m.set("overlay.pull.overhead_msgs", float64(stats["pull"].OverheadMsgs), 0)
	m.set("core.churn.received_pct", stats["churn"].ReceivedPct, 0)

	// Static phases deliver every chunk to every viewer or have failed;
	// under churn peers die mid-stream, so its shortfall is not a failure.
	perPhase := int64(simNodes-1) * simChunks
	res.Attempted = 2 * perPhase
	res.Failed = 2*perPhase - stats["dco"].Deliveries - stats["pull"].Deliveries
	if res.Failed != 0 {
		fail("static phases delivered %d of %d", res.Attempted-res.Failed, res.Attempted)
	}
	g, err := loadGoldens()
	if err != nil {
		fail("goldens: %v", err)
	} else if want, ok := g[fmt.Sprint(seed)]; ok {
		for _, p := range simPhases {
			if want[p] != stats[p] {
				fail("%s phase differs from the golden for seed %d: got %+v, want %+v", p, seed, stats[p], want[p])
			}
		}
	} else {
		res.Notes = append(res.Notes, fmt.Sprintf("no golden for seed %d: simulated results checked between repeats only", seed))
	}
	res.Sim = stats
	m.set("peak_rss_mb", peakRSSMB(), 1)
	return res
}
