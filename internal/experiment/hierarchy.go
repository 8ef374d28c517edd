package experiment

import (
	"time"

	"dco/internal/churn"
	"dco/internal/core"
	"dco/internal/sim"
)

// HierarchyGrowth exercises §III-B1b's claim that "the network size of the
// DHT is not fixed — it adapts to the actual load in the system": a
// hierarchical deployment starts with a handful of coordinators, viewers
// keep arriving, coordinators overload, and stable clients are promoted
// into the ring. The result tracks upper-tier size and viewer population
// over time.
func HierarchyGrowth(p Params) *Result {
	p.fill(48, 200, 300*time.Second)
	cfg := core.DefaultConfig()
	cfg.Stream.Count = p.Chunks
	cfg.Neighbors = 8
	cfg.Maintenance = true
	cfg.Hierarchy.Enabled = true
	cfg.Hierarchy.InitialCoordinators = 4
	cfg.Hierarchy.OverloadOpsPerSec = 120
	cfg.Hierarchy.LongevityThreshold = 0.6

	k := sim.NewKernel(p.Seed)
	s := core.NewSystem(k, cfg, p.N)
	s.DisableCompletionStop()

	// Arrivals only (no departures): the population ramps up and the
	// upper tier must grow with it.
	d := churn.NewDriver(k, churn.Config{
		MeanLife: 100 * time.Hour, // effectively immortal
		MeanJoin: 2 * time.Second,
	}, func() churn.Peer { return s.SpawnPeer() })
	d.StartArrivals()

	r := &Result{
		Figure: "Exp. H",
		Title:  "Adaptive DHT size: coordinators promoted as load grows (§III-B1b)",
		XLabel: "time (s)",
		YLabel: "count",
		Series: []Method{"coordinators", "viewers"},
	}
	sample := 10 * time.Second
	for ts := sample; ts <= p.Horizon; ts += sample {
		ts := ts
		k.At(ts, func() {
			r.Rows = append(r.Rows, Row{X: ts.Seconds(), Y: map[Method]float64{
				"coordinators": float64(len(s.Coordinators())),
				"viewers":      float64(s.AlivePeers() - 1),
			}})
		})
	}
	s.Run(p.Horizon)
	r.sortRows()
	return r
}
