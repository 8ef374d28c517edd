// Benchmarks: one per figure of the paper's evaluation (§IV), each running
// a scaled-down instance of the same workload the figure harness uses (64
// nodes instead of 512) so `go test -bench=.` regenerates every result's
// shape in minutes. Custom metrics report the figure's headline numbers;
// cmd/dcofig reproduces the full-scale tables.
//
// Ablation benchmarks cover the design decisions DESIGN.md calls out:
// coordinator pending queue, provider-selection policy, finger routing, and
// the adaptive prefetching window.
package dco_test

import (
	"testing"
	"time"

	"dco"
	"dco/internal/churn"
	"dco/internal/core"
	"dco/internal/experiment"
	"dco/internal/overlay"
	"dco/internal/sim"
)

func benchParams() experiment.Params {
	return experiment.Params{N: 64, Chunks: 20, Seed: 42, Horizon: 200 * time.Second}
}

// runFigure executes the figure workload once per iteration and reports a
// headline metric from the last run.
func runFigure(b *testing.B, id string, metric string, pick func(*experiment.Result) float64) {
	b.Helper()
	var last *experiment.Result
	for i := 0; i < b.N; i++ {
		r, ok := dco.RunFigure(id, benchParams())
		if !ok {
			b.Fatalf("unknown figure %s", id)
		}
		last = r
	}
	if last != nil {
		b.ReportMetric(pick(last), metric)
	}
}

func at(r *experiment.Result, x float64, m experiment.Method) float64 {
	for _, row := range r.Rows {
		if row.X == x {
			return row.Y[m]
		}
	}
	return -1
}

func lastRow(r *experiment.Result, m experiment.Method) float64 {
	if len(r.Rows) == 0 {
		return -1
	}
	return r.Rows[len(r.Rows)-1].Y[m]
}

// BenchmarkFig05MeshDelay regenerates Fig. 5 (mesh delay vs neighbors).
func BenchmarkFig05MeshDelay(b *testing.B) {
	runFigure(b, "5", "dco_delay_s@32nbrs", func(r *experiment.Result) float64 {
		return at(r, 32, experiment.MethodDCO)
	})
}

// BenchmarkFig06FillRatioNeighbors regenerates Fig. 6 (fill ratio 2 s after
// generation vs neighbors).
func BenchmarkFig06FillRatioNeighbors(b *testing.B) {
	runFigure(b, "6", "dco_fill@32nbrs", func(r *experiment.Result) float64 {
		return at(r, 32, experiment.MethodDCO)
	})
}

// BenchmarkFig07FillRatioTime regenerates Fig. 7 (fill ratio vs elapsed
// time).
func BenchmarkFig07FillRatioTime(b *testing.B) {
	runFigure(b, "7", "dco_fill_final", func(r *experiment.Result) float64 {
		return lastRow(r, experiment.MethodDCO)
	})
}

// BenchmarkFig08OverheadNeighbors regenerates Fig. 8 (overhead vs
// neighbors).
func BenchmarkFig08OverheadNeighbors(b *testing.B) {
	runFigure(b, "8", "dco_msgs@64nbrs", func(r *experiment.Result) float64 {
		return at(r, 64, experiment.MethodDCO)
	})
}

// BenchmarkFig09OverheadScale regenerates Fig. 9 (overhead vs participants).
func BenchmarkFig09OverheadScale(b *testing.B) {
	runFigure(b, "9", "dco_msgs_largestN", func(r *experiment.Result) float64 {
		return lastRow(r, experiment.MethodDCO)
	})
}

// BenchmarkFig10OverheadTime regenerates Fig. 10 (cumulative overhead vs
// time).
func BenchmarkFig10OverheadTime(b *testing.B) {
	runFigure(b, "10", "dco_msgs_final", func(r *experiment.Result) float64 {
		return lastRow(r, experiment.MethodDCO)
	})
}

// BenchmarkFig11ChurnTime regenerates Fig. 11 (% received vs dissemination
// time under churn).
func BenchmarkFig11ChurnTime(b *testing.B) {
	p := benchParams()
	p.Chunks = 40
	p.Horizon = 150 * time.Second
	var last *experiment.Result
	for i := 0; i < b.N; i++ {
		last = experiment.Fig11(p)
	}
	b.ReportMetric(lastRow(last, experiment.MethodDCO), "dco_pct_received")
}

// BenchmarkFig12ChurnLife regenerates Fig. 12 (% received vs mean node
// lifetime).
func BenchmarkFig12ChurnLife(b *testing.B) {
	p := experiment.Params{N: 48, Chunks: 30, Seed: 42, Horizon: 120 * time.Second}
	var last *experiment.Result
	for i := 0; i < b.N; i++ {
		last = experiment.Fig12(p)
	}
	b.ReportMetric(lastRow(last, experiment.MethodDCO), "dco_pct_received")
}

// ---------------------------------------------------------------------------
// Ablations.

func dcoDelay(b *testing.B, mutate func(*dco.Config)) float64 {
	b.Helper()
	cfg := dco.DefaultConfig()
	cfg.Stream.Count = 20
	cfg.Neighbors = 16
	if mutate != nil {
		mutate(&cfg)
	}
	var total float64
	for i := 0; i < b.N; i++ {
		k := dco.NewKernel(42)
		s := dco.NewDCO(k, cfg, 64)
		s.Run(300 * time.Second)
		mean, _, _ := s.Log.MeshDelay()
		total = mean.Seconds()
	}
	return total
}

// BenchmarkAblationPendingQueue: the paper's always-answered lookups vs a
// drop-and-retry coordinator.
func BenchmarkAblationPendingQueue(b *testing.B) {
	b.Run("queue", func(b *testing.B) {
		b.ReportMetric(dcoDelay(b, nil), "mesh_delay_s")
	})
	b.Run("drop", func(b *testing.B) {
		b.ReportMetric(dcoDelay(b, func(c *dco.Config) { c.PendingQueue = false }), "mesh_delay_s")
	})
}

// BenchmarkAblationSelection: bandwidth-aware provider choice vs random.
func BenchmarkAblationSelection(b *testing.B) {
	b.Run("least-loaded", func(b *testing.B) {
		b.ReportMetric(dcoDelay(b, nil), "mesh_delay_s")
	})
	b.Run("random", func(b *testing.B) {
		b.ReportMetric(dcoDelay(b, func(c *dco.Config) { c.Selection = dco.SelectRandom }), "mesh_delay_s")
	})
}

// BenchmarkAblationFingers: successor-list-only routing (the paper's
// neighbor semantics) vs full Chord finger routing.
func BenchmarkAblationFingers(b *testing.B) {
	run := func(b *testing.B, fingers bool) {
		cfg := dco.DefaultConfig()
		cfg.Stream.Count = 20
		cfg.Neighbors = 8
		cfg.UseFingers = fingers
		var overhead float64
		for i := 0; i < b.N; i++ {
			k := dco.NewKernel(42)
			s := dco.NewDCO(k, cfg, 128)
			s.Run(300 * time.Second)
			overhead = float64(s.Net.Overhead())
		}
		b.ReportMetric(overhead, "overhead_msgs")
	}
	b.Run("successor-list", func(b *testing.B) { run(b, false) })
	b.Run("fingers", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationPrefetchWindow: Eq. (2)'s adaptive window vs a fixed
// narrow window.
func BenchmarkAblationPrefetchWindow(b *testing.B) {
	b.Run("adaptive", func(b *testing.B) {
		b.ReportMetric(dcoDelay(b, nil), "mesh_delay_s")
	})
	b.Run("fixed-4", func(b *testing.B) {
		b.ReportMetric(dcoDelay(b, func(c *dco.Config) {
			c.Prefetch.MinWindow = 4
			c.Prefetch.MaxWindow = 4
		}), "mesh_delay_s")
	})
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the hot substrates.

// BenchmarkKernelEventThroughput measures raw event-loop speed.
func BenchmarkKernelEventThroughput(b *testing.B) {
	k := dco.NewKernel(1)
	var fn func()
	n := 0
	fn = func() {
		n++
		if n < b.N {
			k.After(time.Microsecond, fn)
		}
	}
	b.ResetTimer()
	k.After(0, fn)
	k.Run()
}

// BenchmarkChunkHash measures chunk-name hashing (every Insert/Lookup).
func BenchmarkChunkHash(b *testing.B) {
	ref := dco.ChunkRef{Channel: "CNN", Seq: 0}
	for i := 0; i < b.N; i++ {
		ref.Seq = int64(i)
		_ = ref.ID()
	}
}

// BenchmarkSimBuilds builds, and runs none of, the three systems the
// bench's sim_paper512 workload times as its setup_s: DCO and the pull
// mesh at n = 512 with 32 neighbours, and DCO with maintenance on and a
// churn driver tracking every viewer.
func BenchmarkSimBuilds(b *testing.B) {
	const n, neighbors, life = 512, 32, 60 * time.Second
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dcoCfg := core.DefaultConfig()
		dcoCfg.Neighbors = neighbors
		dcoCfg.Stream.Count = 100
		core.NewSystem(sim.NewKernel(42), dcoCfg, n)

		pullCfg := overlay.DefaultConfig(overlay.Pull)
		pullCfg.Neighbors = neighbors
		pullCfg.Stream.Count = 100
		overlay.NewSystem(sim.NewKernel(43), pullCfg, n)

		churnCfg := dcoCfg
		churnCfg.Stream.Count = 200
		churnCfg.Maintenance = true
		k := sim.NewKernel(44)
		s := core.NewSystem(k, churnCfg, n)
		s.DisableCompletionStop()
		d := churn.NewDriver(k, churn.Config{MeanLife: life, MeanJoin: life / (n - 1), GracefulFrac: 0.5},
			func() churn.Peer { return s.SpawnPeer() })
		for _, p := range s.Peers() {
			if p.Alive() && p.ID() != s.Server().ID() {
				d.Track(p)
			}
		}
		d.StartArrivals()
	}
}
