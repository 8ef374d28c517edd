package experiment

import (
	"time"
)

// NeighborSweep is the paper's x axis for Figs. 5, 6 and 8: 8..64 step 8.
var NeighborSweep = []int{8, 16, 24, 32, 40, 48, 56, 64}

// neighborSweep fills r with one row per NeighborSweep count: y of a
// static run of each series at that count (Figs. 5, 6 and 8).
func neighborSweep(p Params, r *Result, y func(Outcome) float64) *Result {
	for _, nb := range NeighborSweep {
		row := Row{X: float64(nb), Y: map[Method]float64{}}
		for _, m := range r.Series {
			row.Y[m] = y(Run(p.spec(m, nb)))
		}
		r.Rows = append(r.Rows, row)
	}
	r.sortRows()
	return r
}

// Fig5 — mesh delay vs. number of neighbors per node. Series include both
// tree settings: "tree" (out-degree = neighbors/8) and "tree*" (out-degree
// = the full neighbor count), exactly as the paper plots them.
func Fig5(p Params) *Result {
	p.fill(512, 100, 400*time.Second)
	r := &Result{
		Figure: "Fig. 5",
		Title:  "Mesh delay vs. number of neighbors per node",
		XLabel: "neighbors",
		YLabel: "mesh delay (s)",
		Series: []Method{MethodDCO, MethodPull, MethodPush, MethodTree, MethodTreeX},
	}
	return neighborSweep(p, r, func(o Outcome) float64 { return meshDelayCapped(o.Log, p.Horizon) })
}

// Fig6 — fill ratio measured two seconds after each chunk's generation,
// vs. number of neighbors.
func Fig6(p Params) *Result {
	return FillDelta(p, 2*time.Second)
}

// FillDelta is Fig. 6 generalized to any measurement offset; the 2 s the
// paper uses sits below this substrate's minimum transfer time for most of
// the swarm, so EXPERIMENTS.md also reports larger offsets where the
// series separate.
func FillDelta(p Params, delta time.Duration) *Result {
	p.fill(512, 100, 400*time.Second)
	r := &Result{
		Figure: "Fig. 6",
		Title:  "Fill ratio " + delta.String() + " after generation vs. number of neighbors",
		XLabel: "neighbors",
		YLabel: "fill ratio",
		Series: AllMethods,
	}
	return neighborSweep(p, r, func(o Outcome) float64 { return o.Log.MeanFillRatioAfter(delta) })
}

// Fig7 — fill ratio vs. elapsed time, measured every second from the
// moment the server finishes generating (the paper: from the 100-second
// mark). Neighbors fixed at 32 (tree at 3, its default).
func Fig7(p Params) *Result {
	p.fill(512, 100, 400*time.Second)
	neighbors := 32
	genEnd := time.Duration(p.Chunks) * time.Second
	samples := 14
	r := &Result{
		Figure: "Fig. 7",
		Title:  "Fill ratio vs. elapsed time (neighbors=32, tree out-degree=3)",
		XLabel: "time (s)",
		YLabel: "fill ratio",
		Series: AllMethods,
	}
	rows := make([]Row, samples)
	for i := range rows {
		rows[i] = Row{X: (genEnd + time.Duration(i)*time.Second).Seconds(), Y: map[Method]float64{}}
	}
	for _, m := range r.Series {
		o := Run(p.spec(m, neighbors))
		for i := range rows {
			at := genEnd + time.Duration(i)*time.Second
			rows[i].Y[m] = o.Log.MeanFillRatioAt(at)
		}
	}
	r.Rows = rows
	r.sortRows()
	return r
}

// Fig8 — total extra overhead (for everyone to receive all chunks) vs.
// number of neighbors. Tree is zero by construction.
func Fig8(p Params) *Result {
	p.fill(512, 100, 400*time.Second)
	r := &Result{
		Figure: "Fig. 8",
		Title:  "Extra overhead vs. number of neighbors per node",
		XLabel: "neighbors",
		YLabel: "messages",
		Series: AllMethods,
	}
	return neighborSweep(p, r, func(o Outcome) float64 { return float64(o.Net.Overhead()) })
}

// Fig9 — extra overhead vs. number of participants (neighbors fixed at 32).
func Fig9(p Params) *Result {
	p.fill(0, 100, 400*time.Second) // N unused: the sweep sets it
	sizes := []int{128, 256, 384, 512, 640, 768, 896, 1024}
	if p.N != 0 {
		// Scaled-down sweeps (tests/benchmarks) build sizes around N.
		sizes = []int{p.N / 4, p.N / 2, 3 * p.N / 4, p.N}
	}
	r := &Result{
		Figure: "Fig. 9",
		Title:  "Extra overhead vs. number of participants (neighbors=32)",
		XLabel: "nodes",
		YLabel: "messages",
		Series: AllMethods,
	}
	for _, n := range sizes {
		if n < 4 {
			continue
		}
		row := Row{X: float64(n), Y: map[Method]float64{}}
		for _, m := range r.Series {
			spec := p.spec(m, 32)
			spec.N = n
			row.Y[m] = float64(Run(spec).Net.Overhead())
		}
		r.Rows = append(r.Rows, row)
	}
	r.sortRows()
	return r
}

// Fig10 — cumulative extra overhead vs. elapsed time (neighbors=32).
func Fig10(p Params) *Result {
	p.fill(512, 100, 400*time.Second)
	samples := 10
	r := &Result{
		Figure: "Fig. 10",
		Title:  "Extra overhead vs. elapsed time (neighbors=32)",
		XLabel: "time (s)",
		YLabel: "messages (cumulative)",
		Series: AllMethods,
	}
	step := p.Horizon / time.Duration(samples)
	rows := make([]Row, samples)
	for i := range rows {
		rows[i] = Row{X: (time.Duration(i+1) * step).Seconds(), Y: map[Method]float64{}}
	}
	for _, m := range r.Series {
		o := Run(p.spec(m, 32))
		var cum float64
		sec := int64(0)
		for i := range rows {
			until := int64((time.Duration(i+1) * step) / time.Second)
			for ; sec < until; sec++ {
				cum += float64(o.Net.OverheadAtSecond(sec))
			}
			rows[i].Y[m] = cum
		}
	}
	r.Rows = rows
	r.sortRows()
	return r
}

// Fig11 — percentage of received chunks vs. allowed dissemination time,
// under churn with 60 s mean lifetime (200 chunks, horizons 200..300 s).
func Fig11(p Params) *Result {
	p.fill(512, 200, 300*time.Second)
	r := &Result{
		Figure: "Fig. 11",
		Title:  "% received chunks vs. dissemination time (mean life 60 s)",
		XLabel: "time (s)",
		YLabel: "% received",
		Series: AllMethods,
	}
	lo := p.Horizon - 100*time.Second
	if lo < 0 {
		lo = p.Horizon / 2
	}
	var horizons []time.Duration
	for h := lo; h <= p.Horizon; h += 10 * time.Second {
		horizons = append(horizons, h)
	}
	rows := make([]Row, len(horizons))
	for i, h := range horizons {
		rows[i] = Row{X: h.Seconds(), Y: map[Method]float64{}}
	}
	for _, m := range r.Series {
		spec := p.spec(m, 32)
		spec.ChurnLife = 60 * time.Second
		o := Run(spec)
		for i, h := range horizons {
			rows[i].Y[m] = o.Log.ReceivedPercent(h)
		}
	}
	r.Rows = rows
	r.sortRows()
	return r
}

// Fig12 — percentage of received chunks vs. mean node lifetime (60..120 s).
func Fig12(p Params) *Result {
	p.fill(512, 200, 300*time.Second)
	r := &Result{
		Figure: "Fig. 12",
		Title:  "% received chunks vs. mean node lifetime",
		XLabel: "mean life (s)",
		YLabel: "% received",
		Series: AllMethods,
	}
	for life := 60 * time.Second; life <= 120*time.Second; life += 10 * time.Second {
		row := Row{X: life.Seconds(), Y: map[Method]float64{}}
		for _, m := range r.Series {
			spec := p.spec(m, 32)
			spec.ChurnLife = life
			row.Y[m] = Run(spec).Log.ReceivedPercent(p.Horizon)
		}
		r.Rows = append(r.Rows, row)
	}
	r.sortRows()
	return r
}

// Figures maps figure identifiers to their runners. "H" is this
// reproduction's own experiment (adaptive DHT size, §III-B1b), not a paper
// figure.
var Figures = map[string]func(Params) *Result{
	"5":  Fig5,
	"6":  Fig6,
	"7":  Fig7,
	"8":  Fig8,
	"9":  Fig9,
	"10": Fig10,
	"11": Fig11,
	"12": Fig12,
	"H":  HierarchyGrowth,
}

// FigureOrder lists the identifiers in paper order.
var FigureOrder = []string{"5", "6", "7", "8", "9", "10", "11", "12"}
