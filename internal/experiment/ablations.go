package experiment

import (
	"time"

	"dco/internal/core"
)

// Ablations quantify the design decisions DESIGN.md calls out, beyond the
// paper's own figures. Each returns a Result shaped like the figures so
// cmd/dcofig renders them the same way.

// ablationRun executes one DCO run at 32 neighbors, tuned, and returns
// (mesh delay s, overhead).
func ablationRun(p Params, tune func(*core.Config)) (float64, float64) {
	spec := p.spec(MethodDCO, 32)
	spec.Tune = tune
	o := Run(spec)
	return meshDelayCapped(o.Log, p.Horizon), float64(o.Net.Overhead())
}

// variant names used as pseudo-x values in ablation tables.
const (
	variantBase = 0
	variantAlt  = 1
)

// twoVariant runs the base and the alternative tune (nil: the defaults)
// and tabulates both.
func twoVariant(figure, title, baseName, altName string, p Params, base, alt func(*core.Config)) *Result {
	p.fill(256, 60, 400*time.Second)
	r := &Result{
		Figure: figure,
		Title:  title,
		XLabel: "variant (0=" + baseName + ", 1=" + altName + ")",
		YLabel: "mesh delay (s) / overhead",
		Series: []Method{"delay_s", "overhead"},
	}
	d0, o0 := ablationRun(p, base)
	d1, o1 := ablationRun(p, alt)
	r.Rows = []Row{
		{X: variantBase, Y: map[Method]float64{"delay_s": d0, "overhead": o0}},
		{X: variantAlt, Y: map[Method]float64{"delay_s": d1, "overhead": o1}},
	}
	return r
}

// AblationPendingQueue compares the paper's held-until-answerable lookups
// against a drop-and-retry coordinator.
func AblationPendingQueue(p Params) *Result {
	return twoVariant("Ablation A1", "Coordinator pending queue vs drop-and-retry",
		"queue", "drop", p, nil, func(c *core.Config) { c.PendingQueue = false })
}

// AblationSelection compares bandwidth-aware provider selection against
// random choice, on a heterogeneous population where the difference shows:
// random selection keeps handing requesters to capacity-starved DSL nodes
// while fiber uplinks idle.
func AblationSelection(p Params) *Result {
	hetero := func(c *core.Config) { c.PeerClasses = core.HeterogeneousClasses() }
	return twoVariant("Ablation A2", "Provider selection on a heterogeneous population (least-loaded vs random)",
		"least-loaded", "random", p, hetero, func(c *core.Config) {
			hetero(c)
			c.Selection = core.SelectRandom
		})
}

// AblationFingers compares the evaluation's successor-list-only routing
// with full Chord finger routing at a sparse neighbor count.
func AblationFingers(p Params) *Result {
	sparse := func(c *core.Config) { c.Neighbors = 8 }
	return twoVariant("Ablation A3", "Routing tables at 8 neighbors (successor list vs fingers)",
		"successor-list", "fingers", p, sparse, func(c *core.Config) {
			sparse(c)
			c.UseFingers = true
		})
}

// AblationPrefetch compares Eq. (2)'s adaptive prefetching window against a
// fixed narrow window.
func AblationPrefetch(p Params) *Result {
	return twoVariant("Ablation A4", "Adaptive prefetching window (Eq. 2) vs fixed 4-chunk window",
		"adaptive", "fixed-4", p, nil, func(c *core.Config) {
			c.Prefetch.MinWindow = 4
			c.Prefetch.MaxWindow = 4
		})
}

// Ablations maps ablation identifiers to runners (dcofig -ablation).
var Ablations = map[string]func(Params) *Result{
	"pending":   AblationPendingQueue,
	"selection": AblationSelection,
	"fingers":   AblationFingers,
	"prefetch":  AblationPrefetch,
}

// AblationOrder lists ablations in DESIGN.md order.
var AblationOrder = []string{"pending", "selection", "fingers", "prefetch"}
