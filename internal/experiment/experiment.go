// Package experiment runs the paper's evaluation (§IV, Figs. 5–12). Run
// executes one simulated method from a Spec; each figure sweeps Runs over
// its Params and produces a Result whose rows mirror the paper's plotted
// series.
package experiment

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"dco/internal/churn"
	"dco/internal/core"
	"dco/internal/metrics"
	"dco/internal/overlay"
	"dco/internal/sim"
	"dco/internal/simnet"
	"dco/internal/telemetry"
)

// Method identifies one plotted series.
type Method string

// The paper's four (five, with tree*) methods.
const (
	MethodDCO   Method = "dco"
	MethodPull  Method = "pull"
	MethodPush  Method = "push"
	MethodTree  Method = "tree"  // out-degree = neighbors/8 (default 3)
	MethodTreeX Method = "tree*" // out-degree = full neighbor count
)

// AllMethods is the default series set for the sweeps.
var AllMethods = []Method{MethodDCO, MethodPull, MethodPush, MethodTree}

// Params scales an experiment. Zero values take the paper's defaults; tests
// and benchmarks shrink N / Chunks for speed.
type Params struct {
	N       int           // network size (paper: 512)
	Chunks  int64         // stream length (paper: 100; churn figs: 200)
	Seed    int64         // kernel seed
	Horizon time.Duration // simulation cutoff
}

func (p *Params) fill(defN int, defChunks int64, defHorizon time.Duration) {
	if p.N == 0 {
		p.N = defN
	}
	if p.Chunks == 0 {
		p.Chunks = defChunks
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	if p.Horizon == 0 {
		p.Horizon = defHorizon
	}
}

// Result is one figure's data: a named x-axis and one row per x value with
// a y value per series.
type Result struct {
	Figure string
	Title  string
	XLabel string
	YLabel string
	Series []Method
	Rows   []Row
}

// Row is one x position.
type Row struct {
	X float64
	Y map[Method]float64
}

// Fprint renders the result as an aligned text table.
func (r *Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", r.Figure, r.Title)
	fmt.Fprintf(w, "%-12s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(w, "%14s", string(s))
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12.5g", row.X)
		for _, s := range r.Series {
			fmt.Fprintf(w, "%14.4g", row.Y[s])
		}
		fmt.Fprintln(w)
	}
}

// String renders the table.
func (r *Result) String() string {
	var b strings.Builder
	r.Fprint(&b)
	return b.String()
}

// FprintCSV renders the result as CSV (header row, then one row per x),
// for plotting outside this repository.
func (r *Result) FprintCSV(w io.Writer) {
	fmt.Fprintf(w, "%s", csvEscape(r.XLabel))
	for _, s := range r.Series {
		fmt.Fprintf(w, ",%s", csvEscape(string(s)))
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%g", row.X)
		for _, s := range r.Series {
			fmt.Fprintf(w, ",%g", row.Y[s])
		}
		fmt.Fprintln(w)
	}
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
}

// sortRows keeps rows in x order regardless of completion order.
func (r *Result) sortRows() {
	sort.Slice(r.Rows, func(i, j int) bool { return r.Rows[i].X < r.Rows[j].X })
}

// Spec is one simulated run of one method: the §IV comparison is a sweep
// of these. Run is the one way this repository runs a simulated method.
type Spec struct {
	Method    Method
	N         int           // network size, server included
	Neighbors int           // mesh degree; the trees' out-degree follows from it (see Method.baseline)
	Chunks    int64         // stream length
	Seed      int64         // kernel seed
	Horizon   time.Duration // simulation cutoff

	// ChurnLife, when nonzero, runs §IV-D's churn at this mean lifetime:
	// exponential lifetimes for every viewer, arrivals at the stationary
	// rate (one per ChurnLife/(N−1)), half of departures graceful, DCO's
	// DHT maintenance on, and the run goes on to the horizon.
	ChurnLife time.Duration

	// Tune adjusts DCO's config after the fields above are applied
	// (ablations, dcosim's -fingers and -hierarchy). Baselines ignore it.
	Tune func(*core.Config)

	// Trace, when set, receives DCO's protocol events stamped in virtual
	// time. Baselines ignore it.
	Trace *telemetry.Trace
}

// Outcome is what one run leaves: the metrics' inputs, and the system
// itself for callers that print more. Exactly one of Core and Overlay is
// set.
type Outcome struct {
	Log      *metrics.DeliveryLog
	Net      *simnet.Network
	End      time.Duration // virtual time the run stopped at
	Received int64         // first-receipt chunk deliveries
	Core     *core.System
	Overlay  *overlay.System
	Churn    *churn.Driver // churn runs only
}

// Run builds the kernel and the method's system, wires churn when the spec
// asks for it, and runs to the horizon (a static run stops early once every
// viewer has every chunk).
func Run(spec Spec) Outcome {
	k := sim.NewKernel(spec.Seed)
	var o Outcome
	if spec.Method == MethodDCO {
		cfg := core.DefaultConfig()
		cfg.Neighbors = spec.Neighbors
		cfg.Stream.Count = spec.Chunks
		cfg.Maintenance = spec.ChurnLife > 0
		if spec.Tune != nil {
			spec.Tune(&cfg)
		}
		s := core.NewSystem(k, cfg, spec.N)
		if spec.Trace != nil {
			s.Trace = spec.Trace
			s.Trace.SetClock(func() time.Time { return time.Unix(0, 0).Add(k.Now()) })
		}
		o.Churn = startChurn(k, spec, s)
		o.End = s.Run(spec.Horizon)
		o.Log, o.Net, o.Received, o.Core = s.Log, s.Net, s.ReceivedTotal(), s
	} else {
		kind, degree := spec.Method.baseline(spec.Neighbors)
		cfg := overlay.DefaultConfig(kind)
		cfg.Neighbors = degree
		cfg.Stream.Count = spec.Chunks
		s := overlay.NewSystem(k, cfg, spec.N)
		o.Churn = startChurn(k, spec, s)
		o.End = s.Run(spec.Horizon)
		o.Log, o.Net, o.Received, o.Overlay = s.Log, s.Net, s.ReceivedTotal(), s
	}
	return o
}

// churnable is what startChurn needs of a system: core.System and
// overlay.System alike.
type churnable[P churn.Peer] interface {
	DisableCompletionStop()
	SpawnPeer() P
	ViewerPeers() []P
}

// startChurn wires the spec's churn onto a freshly built system: the run no
// longer stops at full delivery, every viewer gets a lifetime in
// network-ID order, and arrivals begin. It returns nil for a static spec.
func startChurn[P churn.Peer](k *sim.Kernel, spec Spec, s churnable[P]) *churn.Driver {
	if spec.ChurnLife <= 0 {
		return nil
	}
	s.DisableCompletionStop()
	join := spec.ChurnLife
	if spec.N > 1 {
		join /= time.Duration(spec.N - 1)
	}
	d := churn.NewDriver(k, churn.Config{MeanLife: spec.ChurnLife, MeanJoin: join, GracefulFrac: 0.5},
		func() churn.Peer { return s.SpawnPeer() })
	for _, p := range s.ViewerPeers() {
		d.Track(p)
	}
	d.StartArrivals()
	return d
}

// baseline maps a baseline method to its overlay kind and its
// Config.Neighbors: the mesh degree for pull and push, the out-degree for
// the trees.
func (m Method) baseline(neighbors int) (overlay.Kind, int) {
	switch m {
	case MethodPull:
		return overlay.Pull, neighbors
	case MethodPush:
		return overlay.Push, neighbors
	case MethodTree:
		return overlay.Tree, treeDegree(neighbors)
	case MethodTreeX:
		return overlay.Tree, neighbors
	}
	panic("experiment: unknown method " + string(m))
}

// spec is the run of method m at this scale with the given neighbor count.
func (p Params) spec(m Method, neighbors int) Spec {
	return Spec{Method: m, N: p.N, Neighbors: neighbors, Chunks: p.Chunks, Seed: p.Seed, Horizon: p.Horizon}
}

// treeDegree maps a mesh neighbor count to the paper's tree out-degree
// (1/8 of the neighbor count, minimum 1; the default 24-neighbor setting
// yields the paper's default of 3).
func treeDegree(neighbors int) int {
	d := neighbors / 8
	if d < 1 {
		d = 1
	}
	return d
}

// meshDelayCapped is Fig. 5's y value: the mean time for a chunk to reach
// every node, charging chunks that never completed the full horizon (the
// paper's "very high delay" regime, rendered finite).
func meshDelayCapped(log *metrics.DeliveryLog, horizon time.Duration) float64 {
	var sum float64
	var n int
	for seq := int64(0); seq < log.NumChunks(); seq++ {
		g := log.GenerationTime(seq)
		if g == metrics.Never {
			continue
		}
		n++
		if d, ok := log.ChunkCompletion(seq); ok {
			sum += d.Seconds()
		} else {
			sum += (horizon - g).Seconds()
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
