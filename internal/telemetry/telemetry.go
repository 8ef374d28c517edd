// Package telemetry is the live DCO stack's runtime observability core: a
// dependency-free registry of lock-free counters, gauges, and fixed-bucket
// histograms cheap enough for the chunk hot path, plus a bounded protocol
// event trace (trace.go) and HTTP exposition in Prometheus text and JSON
// formats (expose.go).
//
// Design rules:
//
//   - Recording is wait-free where Go's sync/atomic allows: counters and
//     histogram buckets are single atomic adds; only histogram sums use a
//     CAS loop. No metric operation ever takes a registry lock.
//   - Every metric type is safe on a nil receiver (a no-op), so callers can
//     instrument unconditionally and let configuration decide whether a
//     registry exists.
//   - Names follow Prometheus conventions: snake_case, `_total` suffix for
//     counters, base-unit suffixes (`_seconds`, `_bytes`). A name may carry
//     a fixed label set inline — `dco_rpc_total{kind="lookup"}` — which the
//     expositor folds under one TYPE header per base name.
//
// The simulator keeps its own offline metrics (internal/metrics computes
// the paper's figures from delivery logs); this package is the equivalent
// for the real-network stack, where the same four quantities — chunk
// latency, fill ratio, control-vs-data overhead, delivered percentage —
// must be observable on a running node.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// ---------------------------------------------------------------------------
// Counter.

// Counter is a monotonically increasing uint64. The zero value is usable;
// a nil *Counter ignores all writes and reads as zero.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// ---------------------------------------------------------------------------
// Gauge.

// Gauge is an instantaneous int64 value. The zero value is usable; a nil
// *Gauge ignores all writes and reads as zero.
type Gauge struct {
	v atomic.Int64
}

// Set overwrites the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the value by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// ---------------------------------------------------------------------------
// Histogram.

// DefLatencyBuckets suits RPC and chunk-fetch latencies at streaming
// timescales: 1 ms up to 10 s.
var DefLatencyBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Histogram counts observations into fixed upper-bound buckets (cumulative
// rendering happens at exposition, so Observe touches exactly one bucket).
// A nil *Histogram ignores all observations.
type Histogram struct {
	bounds []float64       // sorted upper bounds; implicit +Inf afterward
	counts []atomic.Uint64 // len(bounds)+1
	sum    atomic.Uint64   // math.Float64bits accumulator
	count  atomic.Uint64
}

// NewHistogram builds an unregistered histogram with the given upper
// bounds (they are sorted defensively; empty bounds mean a single +Inf
// bucket). Most callers want Registry.Histogram instead.
func NewHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small (≤ ~15) and the branch predictor
	// does well on latency distributions; this beats binary search below
	// ~30 buckets and keeps the code allocation-free.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Snapshot returns a consistent-enough copy for exposition: per-bucket
// counts (non-cumulative, +Inf last), total count, and sum. Buckets are
// read without a global lock, so a snapshot taken mid-Observe may be off
// by the in-flight sample; exposition tolerates that.
func (h *Histogram) Snapshot() (bounds []float64, counts []uint64, count uint64, sum float64) {
	if h == nil {
		return nil, nil, 0, 0
	}
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.bounds, counts, h.count.Load(), math.Float64frombits(h.sum.Load())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// ---------------------------------------------------------------------------
// Registry.

// Registry is a named collection of metrics. Registration (the Counter /
// Gauge / GaugeFunc / Histogram constructors) takes a lock; recording on
// the returned metrics never does. The zero value is not usable; create
// with NewRegistry. All methods are safe on a nil *Registry, returning nil
// metrics whose operations are no-ops — so an uninstrumented node costs a
// handful of dead atomic adds and nothing else.
type Registry struct {
	mu     sync.Mutex
	kinds  map[string]string // name -> "counter" | "gauge" | "histogram"
	cnts   map[string]*Counter
	gauges map[string]*Gauge
	funcs  map[string]func() float64
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		kinds:  make(map[string]string),
		cnts:   make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		funcs:  make(map[string]func() float64),
		hists:  make(map[string]*Histogram),
	}
}

// claim records name's metric type, keyed by base name so that label
// variants of one metric cannot disagree on type (the Prometheus format
// emits a single TYPE header per base name).
func (r *Registry) claim(name, kind string) {
	base := baseName(name)
	if have, ok := r.kinds[base]; ok && have != kind {
		panic(fmt.Sprintf("telemetry: %q registered as %s, requested as %s", base, have, kind))
	}
	r.kinds[base] = kind
}

// Counter returns the counter registered under name, creating it on first
// use. Panics if name is already registered as a different metric type.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, "counter")
	c := r.cnts[name]
	if c == nil {
		c = &Counter{}
		r.cnts[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, "gauge")
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers fn as a computed gauge: it is evaluated at scrape
// time, so derived quantities (ratios, map sizes) cost nothing between
// scrapes. fn must be safe for concurrent calls. Re-registering a name
// replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, "gauge")
	r.funcs[name] = fn
}

// Histogram returns the histogram registered under name, creating it with
// the given bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, "histogram")
	h := r.hists[name]
	if h == nil {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every registered metric's current value, suitable for
// JSON encoding (see expose.go) or test assertions.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.cnts)),
		Gauges:     make(map[string]float64, len(r.gauges)+len(r.funcs)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.cnts {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = float64(g.Value())
	}
	for name, fn := range r.funcs {
		s.Gauges[name] = fn()
	}
	for name, h := range r.hists {
		bounds, counts, count, sum := h.Snapshot()
		s.Histograms[name] = HistogramSnapshot{
			Bounds: append([]float64(nil), bounds...),
			Counts: counts,
			Count:  count,
			Sum:    sum,
		}
	}
	return s
}

// Snapshot is a point-in-time copy of a registry.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// HistogramSnapshot is one histogram's state: per-bucket (non-cumulative)
// counts with Counts[len(Bounds)] holding the +Inf bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}
