package live

// Swarm is the one way to stand up a source and its viewers in a single
// process: every dcosim scenario, the livechannel example and the
// multi-node tests of this package build on it (see DESIGN.md, "Standing
// up a swarm"). It owns build → join → Start → WaitUntil → Close and the
// folds every scenario needs; a scenario keeps only what is its own — the
// timings that differ, the fault script, the gate, the output schema.

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"dco/internal/telemetry"
	"dco/internal/transport"
)

// SwarmSpec describes a swarm. Node 0 is the stream source, nodes 1..N-1
// are viewers.
type SwarmSpec struct {
	// N is the swarm size, source included.
	N int

	// Base is every node's configuration before Tune. The harness sets
	// Source (node 0) and Telemetry (a registry per node) itself.
	Base Config

	// Tune, if set, adjusts node i's configuration: the source's upload
	// budget, one viewer's StartSeq, a trace.
	Tune func(i int, cfg *Config)

	// TCP attaches every node to a loopback TCP listener on a
	// kernel-chosen port instead of a shared in-memory fabric.
	TCP bool

	// Wrap, if set, decorates every node's transport — the seam a
	// faulty.Injector's Wrap plugs into.
	Wrap func(transport.Transport) transport.Transport

	// Crowd makes Up start the source first and then join every viewer at
	// once (a flash crowd into a running stream). Otherwise viewers join
	// one by one and only then does anything start.
	Crowd bool
}

// Swarm is a built swarm. Nodes[0] is the source.
type Swarm struct {
	Nodes []*Node

	spec      SwarmSpec
	fabric    *transport.Fabric // nil on TCP
	regs      []*telemetry.Registry
	closeOnce sync.Once
	wedged    int
}

// FastLocalTimings sets the maintenance and lookup cadences every
// in-process swarm runs at: a ring that converges in tens of milliseconds
// and calls that give up in seconds, where DefaultNodeConfig is paced for
// a LAN.
func FastLocalTimings(cfg *Config) {
	cfg.StabilizeEvery = 20 * time.Millisecond
	cfg.FixFingersEvery = 10 * time.Millisecond
	cfg.LookupWait = 500 * time.Millisecond
	cfg.CallTimeout = 2 * time.Second
	cfg.RepublishEvery = 500 * time.Millisecond
}

// NewSwarm builds the swarm's nodes: each on its own transport endpoint,
// with its own registry carrying the node's and the transport's metrics.
// Nothing has joined or started; addresses are final, so a fault script
// can assign roles by address before Up.
func NewSwarm(spec SwarmSpec) (*Swarm, error) {
	if spec.N < 1 {
		return nil, fmt.Errorf("live: swarm of %d nodes", spec.N)
	}
	s := &Swarm{spec: spec}
	if !spec.TCP {
		s.fabric = transport.NewFabric()
	}
	for i := 0; i < spec.N; i++ {
		if err := s.add(i); err != nil {
			s.Close()
			return nil, fmt.Errorf("live: swarm node %d: %w", i, err)
		}
	}
	return s, nil
}

// add builds node i from the spec and appends it to Nodes.
func (s *Swarm) add(i int) error {
	cfg := s.spec.Base
	cfg.Source = i == 0
	if s.spec.Tune != nil {
		s.spec.Tune(i, &cfg)
	}
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	nd, err := NewNode(cfg, func(h transport.Handler) (transport.Transport, error) {
		tr, err := s.attach(h, transport.NewMetrics(reg))
		if err == nil && s.spec.Wrap != nil {
			tr = s.spec.Wrap(tr)
		}
		return tr, err
	})
	if err != nil {
		return err
	}
	s.Nodes = append(s.Nodes, nd)
	s.regs = append(s.regs, reg)
	return nil
}

// attach opens one endpoint on the swarm's network: the shared fabric, or
// a loopback TCP listener on a kernel-chosen port.
func (s *Swarm) attach(h transport.Handler, tm *transport.Metrics) (transport.Transport, error) {
	if s.spec.TCP {
		tcp, err := transport.ListenTCP("127.0.0.1:0", h)
		if err != nil {
			return nil, err
		}
		tcp.SetMetrics(tm)
		return tcp, nil
	}
	mem := s.fabric.Attach(h)
	mem.SetMetrics(tm)
	return mem, nil
}

// Attach opens a bare, unwrapped endpoint on the swarm's network for a
// participant that is not a node (a scenario's index spammer). The caller
// closes it.
func (s *Swarm) Attach(h transport.Handler) (transport.Transport, error) {
	return s.attach(h, nil)
}

// Source returns node 0.
func (s *Swarm) Source() *Node { return s.Nodes[0] }

// Viewers returns nodes 1..N-1.
func (s *Swarm) Viewers() []*Node { return s.Nodes[1:] }

// Registry returns node i's registry (gauges are per node and are not
// part of Snapshot).
func (s *Swarm) Registry(i int) *telemetry.Registry { return s.regs[i] }

// Up joins every viewer through the source and starts every node, in the
// order the spec's Crowd field selects.
func (s *Swarm) Up() error { return s.up((*Node).Start) }

// up is Up with the per-node start step as a parameter, so this package's
// tests can bring up a ring that runs maintenance but no stream.
func (s *Swarm) up(start func(*Node)) error {
	if s.spec.Crowd {
		start(s.Source())
	}
	if err := s.join(); err != nil {
		return err
	}
	if !s.spec.Crowd {
		start(s.Source())
	}
	for _, v := range s.Viewers() {
		start(v)
	}
	return nil
}

// join attaches every viewer to the source's ring: all at once in a crowd,
// otherwise in node order.
func (s *Swarm) join() error {
	boot := s.Source().Addr()
	if !s.spec.Crowd {
		for i, v := range s.Viewers() {
			if err := v.Join(boot); err != nil {
				return fmt.Errorf("viewer %d: %w", i+1, err)
			}
		}
		return nil
	}
	errs := make([]error, len(s.Viewers()))
	var wg sync.WaitGroup
	for i, v := range s.Viewers() {
		wg.Add(1)
		go func(i int, v *Node) {
			defer wg.Done()
			if err := v.Join(boot); err != nil {
				errs[i] = fmt.Errorf("viewer %d: %w", i+1, err)
			}
		}(i, v)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// pollEvery is the cadence WaitUntil re-evaluates its condition at.
const pollEvery = 20 * time.Millisecond

// pollUntil re-evaluates cond until it holds or d has passed.
func pollUntil(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(pollEvery)
	}
	return true
}

// WaitUntil polls cond until it holds. If d passes first, the error names
// what was being waited for and where every node stood: its buffered
// chunk count and its successor.
func (s *Swarm) WaitUntil(d time.Duration, what string, cond func() bool) error {
	if pollUntil(d, cond) {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeout after %v waiting for %s;", d, what)
	for i, nd := range s.Nodes {
		_, succ := nd.Successor()
		fmt.Fprintf(&b, " [%d %s chunks=%d succ=%s]", i, nd.Addr(), nd.ChunkCount(), succ)
	}
	return errors.New(b.String())
}

// closeGrace is how long Close waits for each node: shutting a node down
// takes milliseconds unless one of its goroutines is stuck past every
// timeout the stack enforces.
const closeGrace = 15 * time.Second

// Close stops every node at once and returns how many had not finished
// closing within the grace period — each one a wedged worker. Nodes a
// scenario already closed count as closed; calling Close again returns
// the first call's result.
func (s *Swarm) Close() (wedged int) {
	s.closeOnce.Do(func() {
		done := make(chan struct{}, len(s.Nodes))
		for _, nd := range s.Nodes {
			go func(nd *Node) {
				_ = nd.Close() // abrupt stop; a listener's close error is of no use here
				done <- struct{}{}
			}(nd)
		}
		grace := time.NewTimer(closeGrace)
		defer grace.Stop()
		for closed := 0; closed < len(s.Nodes); closed++ {
			select {
			case <-done:
			case <-grace.C:
				s.wedged = len(s.Nodes) - closed
				return
			}
		}
	})
	return s.wedged
}

// RingCorrect is the convergence oracle for the given membership. Chord:
// every node's successor is its clockwise neighbour in ID order — the
// only check that tells one ring from two self-consistent ones — and its
// predecessor the anticlockwise one (a ring of one needs none): ownership
// reads the predecessor, and a correct successor chain does not imply it.
// A ring of one takes its first member as successor a call before that
// member learns its predecessor, for one. Kademlia has no ring: every
// node's membership view must be exactly the given set, all live members
// learned and all dead or far-side contacts purged.
func RingCorrect(nodes []*Node) bool {
	if len(nodes) == 0 {
		return true
	}
	if nodes[0].DHTName() != "chord" {
		return viewsConverged(nodes)
	}
	sorted := append([]*Node(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID() < sorted[j].ID() })
	for i, nd := range sorted {
		next := sorted[(i+1)%len(sorted)]
		if _, succ := nd.Successor(); succ != next.Addr() {
			return false
		}
		if len(sorted) == 1 {
			continue
		}
		prev := sorted[(i+len(sorted)-1)%len(sorted)]
		if p, ok := nd.Predecessor(); !ok || p != prev.Addr() {
			return false
		}
	}
	return true
}

// viewsConverged reports whether every node's kernel membership view is
// exactly the address set of nodes.
func viewsConverged(nodes []*Node) bool {
	want := make(map[string]bool, len(nodes))
	for _, nd := range nodes {
		want[nd.Addr()] = true
	}
	for _, nd := range nodes {
		nd.mu.Lock()
		view := nd.kern.View()
		nd.mu.Unlock()
		if len(view) != len(want) {
			return false
		}
		for _, m := range view {
			if !want[m.Addr] {
				return false
			}
		}
	}
	return true
}

// MinDelivered returns the smallest share of a chunks-long stream any of
// nodes has buffered, as a percentage.
func MinDelivered(nodes []*Node, chunks int64) float64 {
	min := 100.0
	for _, nd := range nodes {
		if p := 100 * float64(nd.ChunkCount()) / float64(chunks); p < min {
			min = p
		}
	}
	return min
}

// SumStats adds up the counters of nodes field by field (a closed node's
// counters stay readable).
func SumStats(nodes []*Node) Stats {
	var sum Stats
	out := reflect.ValueOf(&sum).Elem()
	for _, nd := range nodes {
		st := reflect.ValueOf(nd.Stats())
		for i := 0; i < st.NumField(); i++ {
			out.Field(i).SetUint(out.Field(i).Uint() + st.Field(i).Uint())
		}
	}
	return sum
}

// Without returns nodes minus gone: the survivors of a kill.
func Without(nodes []*Node, gone *Node) []*Node {
	out := make([]*Node, 0, len(nodes))
	for _, nd := range nodes {
		if nd != gone {
			out = append(out, nd)
		}
	}
	return out
}

// Snapshot merges every node's registry: counters are summed and
// histograms added bucket by bucket.
func (s *Swarm) Snapshot() telemetry.Snapshot {
	out := telemetry.Snapshot{
		Counters:   make(map[string]uint64),
		Histograms: make(map[string]telemetry.HistogramSnapshot),
	}
	for _, reg := range s.regs {
		snap := reg.Snapshot()
		for name, v := range snap.Counters {
			out.Counters[name] += v
		}
		for name, h := range snap.Histograms {
			sum, ok := out.Histograms[name]
			if !ok {
				sum = telemetry.HistogramSnapshot{Bounds: h.Bounds, Counts: make([]uint64, len(h.Counts))}
			}
			for i, c := range h.Counts {
				sum.Counts[i] += c
			}
			sum.Count += h.Count
			sum.Sum += h.Sum
			out.Histograms[name] = sum
		}
	}
	return out
}

// HistQuantile estimates quantile q of a histogram by linear interpolation
// inside the bucket the rank falls in (the Prometheus histogram_quantile
// estimator). A rank in the +Inf bucket reports the last finite bound:
// quantiles cannot exceed what the buckets resolve.
func HistQuantile(h telemetry.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	last := h.Bounds[len(h.Bounds)-1]
	rank := q * float64(h.Count)
	var cum uint64
	for i, c := range h.Counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(h.Bounds) {
			return last
		}
		if c == 0 {
			return h.Bounds[i]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		return lo + (h.Bounds[i]-lo)*(rank-float64(prev))/float64(c)
	}
	return last
}
