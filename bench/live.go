package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dco/internal/live"
	"dco/internal/telemetry"
	"dco/internal/transport"
	"dco/internal/wire"
)

// liveSpec describes one workload on the real node stack. Node configs are
// live.DefaultNodeConfig() plus tune; everything else here is harness-side.
type liveSpec struct {
	name       string
	nodes      int // source + viewers
	tcp        bool
	chunkBytes int64
	period     time.Duration
	// settle is how long the whole ring must have stood before the first
	// chunk any viewer wants is generated: one LookupWait, so that no viewer
	// is still parked on a lookup it sent to a coordinator the ring has
	// since moved the key away from.
	settle time.Duration
	// horizon is the playback horizon: a chunk delivered later than this
	// after its generation counts as failed. The flash crowd's follows from
	// the stream's length (see runLive).
	horizon  time.Duration
	failGate float64
	// flash makes the run the PR 4 flash crowd: viewers join and start
	// concurrently into the running stream and fetch it from seq 0.
	flash bool
	tune  func(cfg *live.Config, source bool)
}

// skipChunks is the gap between the first chunk viewers fetch and the first
// measured one, so the fetch pipelines are in step before the window opens.
const skipChunks = 8

var liveSpecs = map[string]liveSpec{
	"steady_small_mem": {
		name: "steady_small_mem", nodes: 32, chunkBytes: 1024, period: 30 * time.Millisecond,
		settle: 2 * time.Second, horizon: 2 * time.Second, failGate: 0.01,
		tune: func(cfg *live.Config, source bool) { cfg.UpBps = 0 },
	},
	"steady_bulk_tcp": {
		name: "steady_bulk_tcp", nodes: 5, tcp: true, chunkBytes: 64 * 1024, period: 10 * time.Millisecond,
		settle: 2 * time.Second, horizon: 2 * time.Second, failGate: 0.01,
		tune: func(cfg *live.Config, source bool) { cfg.UpBps = 0 },
	},
	"flashcrowd_tcp": {
		name: "flashcrowd_tcp", nodes: 30, tcp: true, chunkBytes: 1024, period: 150 * time.Millisecond,
		failGate: 0.05, flash: true,
		// The PR 4 scenario's own settings (cmd/dcosim/flashcrowd.go).
		tune: func(cfg *live.Config, source bool) {
			cfg.StabilizeEvery = 20 * time.Millisecond
			cfg.FixFingersEvery = 10 * time.Millisecond
			cfg.LookupWait = 500 * time.Millisecond
			cfg.CallTimeout = 2 * time.Second
			cfg.RepublishEvery = 500 * time.Millisecond
			if source {
				cfg.UpBps = 120_000
				cfg.AdmitQueue = 8
			}
		},
	},
}

// swarm is a set of live nodes standing on one fabric, with the harness's
// measuring seams attached.
type swarm struct {
	spec   liveSpec
	seed   int64
	nodes  []*live.Node // [0] is the source; nil until added
	regs   []*telemetry.Registry
	tr     *tracer // nil in untraced runs
	index  map[string]int
	fabric *transport.Fabric
	ports  int // first TCP port (tcp workloads)
	// mk finishes a node's config: channel geometry, callbacks.
	mk func(i int, cfg *live.Config)
}

func (s *swarm) close() {
	var wg sync.WaitGroup
	for _, nd := range s.nodes {
		if nd == nil {
			continue
		}
		wg.Add(1)
		go func(nd *live.Node) {
			defer wg.Done()
			_ = nd.Close() // abrupt stop; the listener's close error is of no use here
		}(nd)
	}
	wg.Wait()
}

// freePortBase returns the first port of a run of n free loopback ports,
// starting the search at a base derived from the seed so that node
// addresses, and with them node IDs, ring layout and key ownership, repeat
// from run to run and commit to commit. A busy run moves to the next base.
func freePortBase(seed int64, n int) (int, error) {
	const lo, slots, stride = 10000, 300, 64 // 10000..29199: below Linux's ephemeral range
	slot := int(((seed % slots) + slots) % slots)
	for try := 0; try < slots; try++ {
		base := lo + ((slot+try)%slots)*stride
		if portsFree(base, n) {
			return base, nil
		}
	}
	return 0, fmt.Errorf("no run of %d free loopback ports", n)
}

func portsFree(base, n int) bool {
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", base+i))
		if err != nil {
			return false
		}
		ln.Close()
	}
	return true
}

func newSwarm(spec liveSpec, seed int64, traced bool, mk func(i int, cfg *live.Config)) (*swarm, error) {
	s := &swarm{spec: spec, seed: seed, index: make(map[string]int), mk: mk,
		nodes: make([]*live.Node, spec.nodes), regs: make([]*telemetry.Registry, spec.nodes)}
	if traced {
		s.tr = newTracer(spec.nodes)
	}
	if spec.tcp {
		base, err := freePortBase(seed, spec.nodes)
		if err != nil {
			return nil, err
		}
		s.ports = base
	} else {
		s.fabric = transport.NewFabric()
	}
	return s, nil
}

// add creates node i (0 is the source). Its transport carries the
// registry's byte meters always and the span decorator in traced runs.
func (s *swarm) add(i int) error {
	cfg := live.DefaultNodeConfig()
	cfg.DHT = "chord" // never the DCO_DHT environment default: runs must compare
	cfg.Source = i == 0
	cfg.RetrySeed = s.seed*1000 + int64(i) + 1
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	if s.spec.tune != nil {
		s.spec.tune(&cfg, cfg.Source)
	}
	s.mk(i, &cfg)
	tm := transport.NewMetrics(reg)
	nd, err := live.NewNode(cfg, func(h transport.Handler) (transport.Transport, error) {
		if s.tr != nil {
			h = s.tr.wrapHandler(i, h)
		}
		var tr transport.Transport
		if s.spec.tcp {
			t, err := transport.ListenTCP(fmt.Sprintf("127.0.0.1:%d", s.ports+i), h)
			if err != nil {
				return nil, err
			}
			t.SetMetrics(tm)
			tr = t
		} else {
			m := s.fabric.Attach(h)
			m.SetMetrics(tm)
			tr = m
		}
		if s.tr != nil {
			tr = s.tr.wrapTransport(i, tr)
		}
		return tr, nil
	})
	if err != nil {
		return fmt.Errorf("node %d: %w", i, err)
	}
	s.nodes[i], s.regs[i] = nd, reg
	s.index[nd.Addr()] = i
	return nil
}

// join makes node i join through node via. A key that lies between a
// newcomer and the predecessor that has not adopted it yet is unroutable
// until that predecessor's next stabilize round (the route loops until the
// hop bound), so a join landing there fails; it is retried past that round,
// which is what an operator's start script would do.
func (s *swarm) join(i, via int) error {
	deadline := time.Now().Add(standUpTimeout)
	for {
		err := s.nodes[i].Join(s.nodes[via].Addr())
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// ringWhole reports whether the successor chain starting at node `from`
// visits exactly the `want` nodes created so far and closes on itself.
func (s *swarm) ringWhole(from, want int) bool {
	seen := make(map[int]bool, want)
	at := from
	for len(seen) < want {
		if seen[at] {
			return false
		}
		seen[at] = true
		_, addr := s.nodes[at].Successor()
		next, ok := s.index[addr]
		if !ok {
			return false
		}
		at = next
	}
	return at == from
}

// awaitWhole polls ringWhole until it holds or the timeout passes.
func (s *swarm) awaitWhole(from, want int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for !s.ringWhole(from, want) {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// counters is a point-in-time reading of everything the window's metrics
// are deltas of: process resources, runtime metrics, every node's registry.
type counters struct {
	at        time.Time
	cpu       time.Duration // utime + stime
	mem       runtime.MemStats
	mutexWait float64 // seconds
	gcCPU     float64 // seconds
	regs      []telemetry.Snapshot
	stats     []live.Stats
}

func (s *swarm) read() counters {
	c := counters{at: time.Now(), cpu: cpuTime()}
	runtime.ReadMemStats(&c.mem)
	c.mutexWait, c.gcCPU = runtimeSeconds()
	for i, nd := range s.nodes {
		c.regs = append(c.regs, s.regs[i].Snapshot())
		c.stats = append(c.stats, nd.Stats())
	}
	return c
}

// sumCounter returns the swarm-wide increase of one registry counter.
func sumCounter(a, b counters, name string) float64 {
	var d uint64
	for i := range b.regs {
		d += b.regs[i].Counters[name] - a.regs[i].Counters[name]
	}
	return float64(d)
}

// sumStat returns the swarm-wide increase of one live.Stats field.
func sumStat(a, b counters, f func(live.Stats) uint64) float64 {
	var d uint64
	for i := range b.stats {
		d += f(b.stats[i]) - f(a.stats[i])
	}
	return float64(d)
}

// histQuantileDelta estimates quantile q (0..1), in the histogram's unit,
// of the observations made between two snapshots of one histogram summed
// over all nodes, interpolating linearly inside the bucket the rank falls
// in (the registry keeps bucket counts, not samples).
func histQuantileDelta(a, b counters, name string, q float64) (value float64, n int) {
	var bounds []float64
	var counts []uint64
	for i := range b.regs {
		hb, ha := b.regs[i].Histograms[name], a.regs[i].Histograms[name]
		if counts == nil {
			bounds = hb.Bounds
			counts = make([]uint64, len(hb.Counts))
		}
		for j := range hb.Counts {
			counts[j] += hb.Counts[j]
			if j < len(ha.Counts) {
				counts[j] -= ha.Counts[j]
			}
		}
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0, 0
	}
	rank := q * float64(total)
	var cum float64
	for j, c := range counts {
		if cum+float64(c) >= rank && c > 0 {
			lo := 0.0
			if j > 0 {
				lo = bounds[j-1]
			}
			hi := lo
			if j < len(bounds) {
				hi = bounds[j]
			}
			return lo + (hi-lo)*(rank-cum)/float64(c), int(total)
		}
		cum += float64(c)
	}
	return bounds[len(bounds)-1], int(total)
}

// liveRun is one run of one live workload: the swarm, the delivery clock
// and the window bookkeeping.
type liveRun struct {
	spec     liveSpec
	seed     int64
	rng      *rand.Rand
	traceOut string
	res      RunResult
	s        *swarm

	// The measured window is seqs [winStart, count). Viewers fetch from
	// seq warmChunks on.
	warmChunks, winStart, count int64
	pairs                       int64 // (viewer, seq) deliveries the window expects

	// Delivery clock: when each node's OnChunk fired for each seq, in ns
	// since epoch (0 = never). Row 0, the source's, is the generation time.
	epoch     time.Time
	recv      [][]atomic.Int64
	delivered atomic.Int64

	windowOpen    chan struct{} // the source generated seq winStart
	lastGenerated chan struct{} // the source generated seq count-1
	allDelivered  chan struct{} // every expected pair arrived

	joinAt    []time.Time   // when each viewer called Join
	released  time.Time     // flash crowd: when the crowd was let go
	converged time.Duration // steady: process start -> whole ring, source included
}

func (r *liveRun) fail(format string, args ...any) {
	r.res.Invalid = append(r.res.Invalid, fmt.Sprintf(format, args...))
}

// runLive executes one live workload for `seconds` of stream and returns
// its metrics. With traced set, every node's transport carries the span
// decorator and the span-derived per-layer metrics are filled in as well.
func runLive(spec liveSpec, seed int64, seconds int, traced bool, traceOut string) RunResult {
	r := &liveRun{spec: spec, seed: seed, rng: rand.New(rand.NewSource(seed)), traceOut: traceOut,
		res:        RunResult{Workload: spec.name, Seed: seed, Seconds: seconds, Traced: traced, Metrics: Metrics{}},
		epoch:      time.Now(),
		windowOpen: make(chan struct{}), lastGenerated: make(chan struct{}), allDelivered: make(chan struct{}),
		joinAt: make([]time.Time, spec.nodes)}
	winChunks := int64(time.Duration(seconds) * time.Second / spec.period)
	if spec.flash {
		// The PR 4 scenario's playback horizon is half as long again as its
		// stream (150 periods for 100 chunks), and the crowd falls further
		// behind the longer the source streams, by design: the last chunks of
		// a 20-s stream reach the slowest viewer 8 to 14 s after it ends. So
		// the horizon keeps that proportion for any --seconds.
		r.spec.horizon = time.Duration(winChunks*3/2) * spec.period
	} else {
		r.warmChunks = int64((spec.settle + adoptAllowance + spec.period - 1) / spec.period)
		r.winStart = r.warmChunks + skipChunks
	}
	r.count = r.winStart + winChunks
	r.pairs = int64(spec.nodes-1) * winChunks
	r.recv = make([][]atomic.Int64, spec.nodes)
	for i := range r.recv {
		r.recv[i] = make([]atomic.Int64, r.count)
	}

	s, err := newSwarm(spec, seed, traced, r.configure)
	if err != nil {
		r.fail("setup: %v", err)
		return r.res
	}
	r.s = s
	defer s.close()
	var before counters
	var ok bool
	if spec.flash {
		before, ok = r.releaseCrowd()
	} else {
		before, ok = r.standUp()
	}
	if ok && r.measure(before) {
		r.gates()
	}
	r.res.Metrics.set("peak_rss_mb", peakRSSMB(), 1)
	return r.res
}

// configure finishes node i's config: the channel, and the OnChunk hook
// that is the delivery clock.
func (r *liveRun) configure(i int, cfg *live.Config) {
	cfg.Channel.Channel = fmt.Sprintf("B%d-", r.seed) // seed-derived name: key placement varies with the seed
	cfg.Channel.ChunkBits = r.spec.chunkBytes * 8
	cfg.Channel.Period = r.spec.period
	cfg.Channel.Count = r.count
	if r.spec.flash {
		cfg.FetchDeadlineChunks = int(r.spec.horizon / r.spec.period)
	} else {
		cfg.StartSeq = r.warmChunks
		// Viewers idle on their first chunk while the ring forms; the
		// node-side abandonment deadline must outlast that wait. The
		// harness applies the playback horizon itself, per delivery.
		cfg.FetchDeadlineChunks = int((standUpTimeout + r.spec.settle + adoptAllowance + r.spec.horizon) / r.spec.period)
	}
	cfg.OnChunk = func(seq int64, _ []byte) {
		if seq < 0 || seq >= r.count || !r.recv[i][seq].CompareAndSwap(0, int64(time.Since(r.epoch))) {
			return
		}
		if i == 0 {
			if seq == r.winStart {
				close(r.windowOpen)
			}
			if seq == r.count-1 {
				close(r.lastGenerated)
			}
		} else if seq >= r.winStart && r.delivered.Add(1) == r.pairs {
			close(r.allDelivered)
		}
	}
}

const standUpTimeout = 30 * time.Second

// adoptAllowance is how long the ring may take to adopt the source after
// it joins (its stream starts at the join): three default stabilize rounds.
const adoptAllowance = 900 * time.Millisecond

// standUp builds a steady workload's swarm: the viewers form the ring
// first, joining in doubling waves (each wave lands in a whole ring, so it
// integrates in a few stabilize rounds where an all-at-once join needs one
// round per node), and the source joins last and starts its stream only
// into a whole ring. Start() couples ring maintenance with the fetch loop
// and with chunk generation, and index inserts routed through an unsettled
// ring are misplaced; this order keeps every measured chunk clear of that.
func (r *liveRun) standUp() (before counters, ok bool) {
	s, n := r.s, r.spec.nodes
	join := func(i int, via int) bool {
		if err := s.add(i); err != nil {
			r.fail("setup: %v", err)
			return false
		}
		r.joinAt[i] = time.Now()
		if via != i {
			if err := s.join(i, via); err != nil {
				r.fail("join: %v", err)
				return false
			}
		}
		s.nodes[i].Start()
		return true
	}
	for lo := 1; lo < n; {
		hi := 2 * lo
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			if !join(i, 1) {
				return before, false
			}
		}
		if !s.awaitWhole(1, hi-1, standUpTimeout) {
			r.fail("ring of %d viewers did not become whole", hi-1)
			return before, false
		}
		lo = hi
	}
	if !join(0, 1) || !s.awaitWhole(0, n, standUpTimeout) {
		r.fail("ring did not become whole after the source joined")
		return before, false
	}
	r.converged = time.Since(processStart)
	whole := time.Since(r.epoch)

	select {
	case <-r.windowOpen:
	case <-time.After(standUpTimeout):
		r.fail("source never generated seq %d", r.winStart)
		return before, false
	}
	before = s.read()
	r.res.Metrics.set("setup_s", before.at.Sub(processStart).Seconds(), 1)
	if first := time.Duration(r.recv[0][r.warmChunks].Load()); first < whole+r.spec.settle {
		r.fail("seq %d was generated %v after the ring became whole, want >= %v", r.warmChunks, first-whole, r.spec.settle)
		return before, false
	}
	if !s.ringWhole(0, n) {
		r.fail("ring no longer whole when the window opened")
		return before, false
	}
	return before, true
}

const crowdPreroll = time.Second

// releaseCrowd starts the source's stream and lets every viewer join and
// start at a seeded offset inside one chunk period. The window opens at
// release: the joins are part of what is measured.
func (r *liveRun) releaseCrowd() (before counters, ok bool) {
	s, n := r.s, r.spec.nodes
	for i := 0; i < n; i++ {
		if err := s.add(i); err != nil {
			r.fail("setup: %v", err)
			return before, false
		}
	}
	offsets := make([]time.Duration, n)
	for i := 1; i < n; i++ {
		offsets[i] = time.Duration(r.rng.Int63n(int64(r.spec.period)))
	}
	// The crowd arrives at a running stream: the source has been streaming
	// for crowdPreroll when it is released.
	s.nodes[0].Start()
	time.Sleep(crowdPreroll)
	before = s.read()
	r.res.Metrics.set("setup_s", before.at.Sub(processStart).Seconds(), 1)
	r.released = time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(offsets[i])
			r.joinAt[i] = time.Now()
			if err := s.join(i, 0); err != nil {
				errs <- err
				return
			}
			s.nodes[i].Start()
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errs:
		r.fail("join: %v", err)
		return before, false
	default:
	}
	return before, true
}

// measure runs the window to its end and computes the metrics. It reports
// false when the run cannot be judged at all.
func (r *liveRun) measure(before counters) bool {
	s, spec, m := r.s, r.spec, r.res.Metrics
	viewers := spec.nodes - 1
	winChunks := r.count - r.winStart
	sampler := startWindowSampler()

	select {
	case <-r.lastGenerated:
	case <-time.After(time.Duration(winChunks)*spec.period + 30*time.Second):
		sampler.finish()
		r.fail("source did not finish the stream")
		return false
	}
	// The window closes when the last pair is delivered (the flash crowd
	// drains its backlog 4 to 12 s after the stream ends), or once the last
	// chunk's playback horizon has passed; what is still missing then has
	// failed.
	select {
	case <-r.allDelivered:
	case <-time.After(spec.horizon):
	}
	after := s.read()
	sampler.finish()
	window := after.at.Sub(before.at).Seconds()

	// Deliveries and their delay from generation.
	var delay latencySample
	for seq := r.winStart; seq < r.count; seq++ {
		gen := r.recv[0][seq].Load()
		for v := 1; v <= viewers; v++ {
			at := r.recv[v][seq].Load()
			if at == 0 || gen == 0 || time.Duration(at-gen) > spec.horizon {
				delay.missed++
				continue
			}
			delay.ok = append(delay.ok, float64(at-gen)/1e6)
		}
	}
	got := float64(len(delay.ok))
	r.res.Attempted, r.res.Failed = r.pairs, int64(delay.missed)
	if got == 0 {
		r.fail("no chunk was delivered")
		return false
	}
	ceiling := float64(spec.horizon) / 1e6
	tail := supportedTail(delay.n(), 99)
	m.set("delivery_p50_ms", delay.percentile(50, ceiling), delay.n())
	m.set("delivery_p99_ms", delay.percentile(tail, ceiling), delay.n())
	r.res.Notes = append(r.res.Notes, fmt.Sprintf("delivery_p99_ms is the p%g of %d deliveries; the slowest took %.0f ms of a %.0f ms horizon",
		tail, delay.n(), delay.percentile(100, ceiling), ceiling))
	m.set("failed_fraction", float64(delay.missed)/float64(r.pairs), int(r.pairs))

	// How late the source's ticker ran against an ideal schedule anchored at
	// its earliest-phase tick.
	late := make([]float64, 0, winChunks)
	anchor := int64(1 << 62)
	for seq := r.winStart; seq < r.count; seq++ {
		if d := r.recv[0][seq].Load() - (seq-r.winStart)*int64(spec.period); d < anchor {
			anchor = d
		}
	}
	for seq := r.winStart; seq < r.count; seq++ {
		late = append(late, float64(r.recv[0][seq].Load()-(seq-r.winStart)*int64(spec.period)-anchor)/1e6)
	}
	sort.Float64s(late)
	m.set("live.generator_late_p99_ms", tailOf(late, 99), len(late))

	// Whole-process cost over the window, per delivered (viewer, seq) pair.
	// CPU: the median slice's rate over the whole window, in reference
	// microseconds (see windowSampler); a window too short to slice reports
	// the plain total, which runtime.cpu_us_per_chunk_mean always keeps.
	mean := float64(after.cpu-before.cpu) / 1e3 / got
	m.set("runtime.cpu_us_per_chunk_mean", mean, int(got))
	if rates := sampler.refRates(); len(rates) >= 5 {
		m.set("cpu_us_per_chunk", median(rates)*window*1e6/got, len(rates))
	} else {
		m.set("cpu_us_per_chunk", mean, int(got))
	}
	m.set("alloc_bytes_per_chunk", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/got, int(got))
	m.set("allocs_per_chunk", float64(after.mem.Mallocs-before.mem.Mallocs)/got, int(got))

	ctr := func(name string) float64 { return sumCounter(before, after, name) }
	stat := func(f func(live.Stats) uint64) float64 { return sumStat(before, after, f) }
	bytesOut := ctr("dco_transport_bytes_out_total")
	bytesData := ctr("dco_transport_data_bytes_out_total") + ctr("dco_transport_data_bytes_in_total")
	m.set("control_bytes_per_data_byte", ratio(bytesOut+ctr("dco_transport_bytes_in_total")-bytesData, bytesData), 0)

	if spec.flash && !r.crowdMetrics() {
		return false
	}

	// Registry-derived per-layer figures: cheap, so read in every run.
	calls := ctr("dco_transport_calls_total")
	m.set("transport.calls_per_chunk", calls/got, int(calls))
	m.set("transport.bytes_per_chunk", bytesOut/got, 0)
	m.set("transport.pool_hit_ratio", ratio(ctr("dco_transport_pool_hits_total"), calls), int(calls))
	m.set("transport.call_error_ratio", ratio(ctr("dco_transport_call_errors_total"), calls), int(calls))
	lookups := ctr("dco_dht_lookups_total")
	m.set("dht.hops_per_lookup", ratio(ctr("dco_dht_lookup_hops_total"), lookups), int(lookups))
	m.set("dht.ring_converge_s", r.converged.Seconds(), 1)
	nodeSeconds := float64(spec.nodes) * window
	m.set("live.replicate.bytes_per_chunk", stat(func(s live.Stats) uint64 { return s.ReplicateBytes })/got, 0)
	m.set("live.digest.bytes_per_node_s", stat(func(s live.Stats) uint64 { return s.DigestBytes })/nodeSeconds, 0)
	m.set("live.fetch.retries_per_chunk", stat(func(s live.Stats) uint64 { return s.FetchRetries })/got, 0)
	hedges := stat(func(s live.Stats) uint64 { return s.HedgesLaunched })
	m.set("live.hedges_per_chunk", hedges/got, int(hedges))
	m.set("live.hedge_win_ratio", ratio(stat(func(s live.Stats) uint64 { return s.HedgeWins }), hedges), int(hedges))
	m.set("live.sheds_per_chunk", stat(func(s live.Stats) uint64 { return s.ChunksShedBusy + s.DeadlineSheds })/got, 0)
	m.set("live.source_serve_share", float64(after.stats[0].ChunksServed-before.stats[0].ChunksServed)/got, int(got))
	paceP50, paceN := histQuantileDelta(before, after, "dco_live_serve_queue_seconds", 0.5)
	m.set("live.pace.wait_p50_ms", paceP50*1e3, paceN)
	m.set("runtime.mutex_wait_us_per_chunk", (after.mutexWait-before.mutexWait)*1e6/got, int(got))
	m.set("runtime.gc_cpu_fraction", ratio(after.gcCPU-before.gcCPU, (after.cpu-before.cpu).Seconds()), 0)
	m.set("runtime.gc_pause_ms_total", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, int(after.mem.NumGC-before.mem.NumGC))
	m.set("runtime.goroutines_peak", float64(sampler.peak), 0)
	m.set("runtime.ref_kernel_us", float64(sampler.refCost(0, len(sampler.ticks)))/1e3, len(sampler.ticks))

	if s.tr != nil {
		r.spanMetrics(before.at, after.at, got)
		findOwnerProbe(m, "dht.find_owner", s.nodes, r.rng)
	}
	return true
}

// crowdMetrics computes what only the flash crowd has: how long a viewer
// waited from Join to its first chunk, and how long the crowd took to
// hold 95% of the stream.
func (r *liveRun) crowdMetrics() bool {
	viewers := r.spec.nodes - 1
	winChunks := r.count - r.winStart
	want := int(winChunks * 95 / 100)
	var startup []float64
	var fill time.Duration
	for v := 1; v <= viewers; v++ {
		times := make([]int64, 0, winChunks)
		for seq := r.winStart; seq < r.count; seq++ {
			if at := r.recv[v][seq].Load(); at != 0 {
				times = append(times, at)
			}
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		if len(times) < want || want == 0 {
			r.fail("viewer %d holds %d of %d chunks, below 95%%", v, len(times), winChunks)
			return false
		}
		startup = append(startup, float64(r.epoch.Add(time.Duration(times[0])).Sub(r.joinAt[v]))/1e6)
		if at := r.epoch.Add(time.Duration(times[want-1])).Sub(r.released); at > fill {
			fill = at
		}
	}
	r.res.Metrics.set("startup_p50_ms", median(startup), len(startup))
	r.res.Metrics.set("fill_time_s", fill.Seconds(), viewers)
	return true
}

// gates applies the correctness gates. Payload verification runs here,
// after the window, so it is not billed to cpu_us_per_chunk.
func (r *liveRun) gates() {
	for i, nd := range r.s.nodes {
		if bad := nd.VerifyBuffered(); bad != 0 {
			r.fail("node %d buffers %d chunks that fail verification", i, bad)
		}
		if q := nd.EverQuarantined(); len(q) != 0 {
			r.fail("node %d quarantined %v", i, q)
		}
	}
	if f := r.res.Metrics["failed_fraction"].Value; f > r.spec.failGate {
		r.fail("failed_fraction %.4f above the gate %.2f", f, r.spec.failGate)
	}
}

// findOwnerProbe times 1000 routed lookups of seeded keys, each from the
// next node round-robin, on a settled swarm.
func findOwnerProbe(m Metrics, prefix string, nodes []*live.Node, rng *rand.Rand) {
	const n = 1000
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		nd := nodes[i%len(nodes)]
		key := rng.Uint64()
		t0 := time.Now()
		if _, _, err := nd.FindOwner(key); err != nil {
			continue
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	sort.Float64s(us)
	m.set(prefix+"_p50_us", quantile(us, 0.5), len(us))
	if _, ok := catalogByName[prefix+"_p99_us"]; ok {
		m.set(prefix+"_p99_us", tailOf(us, 99), len(us))
	}
}

// serveStats is what the server-side spans of one message kind add up to.
type serveStats struct {
	us                []float64 // serve durations, sorted
	busy, empty, miss float64
}

func (a *serveStats) calls() float64 { return float64(len(a.us)) }

// spanMetrics derives the span-based per-layer metrics of the window
// [from, to) from the tracer's log and writes the Chrome trace.
func (r *liveRun) spanMetrics(from, to time.Time, got float64) {
	s, m := r.s, r.res.Metrics
	lo, hi := int64(from.Sub(s.tr.epoch)), int64(to.Sub(s.tr.epoch))
	nodeSeconds := float64(len(s.nodes)) * float64(hi-lo) / 1e9
	spans := make([][]span, len(s.nodes)) // the swarm is still up: work on copies
	for i, nt := range s.tr.nodes {
		spans[i] = nt.snapshot()
	}

	serve := make(map[wire.Kind]*serveStats)
	var maintCalls, maintBytes, routingCalls float64
	for _, node := range spans {
		for _, sp := range node {
			if sp.start < lo || sp.start >= hi {
				continue
			}
			if !sp.server {
				if isMaintenance(sp.kind) {
					maintCalls++
					maintBytes += float64(sp.bytes)
				}
				if isRouting(sp.kind) {
					routingCalls++
				}
				continue
			}
			a := serve[sp.kind]
			if a == nil {
				a = &serveStats{}
				serve[sp.kind] = a
			}
			a.us = append(a.us, float64(sp.dur())/1e3)
			if sp.flags&flagBusy != 0 {
				a.busy++
			}
			if sp.flags&flagEmpty != 0 {
				a.empty++
			}
			if sp.flags&flagMiss != 0 {
				a.miss++
			}
		}
	}
	of := func(k wire.Kind) *serveStats {
		a := serve[k]
		if a == nil {
			a = &serveStats{}
		}
		sort.Float64s(a.us)
		return a
	}
	lk, in, gc := of(wire.KindLookup), of(wire.KindInsert), of(wire.KindGetChunk)
	m.set("live.lookup.serve_p50_us", tailOf(lk.us, 50), len(lk.us))
	m.set("live.lookup.serve_p99_us", tailOf(lk.us, 99), len(lk.us))
	m.set("live.lookup.calls_per_chunk", lk.calls()/got, len(lk.us))
	m.set("live.lookup.empty_ratio", ratio(lk.empty, lk.calls()), len(lk.us))
	m.set("live.insert.serve_p50_us", tailOf(in.us, 50), len(in.us))
	m.set("live.insert.calls_per_chunk", in.calls()/got, len(in.us))
	m.set("live.insert.busy_ratio", ratio(in.busy, in.calls()), len(in.us))
	m.set("live.getchunk.serve_p50_us", tailOf(gc.us, 50), len(gc.us))
	m.set("live.getchunk.serve_p99_us", tailOf(gc.us, 99), len(gc.us))
	m.set("live.getchunk.calls_per_chunk", gc.calls()/got, len(gc.us))
	m.set("live.getchunk.busy_ratio", ratio(gc.busy, gc.calls()), len(gc.us))
	m.set("live.getchunk.miss_ratio", ratio(gc.miss, gc.calls()), len(gc.us))
	rp, mf, cs := of(wire.KindReplicateBatch), of(wire.KindManifestReq), of(wire.KindCensusProbe)
	m.set("live.replicate.calls_per_chunk", rp.calls()/got, len(rp.us))
	m.set("live.replicate.serve_p50_us", tailOf(rp.us, 50), len(rp.us))
	m.set("live.manifest.calls_per_chunk", mf.calls()/got, len(mf.us))
	m.set("live.manifest.serve_p50_us", tailOf(mf.us, 50), len(mf.us))
	m.set("live.census.calls_per_node_s", cs.calls()/nodeSeconds, len(cs.us))
	m.set("dht.routing_calls_per_chunk", routingCalls/got, int(routingCalls))
	m.set("dht.maintenance_calls_per_node_s", maintCalls/nodeSeconds, int(maintCalls))
	m.set("dht.maintenance_bytes_per_node_s", maintBytes/nodeSeconds, int(maintCalls))

	events := r.fetchTrees(spans)
	if r.traceOut == "" {
		return
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	if err := writeChromeTrace(r.traceOut, events); err != nil {
		fmt.Fprintf(errOut, "bench: trace not written: %v\n", err)
	}
}

// traceSeqs is how many of the window's first seqs go into the trace file:
// enough to read, small enough to open.
const traceSeqs = 48

// fetchTrees builds one tree per delivered (viewer, seq) of the window:
// the root runs from the viewer's first Lookup naming the seq to its
// OnChunk, its children are the viewer's own calls naming the seq, and each
// child parents the callee's serve span. It sets the live.fetch.* metrics
// and returns the trace events of the first traceSeqs seqs, together with
// every seq-less span of that stretch of time.
func (r *liveRun) fetchTrees(spans [][]span) []traceEvent {
	s, m := r.s, r.res.Metrics
	shift := int64(r.epoch.Sub(s.tr.epoch)) // deliveries are stamped against the run's epoch, spans against the tracer's
	traced := func(seq int64) bool { return seq >= r.winStart && seq < r.winStart+traceSeqs }
	var events []traceEvent
	roots := make(map[string]bool) // ids of the fetch roots in the trace
	var fetchMs []float64
	var rootNs, lookupNs, getNs, selfNs float64
	tracedLo, tracedHi := int64(1<<62), int64(0)
	for v := 1; v < len(s.nodes); v++ {
		bySeq := make(map[int64][]span)
		for _, sp := range spans[v] {
			if !sp.server && sp.seq >= r.winStart && sp.seq < r.count {
				bySeq[sp.seq] = append(bySeq[sp.seq], sp)
			}
		}
		for seq, calls := range bySeq {
			at := r.recv[v][seq].Load()
			if at == 0 {
				continue
			}
			root := interval{start: 1 << 62, end: at + shift}
			var all, lookups, gets []interval
			for _, sp := range calls {
				iv := interval{sp.start, sp.end}
				all = append(all, iv)
				switch sp.kind {
				case wire.KindLookup:
					lookups = append(lookups, iv)
					if sp.start < root.start {
						root.start = sp.start
					}
				case wire.KindGetChunk:
					gets = append(gets, iv)
				}
			}
			if root.start >= root.end {
				continue
			}
			d := root.end - root.start
			self := selfTime(root, all)
			fetchMs = append(fetchMs, float64(d)/1e6)
			rootNs += float64(d)
			selfNs += float64(self)
			lookupNs += float64(d - selfTime(root, lookups))
			getNs += float64(d - selfTime(root, gets))
			if !traced(seq) {
				continue
			}
			id := fmt.Sprintf("v%d/s%d", v, seq)
			events = append(events, traceEvent{Name: "live.fetch", Cat: "root", Ph: "X", Ts: float64(root.start) / 1e3, Dur: float64(d) / 1e3,
				Pid: v, Tid: seq, Args: map[string]any{"id": id, "seq": seq, "self_us": float64(self) / 1e3}})
			roots[id] = true
			if root.start < tracedLo {
				tracedLo = root.start
			}
			if root.end > tracedHi {
				tracedHi = root.end
			}
		}
	}
	sort.Float64s(fetchMs)
	m.set("live.fetch.p50_ms", quantile(fetchMs, 0.5), len(fetchMs))
	m.set("live.fetch.p99_ms", tailOf(fetchMs, 99), len(fetchMs))
	m.set("live.fetch.lookup_share", ratio(lookupNs, rootNs), len(fetchMs))
	m.set("live.fetch.getchunk_share", ratio(getNs, rootNs), len(fetchMs))
	m.set("live.fetch.other_share", ratio(selfNs, rootNs), len(fetchMs))

	// Serve spans hang off the call that caused them: the call of that kind
	// and seq to this server that most tightly encloses the serve. The
	// in-memory fabric also tells the server who called; TCP tells it an
	// ephemeral port, so there enclosure is all there is to go by.
	type callKey struct {
		callee int
		kind   wire.Kind
		seq    int64
	}
	calls := make(map[callKey][]tracedCall)
	for v, node := range spans {
		for _, sp := range node {
			if !sp.server && traced(sp.seq) {
				k := callKey{s.index[sp.peer], sp.kind, sp.seq}
				calls[k] = append(calls[k], tracedCall{v, sp})
			}
		}
	}
	for i, node := range spans {
		for _, sp := range node {
			switch {
			case !sp.server && traced(sp.seq):
				// A call names its fetch root as parent; calls with none (the
				// source registering its own chunks) stand alone.
				parent := fmt.Sprintf("v%d/s%d", i, sp.seq)
				if !roots[parent] {
					parent = ""
				}
				ev := spanEvent(s, i, sp, parent)
				ev.Args["id"] = tracedCall{i, sp}.id()
				events = append(events, ev)
			case sp.server && traced(sp.seq):
				from, known := s.index[sp.peer]
				parent := ""
				latest := int64(-1)
				for _, c := range calls[callKey{i, sp.kind, sp.seq}] {
					if (!known || c.caller == from) && c.start <= sp.start && sp.end <= c.end && c.start > latest {
						parent, latest = c.id(), c.start
					}
				}
				events = append(events, spanEvent(s, i, sp, parent))
			case sp.seq < 0 && sp.start >= tracedLo && sp.start < tracedHi:
				events = append(events, spanEvent(s, i, sp, ""))
			}
		}
	}
	return events
}

// tracedCall is a client span with the node that made it.
type tracedCall struct {
	caller int
	span
}

// id names a call in the trace file: the fetch root it belongs to, the
// kind, and its start, which tells a retry from the first attempt.
func (c tracedCall) id() string {
	return fmt.Sprintf("v%d/s%d/%s@%d", c.caller, c.seq, kindNames[c.kind], c.start/1e3)
}

// layerOf names the package a message kind is handled by.
func layerOf(k wire.Kind) string {
	switch {
	case isMaintenance(k), isRouting(k), k == wire.KindLeave:
		return "dht"
	default:
		return "live"
	}
}

var kindNames = map[wire.Kind]string{
	wire.KindPing: "ping", wire.KindFindSuccessor: "findsuccessor", wire.KindGetState: "getstate",
	wire.KindNotify: "notify", wire.KindLookup: "lookup", wire.KindInsert: "insert",
	wire.KindGetChunk: "getchunk", wire.KindHandoff: "handoff", wire.KindLeave: "leave",
	wire.KindReplicateBatch: "replicate", wire.KindDigestReq: "digest", wire.KindCensusProbe: "census",
	wire.KindKadFindNode: "kadfindnode", wire.KindManifestReq: "manifest", wire.KindPollutionReport: "pollution",
}

// spanEvent renders one span. parent is the id of the span that caused it,
// for spans that name a chunk: the fetch root for a call, the call for a
// serve. Spans that name none hang off their node's routing or maintenance
// lane instead.
func spanEvent(s *swarm, node int, sp span, parent string) traceEvent {
	name := layerOf(sp.kind) + "." + kindNames[sp.kind]
	side := "call"
	if sp.server {
		side = "serve"
	}
	lane := sp.seq
	if sp.seq < 0 {
		switch {
		case isRouting(sp.kind):
			lane, parent = laneRouting, fmt.Sprintf("n%d/routing", node)
		case isMaintenance(sp.kind):
			lane, parent = laneMaintenance, fmt.Sprintf("n%d/maintenance", node)
		default:
			lane, parent = laneOther, fmt.Sprintf("n%d/other", node)
		}
	}
	peer, ok := s.index[sp.peer]
	if !ok {
		peer = -1
	}
	return traceEvent{Name: name + "." + side, Cat: layerOf(sp.kind), Ph: "X", Ts: float64(sp.start) / 1e3, Dur: float64(sp.dur()) / 1e3,
		Pid: node, Tid: lane, Args: map[string]any{"parent": parent, "peer": peer, "seq": sp.seq, "flags": sp.flags}}
}
