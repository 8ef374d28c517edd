package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"dco/internal/live"
	"dco/internal/sim"
	"dco/internal/stream"
	"dco/internal/telemetry"
	"dco/internal/transport"
	"dco/internal/wire"
)

// Probes time calls into one package's exported functions, on one
// goroutine, while nothing else runs: a layer's cost with no swarm around
// it. They are the same on every workload.

// probeCost is the mean cost of one call.
type probeCost struct {
	ns, allocs, bytes float64
	n                 int
}

// probeFor is how long one probe measures.
var probeFor = 150 * time.Millisecond

// probe runs fn in batches for probeFor (after a warm-up batch) and returns
// the per-call means; the first error fn returns ends it.
func probe(fn func() error) (probeCost, error) {
	const batch = 64
	run := func() error {
		for i := 0; i < batch; i++ {
			if err := fn(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := run(); err != nil {
		return probeCost{}, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	n := 0
	for time.Since(t0) < probeFor {
		if err := run(); err != nil {
			return probeCost{}, err
		}
		n += batch
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return probeCost{
		ns:     float64(el) / float64(n),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n),
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
		n:      n,
	}, nil
}

func entries(n int) []wire.Entry {
	es := make([]wire.Entry, n)
	for i := range es {
		es[i] = wire.Entry{ID: uint64(i+1) * 0x9E3779B97F4A7C15, Addr: fmt.Sprintf("127.0.0.1:%d", 7000+i)}
	}
	return es
}

// costFields names the metrics one probe fills: any of the three may be
// empty when the catalog has no such figure for it.
type costFields struct{ ns, allocs, bytes string }

func (f costFields) record(m Metrics, c probeCost) {
	if f.ns != "" {
		m.set(f.ns, c.ns, c.n)
	}
	if f.allocs != "" {
		m.set(f.allocs, c.allocs, c.n)
	}
	if f.bytes != "" {
		m.set(f.bytes, c.bytes, c.n)
	}
}

// probeWire round-trips one message of each shape through the codec.
func probeWire(m Metrics) error {
	es := entries(9)
	for _, p := range []struct {
		msg wire.Message
		f   costFields
	}{
		{&wire.ChunkResp{Seq: 42, OK: true, Data: make([]byte, 64*1024)},
			costFields{ns: "wire.chunkresp_64k.roundtrip_ns", bytes: "wire.chunkresp_64k.alloc_bytes"}},
		{&wire.ChunkResp{Seq: 42, OK: true, Data: make([]byte, 1024)},
			costFields{ns: "wire.chunkresp_1k.roundtrip_ns", bytes: "wire.chunkresp_1k.alloc_bytes"}},
		{&wire.LookupResp{Seq: 42, Providers: es[:8]},
			costFields{ns: "wire.lookupresp_8.roundtrip_ns", allocs: "wire.lookupresp_8.allocs"}},
		{&wire.Insert{Key: 1 << 60, Seq: 42, Holder: es[0], UpBps: 10_000_000, BufCount: 100, LoadMilli: 250, ManifestHead: 43, ManifestDigest: 7},
			costFields{ns: "wire.insert.roundtrip_ns", allocs: "wire.insert.allocs"}},
		{&wire.FindSuccessorResp{Done: true, Owner: es[0], Succs: es[1:], Pred: es[8], OK: true},
			costFields{ns: "wire.findsuccessorresp.roundtrip_ns", allocs: "wire.findsuccessorresp.allocs"}},
	} {
		var buf bytes.Buffer
		c, err := probe(func() error {
			buf.Reset()
			if err := wire.WriteMessage(&buf, p.msg); err != nil {
				return err
			}
			_, err := wire.ReadMessage(&buf)
			return err
		})
		if err != nil {
			return fmt.Errorf("wire probe: %w", err)
		}
		p.f.record(m, c)
	}
	return nil
}

// probeTransport times whole calls against an echo handler over loopback
// TCP and over the in-memory fabric.
func probeTransport(m Metrics) error {
	chunk := &wire.ChunkResp{Seq: 1, OK: true, Data: make([]byte, 64*1024)}
	echo := transport.HandlerFunc(func(_ string, req wire.Message) wire.Message {
		if _, ok := req.(*wire.GetChunk); ok {
			return chunk
		}
		return &wire.Pong{}
	})
	srv, err := transport.ListenTCP("127.0.0.1:0", echo)
	if err != nil {
		return err
	}
	defer srv.Close()
	cli, err := transport.ListenTCP("127.0.0.1:0", echo)
	if err != nil {
		return err
	}
	defer cli.Close()
	f := transport.NewFabric()
	memA, memB := f.Attach(echo), f.Attach(echo)
	for _, p := range []struct {
		tr   transport.Transport
		addr string
		req  wire.Message
		f    costFields
	}{
		{cli, srv.Addr(), &wire.Ping{},
			costFields{"transport.tcp.ping_call_ns", "transport.tcp.ping_allocs", "transport.tcp.ping_alloc_bytes"}},
		{cli, srv.Addr(), &wire.GetChunk{Seq: 1},
			costFields{ns: "transport.tcp.chunk_64k_call_ns", bytes: "transport.tcp.chunk_64k_alloc_bytes"}},
		{memA, memB.Addr(), &wire.Ping{},
			costFields{ns: "transport.mem.ping_call_ns", allocs: "transport.mem.ping_allocs"}},
	} {
		c, err := probe(func() error {
			_, err := p.tr.Call(p.addr, p.req, 5*time.Second)
			return err
		})
		if err != nil {
			return fmt.Errorf("transport probe: %w", err)
		}
		p.f.record(m, c)
	}
	return nil
}

// probeVerify times the integrity check of one 64 KiB chunk.
func probeVerify(m Metrics) error {
	p := stream.Params{Channel: "PROBE", ChunkBits: 64 * 1024 * 8, Period: time.Second}
	data := live.MakeChunkPayload(p, 7)
	c, err := probe(func() error {
		if !live.VerifyChunkPayload(p, 7, data) {
			return errors.New("verify probe: generated payload does not verify")
		}
		return nil
	})
	costFields{ns: "live.verify.chunk_64k_ns"}.record(m, c)
	return err
}

// probeBufferMap times marking a chunk held and listing the holes of a
// 1024-chunk window that is three quarters full.
func probeBufferMap(m Metrics) {
	bm := stream.NewBufferMap(0)
	seq := int64(0)
	c, _ := probe(func() error { // cannot fail
		bm.Set(seq & 0xFFFF)
		seq++
		return nil
	})
	costFields{ns: "stream.buffermap.set_ns"}.record(m, c)
	holes := stream.NewBufferMap(0)
	for s := int64(0); s < 1024; s++ {
		if s%4 != 0 {
			holes.Set(s)
		}
	}
	c, _ = probe(func() error { // cannot fail
		_ = holes.Missing(0, 1023, 16)
		return nil
	})
	costFields{ns: "stream.buffermap.missing_ns", allocs: "stream.buffermap.missing_allocs"}.record(m, c)
}

// probeKernel fires one million no-op events through the simulation kernel.
func probeKernel(m Metrics) {
	const n = 1_000_000
	k := sim.NewKernel(1)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		k.After(time.Duration(i%1000)*time.Microsecond, func() {})
		if i%1000 == 999 {
			k.Run()
		}
	}
	k.Run()
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	m.set("sim.kernel.ns_per_event", float64(el)/n, n)
	m.set("sim.kernel.allocs_per_event", float64(m1.Mallocs-m0.Mallocs)/n, n)
}

// probeKademlia stands up a 32-node in-memory swarm on the Kademlia
// backend with no stream, lets it settle, and measures routed lookups and
// the table-maintenance traffic of an idle overlay.
func probeKademlia(m Metrics, seed int64) error {
	const n = 32
	f := transport.NewFabric()
	nodes := make([]*live.Node, 0, n)
	regs := make([]*telemetry.Registry, 0, n)
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()
	for i := 0; i < n; i++ {
		cfg := live.DefaultNodeConfig()
		cfg.DHT = "kademlia"
		cfg.Source = i == 0
		cfg.RetrySeed = seed*1000 + int64(i) + 1
		// A one-chunk stream that viewers consider already over: Start()
		// runs table maintenance and nothing else.
		cfg.Channel.Count = 1
		cfg.StartSeq = 1
		cfg.Channel.Period = time.Hour
		reg := telemetry.NewRegistry()
		cfg.Telemetry = reg
		nd, err := live.NewNode(cfg, func(h transport.Handler) (transport.Transport, error) {
			mem := f.Attach(h)
			mem.SetMetrics(transport.NewMetrics(reg))
			return mem, nil
		})
		if err != nil {
			return fmt.Errorf("kademlia probe: %w", err)
		}
		nodes = append(nodes, nd)
		regs = append(regs, reg)
		if i > 0 {
			if err := nd.Join(nodes[0].Addr()); err != nil {
				return fmt.Errorf("kademlia probe: join: %w", err)
			}
		}
		nd.Start()
	}
	time.Sleep(1500 * time.Millisecond) // a few refresh rounds: tables fill
	counter := func(name string) (v uint64) {
		for _, r := range regs {
			v += r.Counter(name).Value()
		}
		return v
	}
	b0, t0 := counter("dco_transport_bytes_out_total"), time.Now()
	time.Sleep(2 * time.Second)
	idle := float64(counter("dco_transport_bytes_out_total")-b0) / time.Since(t0).Seconds() / n
	m.set("dht.kademlia.maintenance_bytes_per_node_s", idle, n)

	l0, h0 := counter("dco_dht_lookups_total"), counter("dco_dht_lookup_hops_total")
	findOwnerProbe(m, "dht.kademlia.find_owner", nodes, rand.New(rand.NewSource(seed)))
	lookups := counter("dco_dht_lookups_total") - l0
	m.set("dht.kademlia.hops_per_lookup", ratio(float64(counter("dco_dht_lookup_hops_total")-h0), float64(lookups)), int(lookups))
	return nil
}

// runProbes fills in every workload-independent per-layer metric.
func runProbes(m Metrics, seed int64) error {
	if err := probeWire(m); err != nil {
		return err
	}
	if err := probeTransport(m); err != nil {
		return err
	}
	if err := probeVerify(m); err != nil {
		return err
	}
	probeBufferMap(m)
	probeKernel(m)
	return probeKademlia(m, seed)
}
