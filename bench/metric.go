package main

// Metric is one measured value. N is the number of samples behind it
// (operations timed, spans seen, probe iterations); 0 when the value is a
// plain counter ratio.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// Metrics maps metric name to value.
type Metrics map[string]Metric

// tier says which run a metric is taken from. Whether a metric is listed
// end-to-end or per-layer is BENCHMARK.json's decision, not the catalog's.
type tier int

const (
	// tierUser metrics are what a user of the system sees. They always come
	// from untraced runs, so tracing never perturbs them.
	tierUser tier = iota
	// tierLayer metrics describe one layer; they come from the traced run
	// and the probes.
	tierLayer
)

type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	tier   tier
}

// catalog is every metric the harness can emit, in report order. Names are
// final: later changes are read against them. A metric a workload cannot
// produce (a live.* figure on the simulator workload, say) reads 0 there.
var catalog = []metricDef{
	{"setup_s", "s", "lower", tierUser},
	{"alloc_bytes_per_chunk", "B", "lower", tierUser},
	{"allocs_per_chunk", "count", "lower", tierUser},
	{"peak_rss_mb", "MB", "lower", tierUser},
	{"cpu_us_per_chunk", "us", "lower", tierUser},
	{"delivery_p50_ms", "ms", "lower", tierUser},
	{"delivery_p99_ms", "ms", "lower", tierUser},
	{"failed_fraction", "ratio", "lower", tierUser},
	{"control_bytes_per_data_byte", "B/B", "lower", tierUser},
	{"startup_p50_ms", "ms", "lower", tierUser},
	{"fill_time_s", "s", "lower", tierUser},
	{"sim_events_per_s", "1/s", "higher", tierUser},
	{"sim_host_ms_per_sim_s", "ms/s", "lower", tierUser},

	{"wire.chunkresp_64k.roundtrip_ns", "ns", "lower", tierLayer},
	{"wire.chunkresp_64k.alloc_bytes", "B", "lower", tierLayer},
	{"wire.chunkresp_1k.roundtrip_ns", "ns", "lower", tierLayer},
	{"wire.chunkresp_1k.alloc_bytes", "B", "lower", tierLayer},
	{"wire.lookupresp_8.roundtrip_ns", "ns", "lower", tierLayer},
	{"wire.lookupresp_8.allocs", "count", "lower", tierLayer},
	{"wire.insert.roundtrip_ns", "ns", "lower", tierLayer},
	{"wire.insert.allocs", "count", "lower", tierLayer},
	{"wire.findsuccessorresp.roundtrip_ns", "ns", "lower", tierLayer},
	{"wire.findsuccessorresp.allocs", "count", "lower", tierLayer},

	{"transport.tcp.ping_call_ns", "ns", "lower", tierLayer},
	{"transport.tcp.ping_allocs", "count", "lower", tierLayer},
	{"transport.tcp.ping_alloc_bytes", "B", "lower", tierLayer},
	{"transport.tcp.chunk_64k_call_ns", "ns", "lower", tierLayer},
	{"transport.tcp.chunk_64k_alloc_bytes", "B", "lower", tierLayer},
	{"transport.mem.ping_call_ns", "ns", "lower", tierLayer},
	{"transport.mem.ping_allocs", "count", "lower", tierLayer},
	{"transport.calls_per_chunk", "count", "lower", tierLayer},
	{"transport.bytes_per_chunk", "B", "lower", tierLayer},
	{"transport.pool_hit_ratio", "ratio", "higher", tierLayer},
	{"transport.call_error_ratio", "ratio", "lower", tierLayer},

	{"dht.find_owner_p50_us", "us", "lower", tierLayer},
	{"dht.find_owner_p99_us", "us", "lower", tierLayer},
	{"dht.hops_per_lookup", "count", "lower", tierLayer},
	{"dht.routing_calls_per_chunk", "count", "lower", tierLayer},
	{"dht.maintenance_calls_per_node_s", "1/s", "lower", tierLayer},
	{"dht.maintenance_bytes_per_node_s", "B/s", "lower", tierLayer},
	{"dht.ring_converge_s", "s", "lower", tierLayer},
	{"dht.kademlia.find_owner_p50_us", "us", "lower", tierLayer},
	{"dht.kademlia.hops_per_lookup", "count", "lower", tierLayer},
	{"dht.kademlia.maintenance_bytes_per_node_s", "B/s", "lower", tierLayer},

	{"live.lookup.serve_p50_us", "us", "lower", tierLayer},
	{"live.lookup.serve_p99_us", "us", "lower", tierLayer},
	{"live.lookup.calls_per_chunk", "count", "lower", tierLayer},
	{"live.lookup.empty_ratio", "ratio", "lower", tierLayer},
	{"live.insert.serve_p50_us", "us", "lower", tierLayer},
	{"live.insert.calls_per_chunk", "count", "lower", tierLayer},
	{"live.insert.busy_ratio", "ratio", "lower", tierLayer},
	{"live.getchunk.serve_p50_us", "us", "lower", tierLayer},
	{"live.getchunk.serve_p99_us", "us", "lower", tierLayer},
	{"live.getchunk.calls_per_chunk", "count", "lower", tierLayer},
	{"live.getchunk.busy_ratio", "ratio", "lower", tierLayer},
	{"live.getchunk.miss_ratio", "ratio", "lower", tierLayer},
	{"live.replicate.calls_per_chunk", "count", "lower", tierLayer},
	{"live.replicate.bytes_per_chunk", "B", "lower", tierLayer},
	{"live.replicate.serve_p50_us", "us", "lower", tierLayer},
	{"live.digest.bytes_per_node_s", "B/s", "lower", tierLayer},
	{"live.manifest.calls_per_chunk", "count", "lower", tierLayer},
	{"live.manifest.serve_p50_us", "us", "lower", tierLayer},
	{"live.census.calls_per_node_s", "1/s", "lower", tierLayer},
	{"live.fetch.p50_ms", "ms", "lower", tierLayer},
	{"live.fetch.p99_ms", "ms", "lower", tierLayer},
	{"live.fetch.lookup_share", "ratio", "lower", tierLayer},
	{"live.fetch.getchunk_share", "ratio", "lower", tierLayer},
	{"live.fetch.other_share", "ratio", "lower", tierLayer},
	{"live.fetch.retries_per_chunk", "count", "lower", tierLayer},
	{"live.hedges_per_chunk", "count", "lower", tierLayer},
	{"live.hedge_win_ratio", "ratio", "higher", tierLayer},
	{"live.pace.wait_p50_ms", "ms", "lower", tierLayer},
	{"live.sheds_per_chunk", "count", "lower", tierLayer},
	{"live.source_serve_share", "ratio", "lower", tierLayer},
	{"live.verify.chunk_64k_ns", "ns", "lower", tierLayer},
	{"live.generator_late_p99_ms", "ms", "lower", tierLayer},

	{"stream.buffermap.set_ns", "ns", "lower", tierLayer},
	{"stream.buffermap.missing_ns", "ns", "lower", tierLayer},
	{"stream.buffermap.missing_allocs", "count", "lower", tierLayer},

	{"runtime.cpu_us_per_chunk_mean", "us", "lower", tierLayer},
	{"runtime.ref_kernel_us", "us", "lower", tierLayer},
	{"runtime.mutex_wait_us_per_chunk", "us", "lower", tierLayer},
	{"runtime.gc_cpu_fraction", "ratio", "lower", tierLayer},
	{"runtime.gc_pause_ms_total", "ms", "lower", tierLayer},
	{"runtime.goroutines_peak", "count", "lower", tierLayer},

	{"sim.kernel.ns_per_event", "ns", "lower", tierLayer},
	{"sim.kernel.allocs_per_event", "count", "lower", tierLayer},
	{"sim.dco.host_s", "s", "lower", tierLayer},
	{"sim.dco.events", "count", "lower", tierLayer},
	{"sim.dco.alloc_bytes_per_event", "B", "lower", tierLayer},
	{"sim.pull.host_s", "s", "lower", tierLayer},
	{"sim.pull.events", "count", "lower", tierLayer},
	{"sim.churn.host_s", "s", "lower", tierLayer},
	{"sim.churn.events", "count", "lower", tierLayer},
	{"core.dco.mesh_delay_s", "s", "lower", tierLayer},
	{"core.dco.overhead_msgs", "count", "lower", tierLayer},
	{"overlay.pull.overhead_msgs", "count", "lower", tierLayer},
	{"core.churn.received_pct", "%", "higher", tierLayer},

	{"trace.overhead_ratio", "ratio", "lower", tierLayer},
}

var catalogByName = func() map[string]metricDef {
	m := make(map[string]metricDef, len(catalog))
	for _, d := range catalog {
		m[d.name] = d
	}
	return m
}()

// set records a value under a catalogued name; the unit comes from the
// catalog so a metric cannot be reported in two units. An unknown name is
// a bug in the harness.
func (m Metrics) set(name string, value float64, n int) {
	d, ok := catalogByName[name]
	if !ok {
		panic("bench: metric " + name + " is not in the catalog")
	}
	m[name] = Metric{Value: value, Unit: d.unit, N: n}
}

// names returns m's catalogued keys in catalog order.
func (m Metrics) names() []string {
	out := make([]string, 0, len(m))
	for _, d := range catalog {
		if _, ok := m[d.name]; ok {
			out = append(out, d.name)
		}
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (an idle layer did no work; its ratios
// read 0, not NaN, so every report is valid JSON).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
