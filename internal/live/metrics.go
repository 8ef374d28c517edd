package live

import (
	"fmt"
	"reflect"
	"strconv"
	"time"

	"dco/internal/telemetry"
)

// Metric-name conventions (see DESIGN.md, "Observability"): everything the
// live node records is prefixed dco_live_*, transport-level metrics are
// dco_transport_* (internal/transport), retry/breaker metrics dco_retry_* /
// dco_breaker_*, DHT-kernel metrics dco_dht_* (backend-neutral, both
// kernels), dco_ring_* (Chord maintenance, internal/chordkern) and
// dco_kad_* (Kademlia table state, internal/kademlia). Counters end in
// _total; histograms carry base units (_seconds); gauges are bare nouns.

// liveMetrics is the node's metric set on one telemetry registry. Each
// counter and histogram is declared once, here: the field's tag is its
// metric name, newLiveMetrics registers every tagged field, and Stats()
// copies each counter whose field name matches a Stats field. A node
// without a configured registry gets a private one, so every counter is
// always a real atomic — Stats() reads them lock-free either way, and the
// chunk serve path never takes n.mu just to count. Every histogram uses
// telemetry.DefLatencyBuckets.
type liveMetrics struct {
	reg   *telemetry.Registry
	trace *telemetry.Trace

	LookupsServed  *telemetry.Counter `metric:"dco_live_lookups_served_total"`
	LookupsHeld    *telemetry.Counter `metric:"dco_live_lookups_held_total"` // lookups parked because every usable provider was at its cap
	InsertsServed  *telemetry.Counter `metric:"dco_live_inserts_served_total"`
	ChunksServed   *telemetry.Counter `metric:"dco_live_chunks_served_total"`
	ChunksFetched  *telemetry.Counter `metric:"dco_live_chunks_fetched_total"`
	FetchRetries   *telemetry.Counter `metric:"dco_live_fetch_retries_total"`
	ChunksShedBusy *telemetry.Counter `metric:"dco_live_busy_rejections_total"`

	// Admission control (admission.go): serves that found the chunk gone,
	// serves paced by the upload budget, chunks a viewer gave up on past
	// its playback horizon, and Busy nacks seen from the viewer side
	// (split by whether the provider attached a RetryAfterMs hint).
	ChunksMissed      *telemetry.Counter `metric:"dco_live_chunks_missed_total"`
	PacedServes       *telemetry.Counter `metric:"dco_live_paced_serves_total"`
	ChunksAbandoned   *telemetry.Counter `metric:"dco_live_chunks_abandoned_total"`
	BusyNacksSeen     *telemetry.Counter `metric:"dco_live_busy_nacks_total"`
	BusyNacksHintless *telemetry.Counter `metric:"dco_live_busy_nacks_hintless_total"`

	// Gray-failure defense (streamer.go hedging + protocol.go deadline
	// sheds): hedges launched past the primary's latency estimate, hedges
	// whose duplicate answered first, losers left in flight after a win,
	// and serves shed because the requester's propagated deadline could no
	// longer be met.
	HedgesLaunched  *telemetry.Counter `metric:"dco_live_hedges_launched_total"`
	HedgeWins       *telemetry.Counter `metric:"dco_live_hedge_wins_total"`
	HedgesCancelled *telemetry.Counter `metric:"dco_live_hedges_cancelled_total"`
	DeadlineSheds   *telemetry.Counter `metric:"dco_live_deadline_sheds_total"`

	LookupFailovers      *telemetry.Counter `metric:"dco_live_lookup_failovers_total"`
	ProvidersBlacklisted *telemetry.Counter `metric:"dco_live_providers_blacklisted_total"`
	CallRetries          *telemetry.Counter `metric:"dco_retry_attempts_total"`
	RetryBackoffNs       *telemetry.Counter `metric:"dco_retry_backoff_ns_total"`
	BreakerOpens         *telemetry.Counter `metric:"dco_breaker_opens_total"`
	BreakerCloses        *telemetry.Counter `metric:"dco_breaker_closes_total"`

	Republishes *telemetry.Counter `metric:"dco_live_republishes_total"`

	// Owner-arc cache (backend.go): index requests sent along a cached arc,
	// requests that had to route first, requests a cached owner bounced (a
	// stale arc: one extra round trip) — and fresh index inserts that
	// failed.
	RouteCacheHits      *telemetry.Counter `metric:"dco_live_route_cache_hits_total"`
	RouteCacheMisses    *telemetry.Counter `metric:"dco_live_route_cache_misses_total"`
	RouteCacheRedirects *telemetry.Counter `metric:"dco_live_route_cache_redirects_total"`
	IndexInsertFailures *telemetry.Counter `metric:"dco_live_index_insert_failures_total"`

	// Replication layer (replication.go): batch/op volume out, ops folded
	// in, takeover promotions, anti-entropy repair volume, lease expiry,
	// and the byte meters the write-amplification benchmark reads.
	ReplicateOps      *telemetry.Counter `metric:"dco_live_replicate_ops_total"`
	ReplicateBatches  *telemetry.Counter `metric:"dco_live_replicate_batches_total"`
	ReplicaOpsApplied *telemetry.Counter `metric:"dco_live_replica_ops_applied_total"`
	IndexTakeovers    *telemetry.Counter `metric:"dco_live_takeovers_total"`
	TakeoverEntries   *telemetry.Counter `metric:"dco_live_takeover_entries_total"`
	DigestRounds      *telemetry.Counter `metric:"dco_live_digest_rounds_total"`
	DigestRepairs     *telemetry.Counter `metric:"dco_live_digest_repair_ops_total"`
	ProvidersExpired  *telemetry.Counter `metric:"dco_live_index_expired_total"`
	LookupFailures    *telemetry.Counter `metric:"dco_live_lookup_failures_total"`
	IndexInsertBytes  *telemetry.Counter `metric:"dco_live_index_insert_bytes_total"`
	ReplicateBytes    *telemetry.Counter `metric:"dco_live_replicate_bytes_total"`
	DigestBytes       *telemetry.Counter `metric:"dco_live_digest_bytes_total"`

	// Ring census & split-brain merge (census.go): probes sent/answered,
	// confirmed split detections, and completed merge protocols.
	CensusProbes   *telemetry.Counter `metric:"dco_live_census_probes_total"`
	CensusAnswered *telemetry.Counter `metric:"dco_live_census_answered_total"`
	SplitsDetected *telemetry.Counter `metric:"dco_live_splits_detected_total"`
	RingMerges     *telemetry.Counter `metric:"dco_live_ring_merges_total"`

	// Pollution defense (integrity.go): chunks dropped at the buffer choke
	// point, peers this node quarantined, index inserts rejected by the
	// hardening gate (rate limit counted separately), pollution reports in
	// both directions, and load reports the contradiction clamps discounted.
	IntegrityRejects     *telemetry.Counter `metric:"dco_live_integrity_rejects_total"`
	PeersQuarantined     *telemetry.Counter `metric:"dco_live_peers_quarantined_total"`
	InsertsRateLimited   *telemetry.Counter `metric:"dco_live_inserts_rate_limited_total"`
	InsertsRejected      *telemetry.Counter `metric:"dco_live_inserts_rejected_total"`
	PollutionReportsSent *telemetry.Counter `metric:"dco_live_pollution_reports_sent_total"`
	PollutionReportsSeen *telemetry.Counter `metric:"dco_live_pollution_reports_total"`
	LoadReportsClamped   *telemetry.Counter `metric:"dco_live_load_reports_discounted_total"`

	// ChunkFetchSeconds is the per-chunk acquisition latency — from the
	// moment a viewer starts working on a chunk until it is buffered,
	// lookup wait and provider failovers included. This is the live
	// analogue of the paper's mesh-delay metric (metric 1), observed as a
	// distribution instead of the simulator's whole-network mean.
	ChunkFetchSeconds *telemetry.Histogram `metric:"dco_live_chunk_fetch_seconds"`
	LookupSeconds     *telemetry.Histogram `metric:"dco_live_lookup_seconds"`

	// ReplicationLag is the queue-to-flush delay of replicated index ops:
	// how stale a replica can be when its owner dies (the takeover window).
	ReplicationLag *telemetry.Histogram `metric:"dco_live_replication_lag_seconds"`

	// ServeQueueSeconds is the pace delay admitted chunk serves sat out
	// before sending — the provider-side half of admission latency.
	ServeQueueSeconds *telemetry.Histogram `metric:"dco_live_serve_queue_seconds"`

	// MergeSeconds is the duration of one split-brain merge protocol run:
	// confirmation lookup through table folding, notifies, and post-merge
	// index reconciliation.
	MergeSeconds *telemetry.Histogram `metric:"dco_live_merge_seconds"`
}

// newLiveMetrics registers every tagged field of the node's metric set on
// reg (creating a private registry when nil — counters must exist for
// Stats() even on uninstrumented nodes). Registries are per node: two
// nodes sharing one would share counters.
func newLiveMetrics(reg *telemetry.Registry, tr *telemetry.Trace) *liveMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	lm := &liveMetrics{reg: reg, trace: tr}
	v := reflect.ValueOf(lm).Elem()
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Tag.Get("metric"); name != "" {
			switch p := v.Field(i).Addr().Interface().(type) {
			case **telemetry.Counter:
				*p = reg.Counter(name)
			case **telemetry.Histogram:
				*p = reg.Histogram(name, telemetry.DefLatencyBuckets)
			}
		}
	}
	return lm
}

// statCounters pairs the index of each Stats field with that of the
// liveMetrics counter of the same name, resolved once; Stats() copies the
// counters along these pairs.
var statCounters = func() (pairs [][2]int) {
	lm, st := reflect.TypeOf(liveMetrics{}), reflect.TypeOf(Stats{})
	for i := 0; i < st.NumField(); i++ {
		if f, ok := lm.FieldByName(st.Field(i).Name); ok {
			pairs = append(pairs, [2]int{i, f.Index[0]})
		}
	}
	return pairs
}()

// Stats returns a snapshot of the node's counters, read lock-free from
// the telemetry registry, and of the peer table's current counts.
func (n *Node) Stats() Stats {
	suspected, quarantined, _ := n.health.Counts()
	st := Stats{SuspectedPeers: uint64(suspected), QuarantinedPeers: uint64(quarantined)}
	out, lm := reflect.ValueOf(&st).Elem(), reflect.ValueOf(n.lm).Elem()
	for _, p := range statCounters {
		out.Field(p[0]).SetUint(lm.Field(p[1]).Interface().(*telemetry.Counter).Value())
	}
	return st
}

// registerGauges installs the scrape-time computed gauges: the node's view
// of the paper's fill-ratio and delivered-percentage metrics plus table
// sizes. They lock n.mu only when scraped.
func (n *Node) registerGauges() {
	for name, fn := range map[string]func() float64{
		"dco_live_buffered_chunks": func() float64 { return float64(n.ChunkCount()) },
		"dco_live_fill_ratio":      func() float64 { return share(n.fillState()) },
		"dco_live_delivered_percent": func() float64 {
			_, want := n.fillState()
			got := int64(n.lm.ChunksFetched.Value())
			if n.cfg.Source {
				got = want // the source holds everything it generated
			}
			return 100 * share(got, want)
		},
		"dco_live_load_milli":        func() float64 { return float64(n.pace.loadMilli()) },
		"dco_live_admit_queue_depth": func() float64 { return float64(n.pace.queueDepth()) },
		"dco_live_index_entries":     func() float64 { return float64(n.idx.Len()) },
		"dco_live_blacklist_size":    func() float64 { _, _, c := n.health.Counts(); return float64(c) },
		"dco_live_suspected_peers":   func() float64 { s, _, _ := n.health.Counts(); return float64(s) },
		"dco_live_quarantined_peers": func() float64 { _, q, _ := n.health.Counts(); return float64(q) },
		// The registry has no labels, so the per-peer integrity demerit
		// gauge is surfaced as the worst score across peers — enough to
		// alarm on.
		"dco_live_integrity_demerits_max": n.health.MaxIntegrityScore,
		"dco_live_replica_owners":         func() float64 { o, _ := n.ReplicaCounts(); return float64(o) },
		"dco_live_replica_entries":        func() float64 { _, e := n.ReplicaCounts(); return float64(e) },
		"dco_live_member_cache_size":      func() float64 { return float64(n.MemberCacheLen()) },
		"dco_live_foreign_members":        func() float64 { return float64(n.ForeignMembers()) },
	} {
		n.lm.reg.GaugeFunc(name, fn)
	}
}

// share is got/want capped at 1, and 0 while nothing is wanted.
func share(got, want int64) float64 {
	if want == 0 {
		return 0
	}
	return min(float64(got)/float64(want), 1)
}

// fillState returns (chunks held, chunks the node should currently hold):
// the newest sequence it knows of bounds the demand, and the active window
// caps it — the live buffer-fill-ratio analogue of the paper's metric 2.
func (n *Node) fillState() (have, want int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	have = int64(len(n.chunks))
	if n.latestGen < n.cfg.StartSeq {
		return have, 0
	}
	return have, min(n.latestGen-n.cfg.StartSeq+1, int64(n.window))
}

// onRetry and onCircuit are the retrier's and the peer table's observer
// seams: retries and circuit transitions, counted and traced.
func (n *Node) onRetry(addr string, attempt int, pause time.Duration, err error) {
	n.lm.CallRetries.Inc()
	n.lm.RetryBackoffNs.Add(uint64(pause))
	if n.lm.trace != nil {
		n.traceEvent("rpc.retry", fmt.Sprintf("peer=%s attempt=%d pause=%s err=%v", addr, attempt, pause, err))
	}
}

func (n *Node) onCircuit(addr string, opened bool) {
	if opened {
		n.lm.BreakerOpens.Inc()
		n.traceEvent("breaker.open", addr)
	} else {
		n.lm.BreakerCloses.Inc()
		n.traceEvent("breaker.close", addr)
	}
}

// traceEvent records a protocol event attributed to this node.
func (n *Node) traceEvent(kind, detail string) {
	if n.lm.trace != nil {
		n.lm.trace.Record(kind, n.tr.Addr(), detail)
	}
}

func seqDetail(seq int64) string { return "seq=" + strconv.FormatInt(seq, 10) }

// traceSeq and traceSeqPeer record the per-chunk events of the fetch and
// serve paths — "seq=N" and "seq=N role=peer". They build the detail only
// when a trace is attached: an untraced node must not pay an allocation per
// chunk for strings nobody reads.
func (n *Node) traceSeq(kind string, seq int64) {
	if n.lm.trace != nil {
		n.traceEvent(kind, seqDetail(seq))
	}
}

func (n *Node) traceSeqPeer(kind string, seq int64, role, peer string) {
	if n.lm.trace != nil {
		n.traceEvent(kind, seqDetail(seq)+" "+role+"="+peer)
	}
}
