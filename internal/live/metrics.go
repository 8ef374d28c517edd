package live

import (
	"fmt"
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

// liveMetrics is the node's metric set on one telemetry registry. A node
// without a configured registry gets a private one, so every counter is
// always a real atomic — Stats() reads them lock-free either way, and the
// chunk serve path never takes n.mu just to count.
type liveMetrics struct {
	reg   *telemetry.Registry
	trace *telemetry.Trace

	lookupsServed  *telemetry.Counter
	lookupsHeld    *telemetry.Counter // lookups parked because every usable provider was at its cap
	insertsServed  *telemetry.Counter
	chunksServed   *telemetry.Counter
	chunksFetched  *telemetry.Counter
	fetchRetries   *telemetry.Counter
	busyRejections *telemetry.Counter

	// Admission control (admission.go): serves that found the chunk gone,
	// serves paced by the upload budget, chunks a viewer gave up on past
	// its playback horizon, and Busy nacks seen from the viewer side
	// (split by whether the provider attached a RetryAfterMs hint).
	chunksMissed      *telemetry.Counter
	pacedServes       *telemetry.Counter
	chunksAbandoned   *telemetry.Counter
	busyNacks         *telemetry.Counter
	busyNacksHintless *telemetry.Counter

	// Gray-failure defense (streamer.go hedging + protocol.go deadline
	// sheds): hedges launched past the primary's latency estimate, hedges
	// whose duplicate answered first, losers left in flight after a win,
	// and serves shed because the requester's propagated deadline could no
	// longer be met.
	hedgesLaunched  *telemetry.Counter
	hedgeWins       *telemetry.Counter
	hedgesCancelled *telemetry.Counter
	deadlineSheds   *telemetry.Counter

	lookupFailovers      *telemetry.Counter
	providersBlacklisted *telemetry.Counter
	rpcRetries           *telemetry.Counter
	retryBackoffNs       *telemetry.Counter
	breakerOpens         *telemetry.Counter
	breakerCloses        *telemetry.Counter

	republishes *telemetry.Counter

	// Owner-arc cache (backend.go): index requests sent along a cached arc,
	// requests that had to route first, requests a cached owner bounced (a
	// stale arc: one extra round trip) — and index inserts given up on
	// after both attempts.
	routeHits           *telemetry.Counter
	routeMisses         *telemetry.Counter
	routeRedirects      *telemetry.Counter
	indexInsertFailures *telemetry.Counter

	// Replication layer (replication.go): batch/op volume out, ops folded
	// in, takeover promotions, anti-entropy repair volume, lease expiry,
	// and the byte meters the write-amplification benchmark reads.
	replicateOps      *telemetry.Counter
	replicateBatches  *telemetry.Counter
	replicaOpsApplied *telemetry.Counter
	takeovers         *telemetry.Counter
	takeoverEntries   *telemetry.Counter
	digestRounds      *telemetry.Counter
	digestRepairOps   *telemetry.Counter
	indexExpired      *telemetry.Counter
	lookupFailures    *telemetry.Counter
	indexInsertBytes  *telemetry.Counter
	replicateBytes    *telemetry.Counter
	digestBytes       *telemetry.Counter

	// Ring census & split-brain merge (census.go): probes sent/answered,
	// confirmed split detections, and completed merge protocols.
	censusProbes   *telemetry.Counter
	censusAnswered *telemetry.Counter
	splitsDetected *telemetry.Counter
	ringMerges     *telemetry.Counter

	// Pollution defense (integrity.go): chunks dropped at the buffer choke
	// point, peers this node quarantined, index inserts rejected by the
	// hardening gate (rate limit counted separately), pollution reports in
	// both directions, and load reports the contradiction clamps discounted.
	integrityRejects     *telemetry.Counter
	peersQuarantined     *telemetry.Counter
	insertsRateLimited   *telemetry.Counter
	insertsRejected      *telemetry.Counter
	pollutionReportsSent *telemetry.Counter
	pollutionReportsSeen *telemetry.Counter
	loadReportsClamped   *telemetry.Counter

	// chunkFetchSeconds is the per-chunk acquisition latency — from the
	// moment a viewer starts working on a chunk until it is buffered,
	// lookup wait and provider failovers included. This is the live
	// analogue of the paper's mesh-delay metric (metric 1), observed as a
	// distribution instead of the simulator's whole-network mean.
	chunkFetchSeconds *telemetry.Histogram
	lookupSeconds     *telemetry.Histogram

	// replicationLag is the queue-to-flush delay of replicated index ops:
	// how stale a replica can be when its owner dies (the takeover window).
	replicationLag *telemetry.Histogram

	// serveQueueSeconds is the pace delay admitted chunk serves sat out
	// before sending — the provider-side half of admission latency.
	serveQueueSeconds *telemetry.Histogram

	// mergeSeconds is the duration of one split-brain merge protocol run:
	// confirmation lookup through table folding, notifies, and post-merge
	// index reconciliation.
	mergeSeconds *telemetry.Histogram
}

// newLiveMetrics registers the node's metric set on reg (creating a
// private registry when nil — counters must exist for Stats() even on
// uninstrumented nodes). Registries are per node: two nodes sharing one
// would share counters.
func newLiveMetrics(reg *telemetry.Registry, tr *telemetry.Trace) *liveMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &liveMetrics{
		reg:   reg,
		trace: tr,

		lookupsServed:  reg.Counter("dco_live_lookups_served_total"),
		lookupsHeld:    reg.Counter("dco_live_lookups_held_total"),
		insertsServed:  reg.Counter("dco_live_inserts_served_total"),
		chunksServed:   reg.Counter("dco_live_chunks_served_total"),
		chunksFetched:  reg.Counter("dco_live_chunks_fetched_total"),
		fetchRetries:   reg.Counter("dco_live_fetch_retries_total"),
		busyRejections: reg.Counter("dco_live_busy_rejections_total"),

		chunksMissed:      reg.Counter("dco_live_chunks_missed_total"),
		pacedServes:       reg.Counter("dco_live_paced_serves_total"),
		chunksAbandoned:   reg.Counter("dco_live_chunks_abandoned_total"),
		busyNacks:         reg.Counter("dco_live_busy_nacks_total"),
		busyNacksHintless: reg.Counter("dco_live_busy_nacks_hintless_total"),

		hedgesLaunched:  reg.Counter("dco_live_hedges_launched_total"),
		hedgeWins:       reg.Counter("dco_live_hedge_wins_total"),
		hedgesCancelled: reg.Counter("dco_live_hedges_cancelled_total"),
		deadlineSheds:   reg.Counter("dco_live_deadline_sheds_total"),

		lookupFailovers:      reg.Counter("dco_live_lookup_failovers_total"),
		providersBlacklisted: reg.Counter("dco_live_providers_blacklisted_total"),
		rpcRetries:           reg.Counter("dco_retry_attempts_total"),
		retryBackoffNs:       reg.Counter("dco_retry_backoff_ns_total"),
		breakerOpens:         reg.Counter("dco_breaker_opens_total"),
		breakerCloses:        reg.Counter("dco_breaker_closes_total"),

		republishes: reg.Counter("dco_live_republishes_total"),

		routeHits:           reg.Counter("dco_live_route_cache_hits_total"),
		routeMisses:         reg.Counter("dco_live_route_cache_misses_total"),
		routeRedirects:      reg.Counter("dco_live_route_cache_redirects_total"),
		indexInsertFailures: reg.Counter("dco_live_index_insert_failures_total"),

		replicateOps:      reg.Counter("dco_live_replicate_ops_total"),
		replicateBatches:  reg.Counter("dco_live_replicate_batches_total"),
		replicaOpsApplied: reg.Counter("dco_live_replica_ops_applied_total"),
		takeovers:         reg.Counter("dco_live_takeovers_total"),
		takeoverEntries:   reg.Counter("dco_live_takeover_entries_total"),
		digestRounds:      reg.Counter("dco_live_digest_rounds_total"),
		digestRepairOps:   reg.Counter("dco_live_digest_repair_ops_total"),
		indexExpired:      reg.Counter("dco_live_index_expired_total"),
		lookupFailures:    reg.Counter("dco_live_lookup_failures_total"),
		indexInsertBytes:  reg.Counter("dco_live_index_insert_bytes_total"),
		replicateBytes:    reg.Counter("dco_live_replicate_bytes_total"),
		digestBytes:       reg.Counter("dco_live_digest_bytes_total"),

		censusProbes:   reg.Counter("dco_live_census_probes_total"),
		censusAnswered: reg.Counter("dco_live_census_answered_total"),
		splitsDetected: reg.Counter("dco_live_splits_detected_total"),
		ringMerges:     reg.Counter("dco_live_ring_merges_total"),

		integrityRejects:     reg.Counter("dco_live_integrity_rejects_total"),
		peersQuarantined:     reg.Counter("dco_live_peers_quarantined_total"),
		insertsRateLimited:   reg.Counter("dco_live_inserts_rate_limited_total"),
		insertsRejected:      reg.Counter("dco_live_inserts_rejected_total"),
		pollutionReportsSent: reg.Counter("dco_live_pollution_reports_sent_total"),
		pollutionReportsSeen: reg.Counter("dco_live_pollution_reports_total"),
		loadReportsClamped:   reg.Counter("dco_live_load_reports_discounted_total"),

		chunkFetchSeconds: reg.Histogram("dco_live_chunk_fetch_seconds", telemetry.DefLatencyBuckets),
		lookupSeconds:     reg.Histogram("dco_live_lookup_seconds", telemetry.DefLatencyBuckets),
		replicationLag:    reg.Histogram("dco_live_replication_lag_seconds", telemetry.DefLatencyBuckets),
		serveQueueSeconds: reg.Histogram("dco_live_serve_queue_seconds", telemetry.DefLatencyBuckets),
		mergeSeconds:      reg.Histogram("dco_live_merge_seconds", telemetry.DefLatencyBuckets),
	}
}

// registerGauges installs the scrape-time computed gauges: the node's view
// of the paper's fill-ratio and delivered-percentage metrics plus table
// sizes. They lock n.mu only when scraped.
func (n *Node) registerGauges() {
	reg := n.lm.reg
	reg.GaugeFunc("dco_live_buffered_chunks", func() float64 {
		return float64(n.ChunkCount())
	})
	reg.GaugeFunc("dco_live_fill_ratio", func() float64 {
		have, want := n.fillState()
		if want == 0 {
			return 0
		}
		r := float64(have) / float64(want)
		if r > 1 {
			r = 1
		}
		return r
	})
	reg.GaugeFunc("dco_live_delivered_percent", func() float64 {
		_, want := n.fillState()
		if want == 0 {
			return 0
		}
		var got uint64
		if n.cfg.Source {
			got = uint64(want) // the source holds everything it generated
		} else {
			got = n.lm.chunksFetched.Value()
		}
		p := 100 * float64(got) / float64(want)
		if p > 100 {
			p = 100
		}
		return p
	})
	reg.GaugeFunc("dco_live_load_milli", func() float64 {
		return float64(n.pace.loadMilli())
	})
	reg.GaugeFunc("dco_live_admit_queue_depth", func() float64 {
		return float64(n.pace.queueDepth())
	})
	reg.GaugeFunc("dco_live_index_entries", func() float64 {
		return float64(n.idx.Len())
	})
	reg.GaugeFunc("dco_live_blacklist_size", func() float64 {
		_, _, cooling := n.health.Counts()
		return float64(cooling)
	})
	reg.GaugeFunc("dco_live_suspected_peers", func() float64 {
		suspected, _, _ := n.health.Counts()
		return float64(suspected)
	})
	reg.GaugeFunc("dco_live_quarantined_peers", func() float64 {
		_, quarantined, _ := n.health.Counts()
		return float64(quarantined)
	})
	// The registry has no labels, so the per-peer integrity demerit gauge
	// is surfaced as the worst score across peers — enough to alarm on.
	reg.GaugeFunc("dco_live_integrity_demerits_max", func() float64 {
		return n.health.MaxIntegrityScore()
	})
	reg.GaugeFunc("dco_live_replica_owners", func() float64 {
		owners, _ := n.ReplicaCounts()
		return float64(owners)
	})
	reg.GaugeFunc("dco_live_replica_entries", func() float64 {
		_, entries := n.ReplicaCounts()
		return float64(entries)
	})
	reg.GaugeFunc("dco_live_member_cache_size", func() float64 {
		return float64(n.MemberCacheLen())
	})
	reg.GaugeFunc("dco_live_foreign_members", func() float64 {
		return float64(n.ForeignMembers())
	})
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
	n.lm.rpcRetries.Inc()
	n.lm.retryBackoffNs.Add(uint64(pause))
	if n.lm.trace != nil {
		n.traceEvent("rpc.retry", fmt.Sprintf("peer=%s attempt=%d pause=%s err=%v", addr, attempt, pause, err))
	}
}

func (n *Node) onCircuit(addr string, opened bool) {
	if opened {
		n.lm.breakerOpens.Inc()
		n.traceEvent("breaker.open", addr)
	} else {
		n.lm.breakerCloses.Inc()
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
