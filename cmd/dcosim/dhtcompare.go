package main

// The "dhtcompare" method benchmarks the two DHT backends head to head on
// the real node stack under the same scenario: a flash-crowd join (every
// viewer arrives concurrently), a full bounded stream, and a mid-stream
// coordinator kill. For each backend it reports the three columns the
// backend swap is judged on — the lookup hop distribution, the control
// byte overhead (total transport bytes minus chunk payload bytes), and
// the coordinator recovery time (kill -> a surviving node's lookup for
// the victim's keyspace resolves to a survivor). This is what
// `dcosim -method dhtcompare -json <file>` writes.

import (
	"fmt"
	"math"
	"os"
	"time"

	"dco/internal/live"
)

// dhtBackendResult is one backend's run. Field names are stable —
// reports written with -json and CI trend checks parse them.
type dhtBackendResult struct {
	Backend          string  `json:"backend"`
	WallSeconds      float64 `json:"wall_seconds"`
	DeliveredPercent float64 `json:"delivered_percent"` // min over surviving viewers

	// Lookup hop distribution, summed over every node's
	// dco_dht_lookup_hops histogram.
	Lookups     uint64            `json:"lookups"`
	HopMean     float64           `json:"hop_mean"`
	HopP50      float64           `json:"hop_p50"` // whole hops: the quantile rounded up
	HopP95      float64           `json:"hop_p95"`
	HopByBucket map[string]uint64 `json:"hops_by_bucket"`

	// Control overhead: transport bytes out that are not chunk payload,
	// summed over every node.
	ControlBytes  uint64  `json:"control_bytes"`
	DataBytes     uint64  `json:"data_bytes"`
	OverheadRatio float64 `json:"overhead_ratio"` // control / data

	// Coordinator recovery: kill -> a survivor's FindOwner for the
	// victim's own ID resolves to a live member.
	RecoverySeconds float64 `json:"recovery_seconds"`
	Takeovers       uint64  `json:"takeovers"`
	LookupFailures  uint64  `json:"lookup_failures"`
}

// dhtCompareResult is the -json schema of a dhtcompare run.
type dhtCompareResult struct {
	Method   string             `json:"method"`
	N        int                `json:"n"`
	Chunks   int64              `json:"chunks"`
	Seed     int64              `json:"seed"`
	Backends []dhtBackendResult `json:"backends"`
}

// runDHTBackend executes the shared scenario on one backend. The scenario
// is deterministic up to scheduling; the seed is recorded for provenance
// only.
func runDHTBackend(backend string, n int, chunks int64) (*dhtBackendResult, error) {
	cfg := live.DefaultNodeConfig()
	live.FastLocalTimings(&cfg)
	cfg.DHT = backend
	cfg.Channel.Period = 60 * time.Millisecond
	cfg.Channel.ChunkBits = 8 * 1024
	cfg.Channel.Count = chunks
	cfg.Replicas = 2
	cfg.ReplicateEvery = 25 * time.Millisecond
	cfg.AntiEntropyEvery = 250 * time.Millisecond

	// Flash-crowd arrival: every viewer joins concurrently.
	s, err := live.NewSwarm(live.SwarmSpec{N: n, Base: cfg, Crowd: true})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	start := time.Now()
	if err := s.Up(); err != nil {
		return nil, err
	}

	// Mid-stream coordinator kill: a viewer in the middle of the arrival
	// order. Recovery is measured by polling a survivor's lookup for the
	// victim's own ID — the key most certainly inside the victim's range.
	time.Sleep(time.Duration(chunks) * cfg.Channel.Period / 3)
	victim := s.Viewers()[len(s.Viewers())/2]
	survivors := live.Without(s.Viewers(), victim)
	probe := survivors[0]
	killAt := time.Now()
	victim.Close()
	if err := s.WaitUntil(60*time.Second, "a survivor to route the victim's keyspace to a live member", func() bool {
		owner, _, err := probe.FindOwner(victim.ID())
		return err == nil && owner.Addr != victim.Addr()
	}); err != nil {
		return nil, err
	}
	recovery := time.Since(killAt)

	// Run the stream to completion on the survivors.
	if err := s.WaitUntil(3*time.Minute, "the stream to complete", func() bool {
		return live.MinDelivered(survivors, chunks) >= 100
	}); err != nil {
		fmt.Fprintf(os.Stderr, "dcosim: dhtcompare(%s): %v\n", backend, err)
	}
	wall := time.Since(start)

	tot := live.SumStats(s.Nodes)
	snap := s.Snapshot()
	hops := snap.Histograms["dco_dht_lookup_hops"]
	data := snap.Counters["dco_transport_data_bytes_out_total"]
	res := &dhtBackendResult{
		Backend:          backend,
		WallSeconds:      wall.Seconds(),
		DeliveredPercent: live.MinDelivered(survivors, chunks),
		Lookups:          hops.Count,
		HopByBucket:      map[string]uint64{},
		ControlBytes:     snap.Counters["dco_transport_bytes_out_total"] - data,
		DataBytes:        data,
		RecoverySeconds:  recovery.Seconds(),
		Takeovers:        tot.IndexTakeovers,
		LookupFailures:   tot.LookupFailures,
	}
	if res.Lookups > 0 {
		res.HopMean = hops.Sum / float64(res.Lookups)
		res.HopP50 = math.Ceil(live.HistQuantile(hops, 0.50))
		res.HopP95 = math.Ceil(live.HistQuantile(hops, 0.95))
	}
	for i, c := range hops.Counts {
		if i < len(hops.Bounds) {
			res.HopByBucket[fmt.Sprintf("le_%g", hops.Bounds[i])] = c
		} else {
			res.HopByBucket["le_inf"] = c
		}
	}
	if res.DataBytes > 0 {
		res.OverheadRatio = float64(res.ControlBytes) / float64(res.DataBytes)
	}
	return res, nil
}

// runDHTCompare executes the head-to-head benchmark.
func runDHTCompare(a liveArgs) (any, error) {
	res := dhtCompareResult{Method: "dhtcompare", N: a.n, Chunks: a.chunks, Seed: a.seed}
	for _, backend := range []string{"chord", "kademlia"} {
		fmt.Printf("--- backend=%s n=%d chunks=%d (flash-crowd join, coordinator kill at t/3)\n", backend, a.n, a.chunks)
		b, err := runDHTBackend(backend, a.n, a.chunks)
		if err != nil {
			return nil, fmt.Errorf("backend %s: %w", backend, err)
		}
		fmt.Printf("wall time:               %v\n", time.Duration(b.WallSeconds*float64(time.Second)).Round(time.Millisecond))
		fmt.Printf("delivered (min viewer):  %.2f%%\n", b.DeliveredPercent)
		fmt.Printf("lookups:                 %d (hops mean=%.2f p50=%g p95=%g)\n", b.Lookups, b.HopMean, b.HopP50, b.HopP95)
		fmt.Printf("control bytes:           %d (data %d, overhead ratio %.3f)\n", b.ControlBytes, b.DataBytes, b.OverheadRatio)
		fmt.Printf("coordinator recovery:    %v (takeovers %d, lookup failures %d)\n",
			time.Duration(b.RecoverySeconds*float64(time.Second)).Round(time.Millisecond), b.Takeovers, b.LookupFailures)
		res.Backends = append(res.Backends, *b)
	}
	for _, b := range res.Backends {
		if b.DeliveredPercent < 95 || b.Lookups == 0 || b.DataBytes == 0 {
			return res, fmt.Errorf("backend %s failed acceptance (delivered=%.2f lookups=%d data=%d)",
				b.Backend, b.DeliveredPercent, b.Lookups, b.DataBytes)
		}
	}
	return res, nil
}
