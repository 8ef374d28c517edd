package main

// The "live" method benchmarks the real node stack (internal/live over the
// in-memory fabric) instead of the discrete-event simulator: a source plus
// n-1 viewers stream a bounded channel to completion, optionally killing
// one coordinator mid-stream, and the run reports the replication layer's
// cost and effect — index-insert bytes vs replication bytes (write
// amplification), digest traffic, takeovers, and lookup failures. This is
// what `dcosim -method live -json <file>` writes: an r=0 run is the PR 2
// baseline, an r>0 run shows the overhead replication adds and the outage
// it removes.

import (
	"fmt"
	"os"
	"time"

	"dco/internal/live"
)

// liveResult is the -json schema of a live-stack run. Field names are
// stable — reports written with -json and CI trend checks parse them.
type liveResult struct {
	Method           string  `json:"method"`
	N                int     `json:"n"`
	Chunks           int64   `json:"chunks"`
	Replicas         int     `json:"replicas"`
	KilledCoord      bool    `json:"killed_coordinator"`
	WallSeconds      float64 `json:"wall_seconds"`
	DeliveredPercent float64 `json:"delivered_percent"` // min over surviving viewers
	LookupFailures   uint64  `json:"lookup_failures"`
	Takeovers        uint64  `json:"takeovers"`
	ReplicaOps       uint64  `json:"replica_ops_applied"`
	DigestRepairs    uint64  `json:"digest_repairs"`
	IndexInsertBytes uint64  `json:"index_insert_bytes"`
	ReplicateBytes   uint64  `json:"replicate_bytes"`
	DigestBytes      uint64  `json:"digest_bytes"`
	// InsertAmplification = (insert + replicate bytes) / insert bytes: how
	// many times each index byte is written ring-wide. Bounded by
	// amplificationBound.
	InsertAmplification float64 `json:"insert_amplification"`
}

// amplificationBound is the most index bytes the ring may write per Insert
// byte at replication factor r. Each op goes to the owner once and to at
// most r replicas, and a replicated op (49 bytes on the wire with an
// 8-character address) is smaller than the 78-byte Insert that caused it,
// hence r+1.
func amplificationBound(r int) float64 { return float64(r + 1) }

// runLive executes the live-stack benchmark.
func runLive(a liveArgs) (any, error) {
	chunks, replicas := a.chunks, a.replicas
	cfg := live.DefaultNodeConfig()
	live.FastLocalTimings(&cfg)
	cfg.Channel.Period = 30 * time.Millisecond
	cfg.Channel.ChunkBits = 8 * 1024
	cfg.Channel.Count = chunks
	cfg.Replicas = replicas
	cfg.ReplicateEvery = 25 * time.Millisecond
	cfg.AntiEntropyEvery = 250 * time.Millisecond

	s, err := live.NewSwarm(live.SwarmSpec{N: a.n, Base: cfg})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	start := time.Now()
	if err := s.Up(); err != nil {
		return nil, err
	}

	// Optionally kill one viewer (= one coordinator: every member owns a
	// slice of the key space) once the stream is under way.
	watching := s.Viewers()
	killed := a.kill && len(watching) > 2
	if killed {
		time.Sleep(time.Duration(chunks) * cfg.Channel.Period / 3)
		victim := watching[len(watching)/2]
		victim.Close()
		watching = live.Without(watching, victim)
	}

	if err := s.WaitUntil(3*time.Minute, "the stream to complete", func() bool {
		return live.MinDelivered(watching, chunks) >= 100
	}); err != nil {
		fmt.Fprintf(os.Stderr, "dcosim: live: %v\n", err)
	}
	wall := time.Since(start)

	tot := live.SumStats(s.Nodes)
	res := liveResult{
		Method:           "live",
		N:                a.n,
		Chunks:           chunks,
		Replicas:         replicas,
		KilledCoord:      killed,
		WallSeconds:      wall.Seconds(),
		DeliveredPercent: live.MinDelivered(watching, chunks),
		LookupFailures:   tot.LookupFailures,
		Takeovers:        tot.IndexTakeovers,
		ReplicaOps:       tot.ReplicaOpsApplied,
		DigestRepairs:    tot.DigestRepairs,
		IndexInsertBytes: tot.IndexInsertBytes,
		ReplicateBytes:   tot.ReplicateBytes,
		DigestBytes:      tot.DigestBytes,
	}
	if res.IndexInsertBytes > 0 {
		res.InsertAmplification = float64(res.IndexInsertBytes+res.ReplicateBytes) / float64(res.IndexInsertBytes)
	}

	fmt.Printf("method=live n=%d chunks=%d replicas=%d killed=%v\n", a.n, chunks, replicas, res.KilledCoord)
	fmt.Printf("wall time:               %v\n", wall.Round(time.Millisecond))
	fmt.Printf("delivered (min viewer):  %.2f%%\n", res.DeliveredPercent)
	fmt.Printf("lookup failures:         %d\n", res.LookupFailures)
	fmt.Printf("takeovers:               %d (replica ops applied: %d, digest repairs: %d)\n",
		res.Takeovers, res.ReplicaOps, res.DigestRepairs)
	fmt.Printf("index insert bytes:      %d\n", res.IndexInsertBytes)
	fmt.Printf("replication bytes:       %d\n", res.ReplicateBytes)
	fmt.Printf("digest bytes:            %d\n", res.DigestBytes)
	fmt.Printf("insert amplification:    %.2fx (bound: %gx)\n", res.InsertAmplification, amplificationBound(replicas))

	if res.DeliveredPercent < 100 {
		return res, fmt.Errorf("delivered %.2f%% < 100%%", res.DeliveredPercent)
	}
	if replicas > 0 && res.InsertAmplification >= amplificationBound(replicas) {
		return res, fmt.Errorf("insert amplification %.2fx reached its bound of %gx", res.InsertAmplification, amplificationBound(replicas))
	}
	return res, nil
}
