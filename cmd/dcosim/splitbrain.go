package main

// The "splitbrain" method benchmarks split-brain detection and ring merge
// on the real node stack: a streaming swarm is bisected by a seeded
// network partition until both halves converge into self-consistent
// rings, then healed. The run measures how long the census takes to merge
// the halves back into a single ring — with no manual rejoin anywhere —
// and whether the data plane fully recovers afterward (no exhausted
// lookups post-merge, fill ratio back at 1). This is what
// `dcosim -method splitbrain -json <file>` writes.

import (
	"errors"
	"fmt"
	"time"

	"dco/internal/faulty"
	"dco/internal/health"
	"dco/internal/live"
	"dco/internal/retry"
)

// splitResult is the -json schema of a splitbrain run. Field names are
// stable — reports written with -json and CI trend checks parse them.
type splitResult struct {
	Method         string  `json:"method"`
	N              int     `json:"n"`
	Chunks         int64   `json:"chunks"`
	Seed           int64   `json:"seed"`
	CensusEveryMs  int64   `json:"census_every_ms"`
	SplitSeconds   float64 `json:"split_seconds"`              // partition start → both halves converged
	MergeSeconds   float64 `json:"merge_seconds"`              // heal → single ring again
	CensusRounds   int64   `json:"census_rounds"`              // merge time in census periods (ceil)
	SplitsDetected uint64  `json:"splits_detected"`            // confirmed detections across the swarm
	RingMerges     uint64  `json:"ring_merges"`                // completed merge protocols
	PostMergeFails uint64  `json:"post_merge_lookup_failures"` // exhausted lookups after the merge (want 0)
	FillRatioMin   float64 `json:"fill_ratio_min"`             // min over viewers at the end (want >= 0.99)
	WallSeconds    float64 `json:"wall_seconds"`
}

// runSplitBrain executes the split-brain benchmark.
func runSplitBrain(a liveArgs) (any, error) {
	const censusEvery = 100 * time.Millisecond
	chunks := a.chunks
	cfg := live.DefaultNodeConfig()
	live.FastLocalTimings(&cfg)
	cfg.Channel.Period = 100 * time.Millisecond
	cfg.Channel.ChunkBits = 8 * 1024
	cfg.Channel.Count = chunks
	cfg.Replicas = 2
	cfg.Retry = retry.Policy{
		MaxAttempts:    3,
		InitialBackoff: 10 * time.Millisecond,
		MaxBackoff:     80 * time.Millisecond,
		Budget:         time.Second,
	}
	cfg.Breaker = health.CircuitConfig{Threshold: 5, Cooldown: 500 * time.Millisecond}
	cfg.ProviderCooldown = 400 * time.Millisecond
	cfg.CensusEvery = censusEvery

	in := faulty.NewInjector(uint64(a.seed))
	s, err := live.NewSwarm(live.SwarmSpec{N: a.n, Base: cfg, Wrap: in.Wrap})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if err := s.Up(); err != nil {
		return nil, err
	}
	start := time.Now()
	all := s.Nodes

	if err := s.WaitUntil(30*time.Second, "the initial ring to converge", func() bool {
		return live.RingCorrect(all)
	}); err != nil {
		return nil, err
	}

	// Bisect mid-stream: the source and half the viewers on one side, the
	// rest on the other. Addresses are fixed, so the same seed cuts the
	// same halves.
	var groupA, groupB []string
	var sideA, sideB []*live.Node
	for i, nd := range all {
		if i%2 == 0 {
			groupA = append(groupA, nd.Addr())
			sideA = append(sideA, nd)
		} else {
			groupB = append(groupB, nd.Addr())
			sideB = append(sideB, nd)
		}
	}
	splitStart := time.Now()
	in.Partition(groupA, groupB)
	if err := s.WaitUntil(60*time.Second, "both halves to converge into their own rings", func() bool {
		return live.RingCorrect(sideA) && live.RingCorrect(sideB)
	}); err != nil {
		return nil, err
	}
	splitDur := time.Since(splitStart)

	// Heal and measure the census-driven merge. Nothing calls Join from
	// here on: detection, confirmation, table folding, and the stabilize
	// cascade must reunify the ring on their own.
	healAt := time.Now()
	in.Heal()
	if err := s.WaitUntil(60*time.Second, "the census to merge the rings after the heal", func() bool {
		return live.RingCorrect(all)
	}); err != nil {
		return nil, err
	}
	mergeDur := time.Since(healAt)

	// Let in-flight pre-merge lookups drain, then count exhausted lookups
	// from here to the end of the run: the merged ring must not lose any.
	time.Sleep(time.Second)
	failsBefore := live.SumStats(all).LookupFailures

	// Fill recovery: the half cut off from the source catches up on the
	// full stream through the reunified ring.
	if err := s.WaitUntil(3*time.Minute, "all viewers to recover the full stream", func() bool {
		return live.MinDelivered(s.Viewers(), chunks) >= 100
	}); err != nil {
		return nil, err
	}
	if !live.RingCorrect(all) {
		return nil, errors.New("ring did not stay single after the merge")
	}

	tot := live.SumStats(all)
	res := splitResult{
		Method:         "splitbrain",
		N:              a.n,
		Chunks:         chunks,
		Seed:           a.seed,
		CensusEveryMs:  censusEvery.Milliseconds(),
		SplitSeconds:   splitDur.Seconds(),
		MergeSeconds:   mergeDur.Seconds(),
		CensusRounds:   int64((mergeDur + censusEvery - 1) / censusEvery),
		SplitsDetected: tot.SplitsDetected,
		RingMerges:     tot.RingMerges,
		PostMergeFails: tot.LookupFailures - failsBefore,
		FillRatioMin:   live.MinDelivered(s.Viewers(), chunks) / 100,
		WallSeconds:    time.Since(start).Seconds(),
	}

	fmt.Printf("method=splitbrain n=%d chunks=%d seed=%d\n", a.n, chunks, a.seed)
	fmt.Printf("partition converged in:  %v (two rings)\n", splitDur.Round(time.Millisecond))
	fmt.Printf("merge after heal:        %v (%d census rounds)\n", mergeDur.Round(time.Millisecond), res.CensusRounds)
	fmt.Printf("splits detected:         %d (merges completed: %d)\n", res.SplitsDetected, res.RingMerges)
	fmt.Printf("post-merge lookup fails: %d\n", res.PostMergeFails)
	fmt.Printf("fill ratio (min viewer): %.3f\n", res.FillRatioMin)
	fmt.Printf("wall time:               %v\n", time.Duration(res.WallSeconds*float64(time.Second)).Round(time.Millisecond))

	switch {
	case res.SplitsDetected == 0 || res.RingMerges == 0:
		return res, fmt.Errorf("the census never ran a merge (splits detected %d, merges %d)", res.SplitsDetected, res.RingMerges)
	case res.PostMergeFails > 0:
		return res, fmt.Errorf("%d lookups exhausted their candidates after the merge", res.PostMergeFails)
	case res.FillRatioMin < 0.99:
		return res, fmt.Errorf("fill ratio %.3f < 0.99", res.FillRatioMin)
	}
	return res, nil
}
