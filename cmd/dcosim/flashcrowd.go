package main

// The "flashcrowd" method benchmarks the admission-control layer on the
// real node stack: n-1 viewers all join a 1-source stream within one chunk
// period while the source's upload budget covers only a couple of chunk
// serves per period. The run reports how the overload was absorbed —
// lookups the coordinators held at a provider's cap, source bytes vs its
// paced budget, sheds and the retry hints they carried, and the delivered
// percentage the crowd still reached by feeding itself. This is what
// `dcosim -method flashcrowd -json <file>` writes.

import (
	"fmt"
	"os"
	"time"

	"dco/internal/live"
)

// flashResult is the -json schema of a flash-crowd run. Field names are
// stable — reports written with -json and CI trend checks parse them.
type flashResult struct {
	Method           string  `json:"method"`
	N                int     `json:"n"`
	Chunks           int64   `json:"chunks"`
	SourceUpBps      int64   `json:"source_up_bps"`
	JoinSeconds      float64 `json:"join_seconds"` // how long the whole crowd took to arrive
	WallSeconds      float64 `json:"wall_seconds"`
	DeliveredPercent float64 `json:"delivered_percent"` // min over viewers
	SourceServed     uint64  `json:"source_served_chunks"`
	SourceBytes      uint64  `json:"source_served_bytes"`
	BudgetBytes      float64 `json:"source_budget_bytes"` // UpBps x wall + burst
	LookupsHeld      uint64  `json:"lookups_held"`        // lookups coordinators held at a provider's cap, each once; nearly every crowd lookup of a fresh seq is held at the source's, so at n = 512, seed 42 it repeats within ±4 % (42.8k–45.9k in 4 runs)
	Sheds            uint64  `json:"sheds"`               // Busy rejections at the source
	PacedServes      uint64  `json:"paced_serves"`
	BusyNacks        uint64  `json:"busy_nacks"`          // Busy responses seen by viewers
	HintlessNacks    uint64  `json:"busy_nacks_hintless"` // of those, without RetryAfterMs (want 0)
	Abandoned        uint64  `json:"chunks_abandoned"`
}

// runFlashCrowd executes the flash-crowd benchmark.
func runFlashCrowd(a liveArgs) (any, error) {
	const chunkBytes = 1024
	chunks, srcUpBps := a.chunks, a.srcUpBps
	cfg := live.DefaultNodeConfig()
	live.FastLocalTimings(&cfg)
	cfg.Channel.Period = 150 * time.Millisecond
	cfg.Channel.ChunkBits = chunkBytes * 8
	cfg.Channel.Count = chunks
	cfg.FetchDeadlineChunks = 150

	// The crowd: every viewer joins the running source at once.
	s, err := live.NewSwarm(live.SwarmSpec{
		N: a.n, Base: cfg, Crowd: true,
		Tune: func(i int, c *live.Config) {
			if i == 0 {
				c.UpBps = srcUpBps
				c.AdmitQueue = 8
			}
		},
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	start := time.Now()
	if err := s.Up(); err != nil {
		return nil, err
	}
	joinDur := time.Since(start)

	if err := s.WaitUntil(3*time.Minute, "the stream to complete", func() bool {
		return live.MinDelivered(s.Viewers(), chunks) >= 95
	}); err != nil {
		fmt.Fprintf(os.Stderr, "dcosim: flashcrowd: %v\n", err)
	}
	wall := time.Since(start)

	srcStats := s.Source().Stats()
	crowd := live.SumStats(s.Viewers())
	burst := float64(4 * chunkBytes)
	if q := float64(srcUpBps) / 8 / 4; q > burst {
		burst = q
	}
	res := flashResult{
		Method:           "flashcrowd",
		N:                a.n,
		Chunks:           chunks,
		SourceUpBps:      srcUpBps,
		JoinSeconds:      joinDur.Seconds(),
		WallSeconds:      wall.Seconds(),
		DeliveredPercent: live.MinDelivered(s.Viewers(), chunks),
		SourceServed:     srcStats.ChunksServed,
		SourceBytes:      srcStats.ChunksServed * chunkBytes,
		BudgetBytes:      float64(srcUpBps)/8*wall.Seconds() + burst,
		LookupsHeld:      live.SumStats(s.Nodes).LookupsHeld,
		Sheds:            srcStats.ChunksShedBusy,
		PacedServes:      srcStats.PacedServes,
		BusyNacks:        crowd.BusyNacksSeen,
		HintlessNacks:    crowd.BusyNacksHintless,
		Abandoned:        crowd.ChunksAbandoned,
	}

	fmt.Printf("method=flashcrowd n=%d chunks=%d source_upbps=%d\n", a.n, chunks, srcUpBps)
	fmt.Printf("crowd join time:         %v\n", joinDur.Round(time.Millisecond))
	fmt.Printf("wall time:               %v\n", wall.Round(time.Millisecond))
	fmt.Printf("delivered (min viewer):  %.2f%%\n", res.DeliveredPercent)
	fmt.Printf("source served:           %d chunks (%d bytes; paced budget %.0f bytes)\n",
		res.SourceServed, res.SourceBytes, res.BudgetBytes)
	fmt.Printf("lookups held at cap:     %d\n", res.LookupsHeld)
	fmt.Printf("sheds at source:         %d (paced serves: %d)\n", res.Sheds, res.PacedServes)
	fmt.Printf("busy nacks at viewers:   %d (%d without retry hint)\n", res.BusyNacks, res.HintlessNacks)
	fmt.Printf("chunks abandoned:        %d\n", res.Abandoned)

	switch {
	case res.DeliveredPercent < 95:
		return res, fmt.Errorf("delivered %.2f%% < 95%%", res.DeliveredPercent)
	case res.HintlessNacks > 0:
		return res, fmt.Errorf("%d Busy nacks carried no retry hint", res.HintlessNacks)
	case float64(res.SourceBytes) > res.BudgetBytes:
		return res, fmt.Errorf("source served %d bytes, over its paced budget of %.0f", res.SourceBytes, res.BudgetBytes)
	}
	return res, nil
}
