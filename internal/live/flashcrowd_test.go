package live

import (
	"testing"
	"time"

	"dco/internal/stream"
	"dco/internal/telemetry"
)

// TestFlashCrowdSoak is the PR 4 acceptance scenario: 30 viewers all join
// a 1-source stream inside one chunk period while the source's upload
// budget covers barely two chunk serves per period. The admission layer
// must turn that stampede into an orderly spread:
//
//   - every viewer still delivers >= 95% of the stream (the crowd feeds
//     itself once chunks escape the source);
//   - the source's served bytes stay inside UpBps x elapsed + burst — the
//     pacer actually enforced the configured budget;
//   - sheds happened (the test exercised overload, it didn't pass by
//     having capacity to spare) and every Busy nack the viewers saw
//     carried a nonzero RetryAfterMs hint;
//   - shutdown completes promptly: no fetch worker is wedged on a chunk
//     nobody will ever serve.
func TestFlashCrowdSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		nViewers   = 30
		nChunks    = 20
		chunkBytes = 1024
	)
	period := 150 * time.Millisecond

	cfg := fastConfig()
	cfg.Channel = stream.Params{Channel: "FC", ChunkBits: chunkBytes * 8, Period: period, Count: nChunks}
	cfg.Trace = telemetry.NewTrace(4096)
	cfg.FetchDeadlineChunks = 150 // generous playback horizon; abandonment is the backstop, not the plan
	cfg.UpBps = 8_000_000
	s := testSwarm(t, SwarmSpec{N: 1 + nViewers, Base: cfg, Crowd: true, Tune: func(i int, cfg *Config) {
		if i == 0 {
			cfg.UpBps = 120_000 // ~2 chunk serves per period: the crowd must share
			cfg.AdmitQueue = 8
		}
	}})
	src, viewers := s.Source(), s.Viewers()

	// The flash crowd: every viewer joins the running source concurrently.
	// The arrival guard below measures joins alone — fetch pipelines start
	// after the guard, so instrumentation overhead (race detector) in the
	// fetch storm cannot masquerade as slow arrival.
	src.Start()
	start := time.Now()
	if err := s.join(); err != nil {
		t.Fatalf("flash-crowd join: %v", err)
	}
	if d := time.Since(start); d > period {
		t.Fatalf("crowd took %v to join; the scenario requires arrival inside one period (%v)", d, period)
	}
	for _, nd := range viewers {
		nd.Start()
	}

	// Delivery: >= 95% of the stream at every viewer.
	await(t, s, 120*time.Second, "every viewer to deliver >= 95% of the stream", func() bool {
		return MinDelivered(viewers, nChunks) >= 95
	})
	elapsed := time.Since(start)

	// Budget: the source's chunk bytes never exceeded rate x time + burst.
	srcStats := src.Stats()
	servedBytes := float64(srcStats.ChunksServed * chunkBytes)
	burst := float64(4 * chunkBytes) // the derived default for this config
	if q := float64(src.cfg.UpBps) / 8 / 4; q > burst {
		burst = q
	}
	budget := float64(src.cfg.UpBps)/8*elapsed.Seconds() + burst + chunkBytes
	if servedBytes > budget {
		t.Errorf("source served %.0f chunk bytes in %v, exceeding its paced budget of %.0f", servedBytes, elapsed, budget)
	}

	// Overload was real: the source shed requests, and every Busy nack the
	// viewers saw carried a usable retry hint.
	if srcStats.ChunksShedBusy == 0 {
		t.Error("source never shed a request; the flash crowd did not exercise admission control")
	}
	crowd := SumStats(viewers)
	if crowd.BusyNacksSeen == 0 {
		t.Error("no viewer ever saw a Busy nack despite source sheds")
	}
	if crowd.BusyNacksHintless != 0 {
		t.Errorf("%d Busy nacks arrived without a RetryAfterMs hint, want 0", crowd.BusyNacksHintless)
	}
	t.Logf("flash crowd: elapsed=%v source_served=%d sheds=%d paced=%d nacks=%d abandoned=%d",
		elapsed.Round(time.Millisecond), srcStats.ChunksServed, srcStats.ChunksShedBusy, srcStats.PacedServes,
		crowd.BusyNacksSeen, crowd.ChunksAbandoned)

	// Shutdown must not wedge: every fetch worker exits promptly.
	if wedged := s.Close(); wedged != 0 {
		t.Fatalf("shutdown wedged: %d nodes failed to close", wedged)
	}
}
