package live

import (
	"testing"
	"time"

	"dco/internal/stream"
	"dco/internal/telemetry"
)

// TestFlashCrowdSoak is the PR 4 acceptance scenario: 30 viewers all join
// a 1-source stream over loopback TCP inside one chunk period, and start
// fetching it from seq 0 once the source leads by six chunks, while the
// source's upload budget covers barely two chunk serves per period. The
// coordinators' bandwidth rule and the admission layer must turn that
// stampede into an orderly spread:
//
//   - every viewer still delivers >= 95% of the stream (the crowd feeds
//     itself once chunks escape the source);
//   - the source's served bytes stay inside UpBps x elapsed + burst — the
//     pacer actually enforced the configured budget;
//   - the overload was real (the test didn't pass by having capacity to
//     spare): coordinators held lookups at the source's cap, the source
//     paced serves, and every Busy nack the viewers saw carried a nonzero
//     RetryAfterMs hint;
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
		lead       = 6 // chunks the source has generated when the crowd starts fetching
	)
	period := 150 * time.Millisecond

	cfg := fastConfig()
	cfg.Channel = stream.Params{Channel: "FC", ChunkBits: chunkBytes * 8, Period: period, Count: nChunks}
	cfg.Trace = telemetry.NewTrace(4096)
	cfg.FetchDeadlineChunks = 150 // generous playback horizon; abandonment is the backstop, not the plan
	cfg.UpBps = 8_000_000
	// TCP, not the Mem fabric: a Mem call runs on the caller's goroutine, so
	// on a busy host one woken viewer's lookup answer, fetch and
	// registration could run back to back before the other lookups the same
	// registration woke were scheduled, and the crowd reached the
	// coordinator one viewer at a time.
	s := testSwarm(t, SwarmSpec{N: 1 + nViewers, Base: cfg, Crowd: true, TCP: true, Tune: func(i int, cfg *Config) {
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
	// The crowd starts behind the live edge, so its catch-up is a burst on
	// the source. At the live edge it asks the source for two copies of each
	// chunk a period, which the source's budget (2.2) covers without a pace
	// delay.
	waitFor(t, 10*time.Second, "the source to lead the crowd", func() bool { return src.LatestGenerated() >= lead-1 })
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

	// Overload was real: the coordinators held lookups at the source's cap
	// and the source paced serves; every Busy nack the viewers saw carried a
	// usable retry hint.
	held := SumStats(s.Nodes).LookupsHeld
	if held == 0 {
		t.Error("no coordinator ever held a lookup at a provider's cap; the flash crowd did not exercise the bandwidth rule")
	}
	if srcStats.PacedServes == 0 {
		t.Error("the source never paced a serve; the flash crowd did not exercise admission control")
	}
	crowd := SumStats(viewers)
	if crowd.BusyNacksHintless != 0 {
		t.Errorf("%d Busy nacks arrived without a RetryAfterMs hint, want 0", crowd.BusyNacksHintless)
	}
	t.Logf("flash crowd: elapsed=%v source_served=%d held=%d sheds=%d paced=%d nacks=%d abandoned=%d",
		elapsed.Round(time.Millisecond), srcStats.ChunksServed, held, srcStats.ChunksShedBusy, srcStats.PacedServes,
		crowd.BusyNacksSeen, crowd.ChunksAbandoned)

	// Shutdown must not wedge: every fetch worker exits promptly.
	if wedged := s.Close(); wedged != 0 {
		t.Fatalf("shutdown wedged: %d nodes failed to close", wedged)
	}
}
