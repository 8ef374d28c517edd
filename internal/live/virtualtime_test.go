//go:build goexperiment.synctest

package live

// Swarms in virtual time: each run stands up an unchanged Mem-fabric
// Swarm inside a testing/synctest bubble, where the clock only moves when
// every goroutine of the bubble is blocked, so seconds of streaming take
// milliseconds and no host load stretches a deadline. Run with
//
//	GOEXPERIMENT=synctest GODEBUG=asynctimerchan=0 go test -run TestCrowd ./internal/live/
//
// (go.mod's go 1.22 selects the asynchronous timer channels, which
// synctest.Run refuses, unless GODEBUG says otherwise).

import (
	"fmt"
	"testing"
	"testing/synctest"
	"time"

	"dco/internal/stream"
)

// TestCrowdHoldsEveryChunk: a crowd that joins a running stream holds the
// whole of it within a bound of virtual time after it starts — no seq's
// rows sit where its owner cannot find them until the holders' next
// refresh. Runs differ only in the order goroutines woken at the same
// instant run in, so each size runs many times, on each backend.
func TestCrowdHoldsEveryChunk(t *testing.T) {
	for _, dht := range []string{"chord", "kademlia"} {
		for _, tc := range []struct {
			n, runs int
			within  time.Duration
		}{
			{n: 32, runs: 20, within: 2 * time.Second},
			{n: 128, runs: 5, within: 4 * time.Second},
		} {
			failed := 0
			for run := 0; run < tc.runs; run++ {
				var err error
				synctest.Run(func() { err = crowdRun(dht, tc.n, tc.within) })
				if err != nil {
					failed++
					t.Errorf("%s n=%d run %d: %v", dht, tc.n, run, err)
				}
			}
			if failed > 0 {
				t.Errorf("%s n=%d: %d of %d runs left a viewer short after %v", dht, tc.n, failed, tc.runs, tc.within)
			}
		}
	}
}

// crowdRun streams, on the dht backend, 40 × 1 KiB chunks at 40 ms from a source that runs
// alone for 1 s, then joins n-1 viewers at once and starts them, and
// reports the seqs some viewer still lacks once within has passed.
func crowdRun(dht string, n int, within time.Duration) error {
	cfg := DefaultNodeConfig()
	FastLocalTimings(&cfg)
	cfg.DHT = dht
	cfg.Channel = stream.Params{Channel: "V", ChunkBits: 8 * 1024, Period: 40 * time.Millisecond, Count: 40}
	s, err := NewSwarm(SwarmSpec{N: n, Base: cfg})
	if err != nil {
		return err
	}
	defer s.Close()
	s.Source().Start()
	time.Sleep(time.Second)
	if err := s.join(); err != nil {
		return err
	}
	for _, v := range s.Viewers() {
		v.Start()
	}
	if pollUntil(within, func() bool { return MinDelivered(s.Viewers(), cfg.Channel.Count) >= 100 }) {
		return nil
	}
	short := map[int64]int{} // seq → viewers without it
	for _, v := range s.Viewers() {
		for seq := int64(0); seq < cfg.Channel.Count; seq++ {
			if !v.HasChunk(seq) {
				short[seq]++
			}
		}
	}
	return fmt.Errorf("viewers lacking each missing seq: %v", short)
}
