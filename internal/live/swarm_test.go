package live

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestSwarmStreamsAndCloses drives the harness through its whole life on
// both networks and both DHT backends: build, join, stream ten chunks to
// every viewer, and Close — after which every goroutine the swarm started
// is gone.
func TestSwarmStreamsAndCloses(t *testing.T) {
	for _, tc := range []struct {
		name string
		tcp  bool
		dht  string
	}{
		{"mem/chord", false, "chord"},
		{"mem/kademlia", false, "kademlia"},
		{"tcp/chord", true, "chord"},
		{"tcp/kademlia", true, "kademlia"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			cfg := fastConfig()
			cfg.DHT = tc.dht
			cfg.Channel.Count = 10
			s, err := NewSwarm(SwarmSpec{N: 5, Base: cfg, TCP: tc.tcp})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if got := s.Source().DHTName(); got != tc.dht {
				t.Fatalf("DHTName() = %q, want %q", got, tc.dht)
			}
			if err := s.Up(); err != nil {
				t.Fatal(err)
			}
			await(t, s, 60*time.Second, "every viewer to receive the full stream", func() bool {
				return MinDelivered(s.Viewers(), cfg.Channel.Count) >= 100
			})
			if got := SumStats(s.Viewers()).ChunksFetched; got < 4*10 {
				t.Errorf("viewers fetched %d chunks in total, want at least 40", got)
			}
			if sent := s.Snapshot().Counters["dco_transport_calls_total"]; sent == 0 {
				t.Error("merged snapshot shows no transport calls: per-node transport metrics are not wired")
			}
			if wedged := s.Close(); wedged != 0 {
				t.Fatalf("%d nodes failed to close", wedged)
			}
			// Hedge losers and in-flight serves drain on their own call
			// timeouts after their node has closed.
			if !pollUntil(10*time.Second, func() bool { return runtime.NumGoroutine() <= baseline }) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines after Close, %d before the build:\n%s",
					runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

// TestWaitUntilReportsWhereNodesStood: a timeout names the condition and
// every node's buffered chunks and successor, not a bare "timeout".
func TestWaitUntilReportsWhereNodesStood(t *testing.T) {
	s := testSwarm(t, SwarmSpec{N: 3, Base: fastConfig()})
	if err := s.join(); err != nil {
		t.Fatal(err)
	}
	s.Viewers()[0].storeChunk(4, MakeChunkPayload(fastConfig().Channel, 4), "")

	if err := s.WaitUntil(time.Second, "pigs to fly", func() bool { return true }); err != nil {
		t.Fatalf("a condition that holds timed out: %v", err)
	}
	err := s.WaitUntil(50*time.Millisecond, "pigs to fly", func() bool { return false })
	if err == nil {
		t.Fatal("a condition that never holds did not time out")
	}
	for i, nd := range s.Nodes {
		chunks := "chunks=0"
		if i == 1 {
			chunks = "chunks=1"
		}
		_, succ := nd.Successor()
		for _, want := range []string{"pigs to fly", nd.Addr() + " " + chunks + " succ=" + succ} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("timeout error lacks %q: %v", want, err)
			}
		}
	}
}
