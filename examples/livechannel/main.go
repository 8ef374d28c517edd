// Livechannel: a real TCP deployment on localhost — one stream source plus
// eight viewer nodes form a Chord ring, and the viewers fetch a live
// channel end-to-end with chunk-integrity verification. This exercises the
// exact code a WAN deployment would run (internal/live over TCP sockets).
//
// Run with:
//
//	go run ./examples/livechannel
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"dco/internal/live"
	"dco/internal/stream"
)

const (
	viewers   = 8
	chunks    = 40
	chunkSize = 32 * 1024 // bytes
)

func main() {
	base := live.DefaultNodeConfig()
	base.Channel = stream.Params{Channel: "DEMO", ChunkBits: chunkSize * 8, Period: 100 * time.Millisecond, Count: chunks}
	base.StabilizeEvery = 100 * time.Millisecond
	base.FixFingersEvery = 50 * time.Millisecond
	base.LookupWait = 2 * time.Second

	// A source and its viewers, each on a loopback TCP listener; the
	// viewers join through the source.
	var mu sync.Mutex
	received := make(map[string]int)
	s, err := live.NewSwarm(live.SwarmSpec{N: 1 + viewers, Base: base, TCP: true, Tune: func(i int, cfg *live.Config) {
		if i == 0 {
			return
		}
		name := fmt.Sprintf("viewer-%d", i-1)
		cfg.OnChunk = func(seq int64, data []byte) {
			mu.Lock()
			received[name]++
			mu.Unlock()
		}
	}})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	src, nodes := s.Source(), s.Viewers()
	fmt.Printf("source   %s  id=%016x\n", src.Addr(), src.ID())
	for i, nd := range nodes {
		fmt.Printf("viewer-%d %s  id=%016x\n", i, nd.Addr(), nd.ID())
	}
	if err := s.Up(); err != nil {
		log.Fatal(err)
	}

	// Wait for everyone to finish the stream (or a deadline).
	if err := s.WaitUntil(2*time.Minute, "every viewer to finish the stream", func() bool {
		return live.MinDelivered(nodes, chunks) >= 100
	}); err != nil {
		log.Print(err)
	}

	fmt.Printf("\nper-node results (%d-chunk channel, %d KiB chunks):\n", chunks, chunkSize/1024)
	mu.Lock()
	for i, nd := range nodes {
		st := nd.Stats()
		fmt.Printf("  viewer-%d: buffered %3d/%d  played=%d  fetched=%d  servedToPeers=%d  retries=%d\n",
			i, nd.ChunkCount(), chunks, received[fmt.Sprintf("viewer-%d", i)], st.ChunksFetched, st.ChunksServed, st.FetchRetries)
	}
	mu.Unlock()
	crowd := live.SumStats(nodes)
	srcStats := src.Stats()
	fmt.Printf("  source:   servedToPeers=%d  lookupsServed=%d  insertsServed=%d\n",
		srcStats.ChunksServed, srcStats.LookupsServed, srcStats.InsertsServed)
	fmt.Printf("\nswarm efficiency: %d of %d chunk transfers came from peers, not the source\n",
		crowd.ChunksServed, crowd.ChunksFetched)

	// Graceful teardown: the first viewer leaves politely (its index goes to
	// its replica set, then the ring unlink); the deferred Close stops the
	// rest.
	if err := nodes[0].Leave(); err != nil {
		log.Printf("leave: %v", err)
	}
}
