package live

import (
	"fmt"
	"testing"
	"time"

	"dco/internal/stream"
	"dco/internal/transport"
	"dco/internal/wire"
)

// fastConfig is DefaultNodeConfig at in-process cadences, streaming a
// short channel of 1 KiB chunks.
func fastConfig() Config {
	cfg := DefaultNodeConfig()
	FastLocalTimings(&cfg)
	cfg.Channel = stream.Params{Channel: "T", ChunkBits: 8 * 1024, Period: 40 * time.Millisecond, Count: 20}
	return cfg
}

// waitFor fails the test unless cond holds within d.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	if !pollUntil(d, cond) {
		t.Fatalf("timeout waiting for %s", what)
	}
}

// await is waitFor with the swarm's per-node report on timeout.
func await(t *testing.T, s *Swarm, d time.Duration, what string, cond func() bool) {
	t.Helper()
	if err := s.WaitUntil(d, what, cond); err != nil {
		t.Fatal(err)
	}
}

// testSwarm builds a swarm — nothing joined or started — and closes it
// when the test ends.
func testSwarm(t *testing.T, spec SwarmSpec) *Swarm {
	t.Helper()
	s, err := NewSwarm(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// upSwarm is testSwarm brought up: joined and streaming.
func upSwarm(t *testing.T, spec SwarmSpec) *Swarm {
	t.Helper()
	s := testSwarm(t, spec)
	if err := s.Up(); err != nil {
		t.Fatal(err)
	}
	return s
}

// ringOf brings up n cfg-shaped nodes that run start — a maintenance level
// short of Start, so nothing streams — and waits for the ring to converge.
func ringOf(t *testing.T, cfg Config, n int, start func(*Node)) *Swarm {
	t.Helper()
	s := testSwarm(t, SwarmSpec{N: n, Base: cfg})
	if err := s.up(start); err != nil {
		t.Fatal(err)
	}
	await(t, s, 10*time.Second, "ring convergence", func() bool { return RingCorrect(s.Nodes) })
	return s
}

// soloNode builds an unstarted single node on a fabric of its own: it owns
// every key, so coordinator handlers can be driven directly.
func soloNode(t *testing.T, cfg Config) *Node {
	t.Helper()
	n, err := NewNode(cfg, func(h transport.Handler) (transport.Transport, error) {
		return transport.NewFabric().Attach(h), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// fetchOrder is the order n's peer table would ask addrs for a chunk in:
// the usable ones, best first.
func fetchOrder(n *Node, addrs ...string) []string {
	order, usable, _ := n.health.Rank(n.Addr(), addrs)
	return order[:usable]
}

// TestActiveWindowDerivedForEndlessStreams: a node on an endless channel
// keeps the endless window instead of buffering every chunk forever; a
// counted stream keeps all of it.
func TestActiveWindowDerivedForEndlessStreams(t *testing.T) {
	for _, tc := range []struct {
		name  string
		count int64
		want  int
	}{
		{"endless", 0, endlessWindow},
		{"counted", 20, 20},
	} {
		cfg := fastConfig()
		cfg.Channel.Count = tc.count
		if got := soloNode(t, cfg).window; got != tc.want {
			t.Errorf("%s: window = %d, want %d", tc.name, got, tc.want)
		}
	}
	if endlessWindow != 4096 {
		t.Errorf("endlessWindow = %d; README and dconode -h say 4096", endlessWindow)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	p := stream.Params{Channel: "X", ChunkBits: 8 * 1024, Period: time.Second}
	data := MakeChunkPayload(p, 7)
	if int64(len(data)) != p.ChunkBits/8 {
		t.Fatalf("payload size %d, want %d", len(data), p.ChunkBits/8)
	}
	if !VerifyChunkPayload(p, 7, data) {
		t.Fatal("payload failed its own verification")
	}
	if VerifyChunkPayload(p, 8, data) {
		t.Fatal("payload verified against the wrong seq")
	}
	data[100] ^= 1
	if VerifyChunkPayload(p, 7, data) {
		t.Fatal("corrupted payload verified")
	}
}

// TestVerifyChunkPayloadInPlace: the generator check compares block by
// block against the received bytes — no second payload is built — and
// still catches a flip in the last, partial keystream block and any
// length other than the channel's.
func TestVerifyChunkPayloadInPlace(t *testing.T) {
	for _, size := range []int64{8, 9, 40, 1000, 1001, 64 * 1024} {
		p := stream.Params{Channel: "X", ChunkBits: 8 * size, Period: time.Second}
		data := MakeChunkPayload(p, 3)
		if !VerifyChunkPayload(p, 3, data) {
			t.Fatalf("size %d: payload failed its own verification", size)
		}
		if VerifyChunkPayload(p, 3, data[:len(data)-1]) || VerifyChunkPayload(p, 3, append(data[:len(data):len(data)], 0)) {
			t.Fatalf("size %d: wrong-length payload verified", size)
		}
		data[len(data)-1] ^= 0x80
		if VerifyChunkPayload(p, 3, data) {
			t.Fatalf("size %d: flip in the last byte verified", size)
		}
	}
	p := stream.Params{Channel: "X", ChunkBits: 8 * 64 * 1024, Period: time.Second}
	data := MakeChunkPayload(p, 7)
	if allocs := testing.AllocsPerRun(20, func() { VerifyChunkPayload(p, 7, data) }); allocs != 0 {
		t.Fatalf("VerifyChunkPayload allocates %.0f objects per 64 KiB chunk, want 0", allocs)
	}
}

func TestRingFormsOverFabric(t *testing.T) {
	// The overlay converges (chord: every successor is the clockwise
	// neighbour; kademlia: every table has exactly the live membership).
	ringOf(t, fastConfig(), 6, (*Node).startRingMaint)
}

func TestEndToEndStreamingOverFabric(t *testing.T) {
	// The source can upload one chunk a period, so its coordinators name it
	// in one answer per seq (index.Budget): every other viewer must take
	// each chunk from a peer, however the viewers' starts fall.
	ch := fastConfig().Channel
	s := testSwarm(t, SwarmSpec{N: 5, Base: fastConfig(), Tune: func(i int, cfg *Config) {
		if i == 0 {
			cfg.UpBps = int64(float64(ch.ChunkBits) / ch.Period.Seconds())
		}
	}})
	if err := s.join(); err != nil {
		t.Fatal(err)
	}
	s.Source().Start()
	// Viewers tune in staggered, as real viewers do.
	viewers := s.Viewers()
	for _, v := range viewers {
		v.Start()
		time.Sleep(25 * time.Millisecond)
	}

	want := fastConfig().Channel.Count
	await(t, s, 30*time.Second, "all viewers to receive the full stream", func() bool {
		return MinDelivered(viewers, want) >= 100
	})
	for _, v := range viewers {
		if st := v.Stats(); st.ChunksFetched < uint64(want) {
			t.Fatalf("viewer fetched %d of %d", st.ChunksFetched, want)
		}
	}
	// At least one viewer should have served chunks to another (P2P sharing
	// actually happened, not just server fan-out).
	if SumStats(viewers).ChunksServed == 0 {
		t.Error("no viewer ever served a chunk: swarm degenerated to client-server")
	}
}

// TestGracefulLeaveHandsOffIndex: every seq a leaver coordinated is still
// answered, from every survivor, once it has left. Republication is off, so
// the rows the leaver sent ahead of its departure are the only copy.
func TestGracefulLeaveHandsOffIndex(t *testing.T) {
	for _, backend := range []string{"chord", "kademlia"} {
		t.Run(backend, func(t *testing.T) {
			cfg := fastConfig()
			cfg.DHT = backend
			cfg.RepublishEvery = 0
			s := ringOf(t, cfg, 4, (*Node).startMaint)
			leaver, holder := s.Nodes[1], s.Nodes[0]

			var owned []int64
			for seq := int64(0); len(owned) < 3 && seq < 1000; seq++ {
				if nd, key := ownerOf(t, s.Nodes, seq); nd == leaver {
					if _, ok := leaver.onInsert(&wire.Insert{Key: key, Seq: seq, Holder: holder.wireSelf(), UpBps: 1}).(*wire.Ack); !ok {
						t.Fatalf("the leaver refused seq %d", seq)
					}
					owned = append(owned, seq)
				}
			}
			if len(owned) == 0 {
				t.Fatal("the leaver owns none of the first 1000 seqs")
			}

			if err := leaver.Leave(); err != nil {
				t.Fatalf("leave: %v", err)
			}
			survivors := Without(s.Nodes, leaver)
			for _, asker := range survivors {
				for _, seq := range owned {
					key := uint64(cfg.Channel.Ref(seq).ID())
					waitFor(t, 10*time.Second, fmt.Sprintf("%s to find seq %d", asker.Addr(), seq), func() bool {
						providers, err := asker.lookupProviders(key, seq, time.Time{})
						return err == nil && len(providers) > 0 && providers[0].Addr == holder.Addr()
					})
				}
			}
		})
	}
}

// TestGracefulLeaveWithEmptyIndexSendsNothing: a leaver that indexes nothing
// has nothing to announce, so it makes no call before the backend's
// departure — one toward an unreachable member would hold Leave for the
// whole retry budget.
func TestGracefulLeaveWithEmptyIndexSendsNothing(t *testing.T) {
	cfg := fastConfig()
	cfg.DHT = "chord" // no maintenance runs, so no range change sends a batch either
	s := testSwarm(t, SwarmSpec{N: 2, Base: cfg})
	if err := s.join(); err != nil {
		t.Fatal(err)
	}
	leaver := s.Nodes[1]
	if len(leaver.kern.ReplicaSet(leaver.ID(), 1)) == 0 {
		t.Fatal("the leaver has no replica target")
	}
	if err := leaver.Leave(); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if sent := leaver.lm.ReplicateBatches.Value(); sent != 0 {
		t.Fatalf("an empty leave sent %d batches", sent)
	}
}
