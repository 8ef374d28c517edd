package simnet

import (
	"slices"
	"testing"
	"time"

	"dco/internal/sim"
)

func newNet(t *testing.T) (*sim.Kernel, *Network) {
	t.Helper()
	k := sim.NewKernel(1)
	return k, New(k, Config{BaseLatency: 50 * time.Millisecond, LatencySpread: 0})
}

// capture records every message it receives. It copies *m: the record
// behind the pointer is reused once HandleMessage returns.
type capture struct {
	got []Message
	at  []time.Duration
	k   *sim.Kernel
}

func (c *capture) HandleMessage(m *Message) {
	c.got = append(c.got, *m)
	c.at = append(c.at, c.k.Now())
}

func TestControlMessageDelivery(t *testing.T) {
	k, n := newNet(t)
	a := n.AddNode(1e6, 1e6)
	b := n.AddNode(1e6, 1e6)
	c := &capture{k: k}
	n.SetHandler(b, c)
	n.Send(a, b, "ping", 42)
	k.Run()
	if len(c.got) != 1 || c.got[0].Payload.(int) != 42 {
		t.Fatalf("message not delivered: %v", c.got)
	}
	if c.at[0] != 50*time.Millisecond {
		t.Fatalf("arrival at %v, want base latency 50ms", c.at[0])
	}
	if n.Overhead() != 1 {
		t.Fatalf("overhead = %d, want 1", n.Overhead())
	}
}

func TestDataTransferTiming(t *testing.T) {
	k, n := newNet(t)
	// Sender uplink 4 Mbps, receiver downlink 600 kbps: a 300 kbit chunk
	// spends 0.075 s on the uplink, then 0.5 s on the downlink.
	a := n.AddNode(4_000_000, 4_000_000)
	b := n.AddNode(600_000, 600_000)
	c := &capture{k: k}
	n.SetHandler(b, c)
	n.SendData(a, b, "chunk", nil, 300_000)
	k.Run()
	want := 75*time.Millisecond + 500*time.Millisecond + 50*time.Millisecond
	if len(c.at) != 1 || c.at[0] != want {
		t.Fatalf("data arrival %v, want %v", c.at, want)
	}
	if n.Overhead() != 0 {
		t.Fatal("data transfers must not count as overhead")
	}
}

func TestUplinkSerialization(t *testing.T) {
	k, n := newNet(t)
	a := n.AddNode(600_000, 600_000) // 0.5 s per 300 kbit chunk
	b := n.AddNode(10_000_000, 10_000_000)
	c1 := &capture{k: k}
	n.SetHandler(b, c1)
	n.SendData(a, b, "chunk", 1, 300_000)
	n.SendData(a, b, "chunk", 2, 300_000)
	k.Run()
	if len(c1.at) != 2 {
		t.Fatalf("deliveries: %d", len(c1.at))
	}
	// Second transfer waits for the first to clear the uplink.
	gap := c1.at[1] - c1.at[0]
	if gap < 450*time.Millisecond {
		t.Fatalf("transfers not serialized on the uplink: gap %v", gap)
	}
	if until := n.UploadBusyUntil(a); until < time.Second {
		t.Fatalf("uplink horizon %v, want >= 1s for two chunks", until)
	}
}

func TestDownlinkSerialization(t *testing.T) {
	k, n := newNet(t)
	a := n.AddNode(10_000_000, 10_000_000)
	b := n.AddNode(10_000_000, 10_000_000)
	dst := n.AddNode(10_000_000, 600_000)
	c := &capture{k: k}
	n.SetHandler(dst, c)
	n.SendData(a, dst, "chunk", 1, 300_000)
	n.SendData(b, dst, "chunk", 2, 300_000)
	k.Run()
	gap := c.at[1] - c.at[0]
	if gap < 450*time.Millisecond {
		t.Fatalf("transfers not serialized on the downlink: gap %v", gap)
	}
}

func TestDeadNodeDropsTraffic(t *testing.T) {
	k, n := newNet(t)
	a := n.AddNode(1e6, 1e6)
	b := n.AddNode(1e6, 1e6)
	c := &capture{k: k}
	n.SetHandler(b, c)
	n.Kill(b)
	n.Send(a, b, "ping", nil)
	k.Run()
	if len(c.got) != 0 {
		t.Fatal("dead node received a message")
	}
	if n.DroppedDead() != 1 {
		t.Fatalf("dropped = %d, want 1", n.DroppedDead())
	}
	// Dead sender transmits nothing.
	n.Kill(a)
	n.Send(a, b, "ping", nil)
	k.Run()
	if n.Overhead() != 1 { // only the first send counted
		t.Fatalf("overhead = %d, want 1", n.Overhead())
	}
}

func TestRevive(t *testing.T) {
	k, n := newNet(t)
	a := n.AddNode(1e6, 1e6)
	b := n.AddNode(1e6, 1e6)
	c := &capture{k: k}
	n.SetHandler(b, c)
	n.Kill(b)
	n.Revive(b)
	n.Send(a, b, "ping", nil)
	k.Run()
	if len(c.got) != 1 {
		t.Fatal("revived node did not receive")
	}
}

func TestLatencyDeterministicPerPair(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, Config{BaseLatency: 30 * time.Millisecond, LatencySpread: 60 * time.Millisecond})
	a := n.AddNode(1e6, 1e6)
	b := n.AddNode(1e6, 1e6)
	c := &capture{k: k}
	n.SetHandler(b, c)
	n.Send(a, b, "x", nil)
	n.Send(a, b, "x", nil)
	k.Run()
	if c.at[1]-c.at[0] != 0 {
		t.Fatalf("same-pair latency varies: %v vs %v", c.at[0], c.at[1])
	}
	if c.at[0] < 30*time.Millisecond || c.at[0] >= 90*time.Millisecond {
		t.Fatalf("latency %v outside configured band", c.at[0])
	}
}

func TestOverheadAccounting(t *testing.T) {
	k, n := newNet(t)
	a := n.AddNode(1e6, 1e6)
	b := n.AddNode(1e6, 1e6)
	n.SetHandler(b, &capture{k: k})
	n.Send(a, b, "lookup", nil)
	n.Send(a, b, "lookup", nil)
	n.Send(a, b, "insert", nil)
	n.SendData(a, b, "chunk", nil, 1000)
	k.Run()
	if n.Overhead() != 3 {
		t.Fatalf("overhead = %d, want 3", n.Overhead())
	}
	by := n.OverheadByKind()
	if by["lookup"] != 2 || by["insert"] != 1 {
		t.Fatalf("per-kind overhead wrong: %v", by)
	}
	if n.OverheadAtSecond(0) != 3 {
		t.Fatalf("second-0 overhead = %d", n.OverheadAtSecond(0))
	}
	msgs, bits := n.DataStats()
	if msgs != 1 || bits != 1000 {
		t.Fatalf("data stats %d/%d", msgs, bits)
	}
}

func TestBadBandwidthPanics(t *testing.T) {
	_, n := newNet(t)
	defer func() {
		if recover() == nil {
			t.Fatal("zero bandwidth must panic")
		}
	}()
	n.AddNode(0, 1)
}

func TestZonedLatency(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, Config{BaseLatency: 10 * time.Millisecond, LatencySpread: 0, Zones: 2, InterZone: 80 * time.Millisecond})
	a := n.AddNode(1e6, 1e6)  // zone 0
	b := n.AddNode(1e6, 1e6)  // zone 1
	c0 := n.AddNode(1e6, 1e6) // zone 0
	if n.Zone(a) != 0 || n.Zone(b) != 1 || n.Zone(c0) != 0 {
		t.Fatalf("zone assignment wrong: %d %d %d", n.Zone(a), n.Zone(b), n.Zone(c0))
	}
	cb := &capture{k: k}
	n.SetHandler(b, cb)
	cc := &capture{k: k}
	n.SetHandler(c0, cc)
	n.Send(a, b, "x", nil)  // cross-zone
	n.Send(a, c0, "x", nil) // intra-zone
	k.Run()
	if cb.at[0] != 90*time.Millisecond {
		t.Fatalf("cross-zone latency %v, want 90ms", cb.at[0])
	}
	if cc.at[0] != 10*time.Millisecond {
		t.Fatalf("intra-zone latency %v, want 10ms", cc.at[0])
	}
}

func TestTrySend(t *testing.T) {
	k, n := newNet(t)
	a := n.AddNode(1e6, 1e6)
	b := n.AddNode(1e6, 1e6)
	c := &capture{k: k}
	n.SetHandler(b, c)
	if !n.TrySend(a, b, "x", nil) {
		t.Fatal("send to live node reported failure")
	}
	k.Run() // deliver before the kill below
	if len(c.got) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(c.got))
	}
	n.Kill(b)
	if n.TrySend(a, b, "x", nil) {
		t.Fatal("send to dead node reported success")
	}
	// Both attempts cost overhead (the probe is real traffic).
	if n.Overhead() != 2 {
		t.Fatalf("overhead = %d, want 2", n.Overhead())
	}
	// A dead sender pays nothing and sends nothing.
	n.Kill(a)
	if n.TrySend(a, b, "x", nil) || n.Overhead() != 2 {
		t.Fatal("dead sender accounting wrong")
	}
}

type discard struct{}

func (discard) HandleMessage(*Message) {}

func TestSimAllocationBudgets(t *testing.T) {
	k, n := newNet(t)
	a := n.AddNode(1e6, 1e6)
	b := n.AddNode(1e6, 1e6)
	n.SetHandler(b, discard{})
	send := func() {
		n.Send(a, b, "ping", nil)
		k.Run()
	}
	send() // the queue's backing array, the overhead rows and the first record
	if allocs := testing.AllocsPerRun(1000, send); allocs != 0 {
		t.Errorf("Send plus its delivery: %.1f allocations, budget 0 (the record is recycled)", allocs)
	}
}

// relay answers every "ping" with a "pong" to the sender, sent from inside
// HandleMessage, and checks the message it is handling survives that send.
type relay struct {
	t   *testing.T
	n   *Network
	got []any
}

func (r *relay) HandleMessage(m *Message) {
	before := *m
	if m.Kind == "ping" {
		r.n.Send(m.To, m.From, "pong", m.Payload.(int)+100)
	}
	if *m != before {
		r.t.Errorf("message changed to %+v by a send made while handling %+v", *m, before)
	}
	r.got = append(r.got, m.Payload)
}

func TestRecycledDeliveryRecords(t *testing.T) {
	k, n := newNet(t)
	a := n.AddNode(1e6, 1e6)
	b := n.AddNode(1e6, 1e6)
	ra, rb := &relay{t: t, n: n}, &relay{t: t, n: n}
	n.SetHandler(a, ra)
	n.SetHandler(b, rb)
	for round := 0; round < 3; round++ {
		ra.got, rb.got = nil, nil
		// Two pings in flight at once; after the first round both ride on
		// records an earlier round freed.
		n.Send(a, b, "ping", 2*round)
		n.Send(a, b, "ping", 2*round+1)
		k.Run()
		if want := []any{2 * round, 2*round + 1}; !slices.Equal(rb.got, want) {
			t.Fatalf("round %d: b saw pings %v, want %v", round, rb.got, want)
		}
		if want := []any{2*round + 100, 2*round + 101}; !slices.Equal(ra.got, want) {
			t.Fatalf("round %d: a saw pongs %v, want %v", round, ra.got, want)
		}
		for _, d := range n.free {
			if d.m != (Message{}) {
				t.Fatalf("round %d: a fired record still holds %+v", round, d.m)
			}
		}
	}
	// Two pings and two pongs at most in flight: four records serve every round.
	if len(n.free) > 4 {
		t.Fatalf("%d records allocated for at most 4 messages in flight", len(n.free))
	}
}

func TestOverheadAtSecondOutsideTheSeries(t *testing.T) {
	k, n := newNet(t)
	a := n.AddNode(1e6, 1e6)
	b := n.AddNode(1e6, 1e6)
	n.SetHandler(b, discard{})
	k.RunUntil(3 * time.Second)
	n.Send(a, b, "x", nil)
	k.Run()
	for s, want := range map[int64]uint64{-1: 0, 0: 0, 2: 0, 3: 1, 4: 0, 1 << 40: 0} {
		if got := n.OverheadAtSecond(s); got != want {
			t.Errorf("OverheadAtSecond(%d) = %d, want %d", s, got, want)
		}
	}
}
