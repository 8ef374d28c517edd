package metrics

import (
	"testing"
	"time"

	"dco/internal/simnet"
)

const server = simnet.NodeID(0)

func sec(n int64) time.Duration { return time.Duration(n) * time.Second }

func newLog(chunks int64, nodes ...simnet.NodeID) *DeliveryLog {
	l := NewDeliveryLog(chunks, server)
	for _, id := range nodes {
		l.NodeJoined(id, 0)
	}
	return l
}

func TestMeshDelay(t *testing.T) {
	l := newLog(2, 1, 2)
	l.Generated(0, sec(0))
	l.Generated(1, sec(1))
	l.Received(1, 0, sec(2))
	l.Received(2, 0, sec(5)) // chunk 0 complete at 5 → delay 5
	l.Received(1, 1, sec(3))
	l.Received(2, 1, sec(4)) // chunk 1 complete at 4 → delay 3
	mean, complete, total := l.MeshDelay()
	if complete != 2 || total != 2 {
		t.Fatalf("complete %d/%d", complete, total)
	}
	if mean != 4*time.Second {
		t.Fatalf("mean delay = %v, want 4s", mean)
	}
}

func TestMeshDelayIncomplete(t *testing.T) {
	l := newLog(1, 1, 2)
	l.Generated(0, 0)
	l.Received(1, 0, sec(1))
	mean, complete, total := l.MeshDelay()
	if complete != 0 || total != 1 || mean != 0 {
		t.Fatalf("incomplete chunk misreported: %v %d/%d", mean, complete, total)
	}
	if _, ok := l.ChunkCompletion(0); ok {
		t.Fatal("ChunkCompletion claimed completion")
	}
	l.Received(2, 0, sec(9))
	if d, ok := l.ChunkCompletion(0); !ok || d != 9*time.Second {
		t.Fatalf("completion = %v/%v", d, ok)
	}
}

// TestChunkWithNoEligibleReceiverNeverCompletes: a chunk generated before
// every viewer joined, or only to viewers that later left, has no one it
// could reach. It counts toward the total and never as complete — not as
// complete with a delay of minus its generation time.
func TestChunkWithNoEligibleReceiverNeverCompletes(t *testing.T) {
	l := NewDeliveryLog(2, server)
	l.NodeJoined(1, sec(5))
	l.NodeJoined(2, 0)
	l.Generated(0, sec(2))
	l.Generated(1, sec(9))
	l.Received(1, 0, sec(6))
	l.Received(1, 1, sec(10))
	l.NodeLeft(2, sec(3))
	if d, ok := l.ChunkCompletion(0); ok {
		t.Fatalf("chunk 0 reached no eligible node, yet completed after %v", d)
	}
	mean, complete, total := l.MeshDelay()
	if complete != 1 || total != 2 || mean != sec(1) {
		t.Fatalf("mesh delay %v over %d/%d chunks, want 1s over 1/2", mean, complete, total)
	}
}

func TestServerExcluded(t *testing.T) {
	l := newLog(1, 1)
	l.Generated(0, 0)
	l.Received(server, 0, sec(1)) // must be ignored
	l.Received(1, 0, sec(2))
	if mean, complete, _ := l.MeshDelay(); complete != 1 || mean != 2*time.Second {
		t.Fatalf("server receipt leaked into the metric: %v", mean)
	}
}

func TestDuplicateReceiptsIgnored(t *testing.T) {
	l := newLog(1, 1)
	l.Generated(0, 0)
	l.Received(1, 0, sec(2))
	l.Received(1, 0, sec(1)) // duplicate, earlier: still ignored (first wins)
	if d, ok := l.ChunkCompletion(0); !ok || d != 2*time.Second {
		t.Fatalf("duplicate receipt changed the record: %v", d)
	}
}

func TestFillRatio(t *testing.T) {
	l := newLog(1, 1, 2, 3, 4)
	l.Generated(0, sec(10))
	l.Received(1, 0, sec(11))
	l.Received(2, 0, sec(12))
	if got := l.FillRatio(0, sec(11)); got != 0.25 {
		t.Fatalf("fill@11 = %f, want 0.25", got)
	}
	if got := l.FillRatio(0, sec(12)); got != 0.5 {
		t.Fatalf("fill@12 = %f, want 0.5", got)
	}
	if got := l.MeanFillRatioAfter(2 * time.Second); got != 0.5 {
		t.Fatalf("mean fill after 2s = %f", got)
	}
	if got := l.MeanFillRatioAt(sec(12)); got != 0.5 {
		t.Fatalf("mean fill at 12s = %f", got)
	}
	if got := l.MeanFillRatioAt(sec(5)); got != 0 {
		t.Fatalf("fill before generation = %f", got)
	}
}

func TestFillRatioExcludesDepartedAndLateJoiners(t *testing.T) {
	l := newLog(1, 1, 2)
	l.NodeJoined(3, sec(50)) // joins later
	l.Generated(0, sec(0))
	l.Received(1, 0, sec(1))
	l.NodeLeft(2, sec(2))
	// At t=3: node 2 departed, node 3 not yet joined → eligible = {1}.
	if got := l.FillRatio(0, sec(3)); got != 1.0 {
		t.Fatalf("fill with departed/late nodes = %f, want 1", got)
	}
}

func TestReceivedPercent(t *testing.T) {
	l := NewDeliveryLog(4, server)
	// Node 1 lives the whole run, receives everything it should.
	l.NodeJoined(1, 0)
	// Node 2 joins at t=2: expected chunks 2,3 only.
	l.NodeJoined(2, sec(2))
	// Node 3 leaves at t=1.5: expected chunks 0,1.
	l.NodeJoined(3, 0)

	for seq := int64(0); seq < 4; seq++ {
		l.Generated(seq, sec(seq))
	}
	l.NodeLeft(3, sec(1)+500*time.Millisecond)

	for seq := int64(0); seq < 4; seq++ {
		l.Received(1, seq, sec(seq)+time.Second)
	}
	l.Received(2, 2, sec(3))
	l.Received(2, 3, sec(4))
	l.Received(3, 0, sec(1))
	// Node 3 misses chunk 1.

	// Expected: node1 4/4, node2 2/2, node3 1/2 → 7/8 = 87.5%.
	if got := l.ReceivedPercent(sec(100)); got != 87.5 {
		t.Fatalf("received%% = %f, want 87.5", got)
	}
	// With a horizon before node1's last receipt, its chunk 3 is excluded.
	if got := l.ReceivedPercent(sec(3) + 500*time.Millisecond); got == 87.5 {
		t.Fatal("horizon not applied")
	}
}

func TestReceivedCountAt(t *testing.T) {
	l := newLog(2, 1, 2)
	l.Generated(0, 0)
	l.Generated(1, 0)
	l.Received(1, 0, sec(1))
	l.Received(2, 1, sec(3))
	if got := l.ReceivedCountAt(sec(2)); got != 1 {
		t.Fatalf("count@2 = %d", got)
	}
	if got := l.ReceivedCountAt(sec(3)); got != 2 {
		t.Fatalf("count@3 = %d", got)
	}
}

func TestOutOfRangeInputs(t *testing.T) {
	l := newLog(1, 1)
	l.Generated(-1, 0) // ignored
	l.Generated(5, 0)  // ignored
	l.Received(1, -1, 0)
	l.Received(1, 5, 0)
	l.Received(99, 0, 0) // unknown node
	if l.Members() != 1 {
		t.Fatalf("members = %d", l.Members())
	}
	if _, ok := l.ChunkCompletion(0); ok {
		t.Fatal("nothing was generated")
	}
}
