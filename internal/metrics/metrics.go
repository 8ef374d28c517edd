// Package metrics implements the four evaluation metrics of §IV:
//
//  1. Mesh delay — time from a chunk's generation until every node holds it.
//  2. Fill ratio — fraction of nodes holding a chunk at a given time.
//  3. Extra overhead — non-chunk message count (tracked by simnet; this
//     package only reports it).
//  4. Percentage of received chunks — delivery success under churn.
package metrics

import (
	"math"
	"time"

	"dco/internal/simnet"
)

// Never marks "not received" timestamps.
const Never = time.Duration(math.MaxInt64)

type nodeRec struct {
	join  time.Duration
	leave time.Duration // Never while alive
	recv  map[int64]time.Duration
}

// DeliveryLog records chunk generations and first receipts, and node
// membership intervals, from which all delay/fill/success metrics derive.
type DeliveryLog struct {
	numChunks int64
	gen       []time.Duration // per-seq generation time, Never if not yet generated
	nodes     map[simnet.NodeID]*nodeRec
	server    simnet.NodeID
}

// NewDeliveryLog creates a log for a stream of numChunks chunks originating
// at server (the server is excluded from receiver-side statistics).
func NewDeliveryLog(numChunks int64, server simnet.NodeID) *DeliveryLog {
	g := make([]time.Duration, numChunks)
	for i := range g {
		g[i] = Never
	}
	return &DeliveryLog{
		numChunks: numChunks,
		gen:       g,
		nodes:     make(map[simnet.NodeID]*nodeRec),
		server:    server,
	}
}

// NumChunks returns the stream length this log covers.
func (l *DeliveryLog) NumChunks() int64 { return l.numChunks }

// NodeJoined records that node id became a viewer at time t.
func (l *DeliveryLog) NodeJoined(id simnet.NodeID, t time.Duration) {
	if id == l.server {
		return
	}
	l.nodes[id] = &nodeRec{join: t, leave: Never, recv: make(map[int64]time.Duration)}
}

// NodeLeft records that node id departed at time t.
func (l *DeliveryLog) NodeLeft(id simnet.NodeID, t time.Duration) {
	if r, ok := l.nodes[id]; ok && r.leave == Never {
		r.leave = t
	}
}

// Generated records that chunk seq was produced at time t.
func (l *DeliveryLog) Generated(seq int64, t time.Duration) {
	if seq >= 0 && seq < l.numChunks && l.gen[seq] == Never {
		l.gen[seq] = t
	}
}

// Received records the first receipt of chunk seq by node id at time t.
// Duplicate receipts are ignored (only the first matters for every metric).
func (l *DeliveryLog) Received(id simnet.NodeID, seq int64, t time.Duration) {
	if id == l.server || seq < 0 || seq >= l.numChunks {
		return
	}
	r, ok := l.nodes[id]
	if !ok {
		return
	}
	if _, dup := r.recv[seq]; !dup {
		r.recv[seq] = t
	}
}

// GenerationTime returns when seq was generated (Never if it wasn't).
func (l *DeliveryLog) GenerationTime(seq int64) time.Duration { return l.gen[seq] }

// MeshDelay returns the mean, over chunks that reached every eligible node
// (ChunkCompletion), of (time last node received it − generation time),
// plus how many chunks completed. This is the paper's metric 1.
func (l *DeliveryLog) MeshDelay() (mean time.Duration, complete, total int64) {
	var sum time.Duration
	for seq := int64(0); seq < l.numChunks; seq++ {
		if l.gen[seq] == Never {
			continue
		}
		total++
		if d, ok := l.ChunkCompletion(seq); ok {
			complete++
			sum += d
		}
	}
	if complete == 0 {
		return 0, 0, total
	}
	return sum / time.Duration(complete), complete, total
}

// ChunkCompletion returns how long after its generation chunk seq had
// reached every eligible node — one that was a member for the chunk's
// entire propagation (joined before generation, never left) — or ok=false
// if it never did. A chunk with no eligible node never completes.
func (l *DeliveryLog) ChunkCompletion(seq int64) (delay time.Duration, ok bool) {
	g := l.gen[seq]
	if g == Never {
		return 0, false
	}
	var last time.Duration
	eligible := false
	for _, r := range l.nodes {
		if r.join > g || r.leave != Never {
			continue
		}
		t, got := r.recv[seq]
		if !got {
			return 0, false
		}
		eligible = true
		last = max(last, t)
	}
	if !eligible {
		return 0, false
	}
	return last - g, true
}

// FillRatio returns the fraction of eligible nodes holding chunk seq at
// absolute time t (the paper's metric 2).
func (l *DeliveryLog) FillRatio(seq int64, t time.Duration) float64 {
	g := l.gen[seq]
	if g == Never {
		return 0
	}
	var have, eligible int
	for _, r := range l.nodes {
		if r.join > t || r.leave < t {
			continue
		}
		eligible++
		if rt, ok := r.recv[seq]; ok && rt <= t {
			have++
		}
	}
	if eligible == 0 {
		return 0
	}
	return float64(have) / float64(eligible)
}

// MeanFillRatioAfter averages, over all generated chunks, the fill ratio
// measured delta after each chunk's generation (Fig. 6 uses delta = 2 s).
func (l *DeliveryLog) MeanFillRatioAfter(delta time.Duration) float64 {
	var sum float64
	var n int
	for seq := int64(0); seq < l.numChunks; seq++ {
		if l.gen[seq] == Never {
			continue
		}
		sum += l.FillRatio(seq, l.gen[seq]+delta)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanFillRatioAt averages the fill ratio of all generated chunks at
// absolute time t (Fig. 7's time series).
func (l *DeliveryLog) MeanFillRatioAt(t time.Duration) float64 {
	var sum float64
	var n int
	for seq := int64(0); seq < l.numChunks; seq++ {
		if l.gen[seq] == Never || l.gen[seq] > t {
			continue
		}
		sum += l.FillRatio(seq, t)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ReceivedPercent implements metric 4 for churn runs: the number of chunks
// successfully received by all recipients over the total number of chunks
// each recipient should have received. A node is expected to receive the
// chunks generated while it was a member, cut off at horizon.
func (l *DeliveryLog) ReceivedPercent(horizon time.Duration) float64 {
	var got, want int64
	for _, r := range l.nodes {
		end := r.leave
		if end > horizon {
			end = horizon
		}
		for seq := int64(0); seq < l.numChunks; seq++ {
			g := l.gen[seq]
			if g == Never || g < r.join || g > end {
				continue
			}
			want++
			if t, ok := r.recv[seq]; ok && t <= horizon {
				got++
			}
		}
	}
	if want == 0 {
		return 0
	}
	return 100 * float64(got) / float64(want)
}

// ReceivedCountAt returns total first-receipts with t <= horizon, a cheap
// monotone progress indicator used by Fig. 11's time sweep.
func (l *DeliveryLog) ReceivedCountAt(horizon time.Duration) int64 {
	var got int64
	for _, r := range l.nodes {
		for _, t := range r.recv {
			if t <= horizon {
				got++
			}
		}
	}
	return got
}

// Members returns how many nodes are registered (alive or departed).
func (l *DeliveryLog) Members() int { return len(l.nodes) }
