package core

import (
	"time"
)

// Playback modeling: the paper's motivation is viewer QoS ("image freezes
// and poor resolution"), so the simulator can drive a playhead over each
// viewer's buffer and report startup delay and continuity — the
// user-visible counterparts of mesh delay and fill ratio.

// playbackState tracks one viewer's playhead.
type playbackState struct {
	playing   bool
	playhead  int64
	startedAt time.Duration
	played    int64
	stalls    int64
}

// playbackTick advances the playhead one chunk interval: play if buffered,
// stall otherwise. It starts playing only after the startup buffer fills.
func (p *Peer) playbackTick() {
	if !p.alive || p.isSource {
		return
	}
	pb := &p.playback
	if !pb.playing {
		run := 0
		for run < startupChunks && p.buf.Has(p.startSeq+int64(run)) {
			run++
		}
		if run < startupChunks {
			return // still buffering; not a stall (playback never started)
		}
		pb.playing = true
		pb.playhead = p.startSeq
		pb.startedAt = p.sys.K.Now()
	}
	if pb.playhead >= p.sys.Cfg.Stream.Count {
		return // stream over
	}
	// Nothing to play yet if the stream has not produced this chunk.
	if p.sys.Cfg.Stream.GenerationTime(pb.playhead) > p.sys.K.Now() {
		return
	}
	if p.buf.Has(pb.playhead) {
		pb.playhead++
		pb.played++
	} else {
		pb.stalls++
	}
}

// StartupDelay returns how long the viewer buffered before playback began
// (0, false while still buffering).
func (p *Peer) StartupDelay() (time.Duration, bool) {
	if !p.playback.playing {
		return 0, false
	}
	start := p.joinAt
	return p.playback.startedAt - start, true
}

// ContinuityIndex is played/(played+stalls) — 1.0 is a freeze-free viewing
// session.
func (p *Peer) ContinuityIndex() float64 {
	total := p.playback.played + p.playback.stalls
	if total == 0 {
		return 1
	}
	return float64(p.playback.played) / float64(total)
}

// PlaybackStats returns chunks played and stall ticks.
func (p *Peer) PlaybackStats() (played, stalls int64) {
	return p.playback.played, p.playback.stalls
}

// QoSSummary aggregates viewer experience across the system.
type QoSSummary struct {
	Viewers        int
	Playing        int           // viewers whose playback started
	MeanStartup    time.Duration // mean startup delay over playing viewers
	MeanContinuity float64       // mean continuity index over playing viewers
	TotalStalls    int64
}

// QoS computes the summary at the current virtual time (zero-valued when
// playback simulation is disabled).
func (s *System) QoS() QoSSummary {
	var out QoSSummary
	var startupSum time.Duration
	var contSum float64
	for _, p := range s.Peers() {
		if p.isSource || p.joinAt > 0 && !p.alive && p.playback.played == 0 {
			continue
		}
		if p.isSource {
			continue
		}
		out.Viewers++
		if d, ok := p.StartupDelay(); ok {
			out.Playing++
			startupSum += d
			contSum += p.ContinuityIndex()
		}
		_, stalls := p.PlaybackStats()
		out.TotalStalls += stalls
	}
	if out.Playing > 0 {
		out.MeanStartup = startupSum / time.Duration(out.Playing)
		out.MeanContinuity = contSum / float64(out.Playing)
	}
	return out
}
