// Package stream models the live-stream data plane from §III-A1 of the
// paper: a server slices a channel's media into fixed-length chunks named
// "channel name + generation timestamp"; every viewer keeps a playing
// buffer over a sliding window of active chunks and a prefetching window
// sized by Eq. (2).
package stream

import (
	"strconv"
	"time"

	"dco/internal/chord"
)

// ChunkRef identifies one chunk of one channel. Seq is the chunk's position
// in the stream: with 1-second chunks, seq k is generated k seconds after
// the stream starts. The (channel, seq) pair reproduces the paper's unique
// naming scheme (e.g. NBC20090101013001) without tying tests to wall-clock
// dates.
type ChunkRef struct {
	Channel string
	Seq     int64
}

// Name renders the paper-style unique chunk name.
func (c ChunkRef) Name() string { return string(c.appendName(nil)) }

// ID maps the chunk name onto the DHT identifier circle via consistent
// hashing — the key used for both Insert(ID, index) and Lookup(ID). The
// name is built in a stack buffer: a key costs no allocation.
func (c ChunkRef) ID() chord.ID {
	var buf [64]byte
	return chord.HashBytes(c.appendName(buf[:0]))
}

// appendName appends the chunk name, the channel followed by the seq in
// fmt's %010d (zero-padded to ten characters, the sign counting toward
// the width), to b.
func (c ChunkRef) appendName(b []byte) []byte {
	b = append(b, c.Channel...)
	var num [20]byte
	digits := strconv.AppendInt(num[:0], c.Seq, 10)
	width := 10
	if c.Seq < 0 {
		b = append(b, '-')
		digits, width = digits[1:], 9
	}
	for i := len(digits); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, digits...)
}

// String implements fmt.Stringer.
func (c ChunkRef) String() string { return c.Name() }

// Params fixes the data-plane constants for one channel.
type Params struct {
	Channel   string
	ChunkBits int64         // size of one chunk; paper: 300 kbit (1 s of 300 kbps video)
	Period    time.Duration // generation interval; paper: 1 s
	Count     int64         // how many chunks the server produces; paper: 100 (200 under churn)
}

// DefaultParams returns the paper's §IV settings.
func DefaultParams() Params {
	return Params{Channel: "CNN", ChunkBits: 300_000, Period: time.Second, Count: 100}
}

// Ref returns the ChunkRef for sequence seq.
func (p Params) Ref(seq int64) ChunkRef { return ChunkRef{Channel: p.Channel, Seq: seq} }

// GenerationTime returns the virtual time chunk seq is produced at the
// server (stream starts at t=0).
func (p Params) GenerationTime(seq int64) time.Duration {
	return time.Duration(seq) * p.Period
}

// SeqAt returns the newest sequence number generated at or before t, or -1
// before the first chunk exists.
func (p Params) SeqAt(t time.Duration) int64 {
	if t < 0 {
		return -1
	}
	s := int64(t / p.Period)
	if s >= p.Count {
		s = p.Count - 1
	}
	return s
}
