package live

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"dco/internal/israce"
	"dco/internal/stream"
)

func payloadParams(size int64) stream.Params {
	return stream.Params{Channel: "X", ChunkBits: 8 * size, Period: time.Second}
}

// TestPayloadKnownAnswer pins the generator's output: a change to the word
// function, the byte order or the tail rule changes the media every node
// of a swarm must agree on, so it has to be deliberate.
func TestPayloadKnownAnswer(t *testing.T) {
	for _, tc := range []struct {
		size int64
		seq  int64
		want string
	}{
		{64 * 1024, 7, "010f3226979978d63e5dc348394a760cce9f231db9b7f57ce07ac803ab063eac"},
		{1024, 0, "c50b5c225fcf75f96cd1ca91327b964d4e1aed8fb31fc92a7157896e00ceb2de"},
	} {
		sum := sha256.Sum256(MakeChunkPayload(payloadParams(tc.size), tc.seq))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("SHA-256 of payload (%d B, seq %d) = %s, want %s", tc.size, tc.seq, got, tc.want)
		}
	}
}

// TestPayloadBodyIsBoundToItsSeq: seq a's body under seq b's header fails,
// for neighbouring and distant seqs alike — every body word depends on seq.
func TestPayloadBodyIsBoundToItsSeq(t *testing.T) {
	p := payloadParams(1001)
	for _, pair := range [][2]int64{{0, 1}, {7, 8}, {8, 7}, {5, 1 << 40}} {
		data := MakeChunkPayload(p, pair[0])
		binary.BigEndian.PutUint64(data, uint64(pair[1]))
		if VerifyChunkPayload(p, pair[1], data) {
			t.Errorf("seq %d's body verified under seq %d's header", pair[0], pair[1])
		}
	}
}

// TestPayloadBitFlips: one flipped bit in the first body word, a middle
// word or the partial last word fails verification.
func TestPayloadBitFlips(t *testing.T) {
	const size = 1003 // 8-byte header, 124 full words, a 3-byte tail
	p := payloadParams(size)
	for _, tc := range []struct {
		name string
		off  int
	}{
		{"first word", 8},
		{"middle word", 8 + 8*62 + 5},
		{"partial last word", size - 2},
	} {
		for bit := 0; bit < 8; bit++ {
			data := MakeChunkPayload(p, 11)
			data[tc.off] ^= 1 << bit
			if VerifyChunkPayload(p, 11, data) {
				t.Errorf("%s: flip of bit %d at byte %d verified", tc.name, bit, tc.off)
			}
		}
	}
}

// TestMakeChunkPayloadAllocatesOnce: the generator writes its words
// straight into the one payload allocation.
func TestMakeChunkPayloadAllocatesOnce(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := payloadParams(64 * 1024)
	if allocs := testing.AllocsPerRun(20, func() { sinkPayload = MakeChunkPayload(p, 7) }); allocs != 1 {
		t.Fatalf("MakeChunkPayload allocates %.0f objects per 64 KiB chunk, want 1", allocs)
	}
}

var sinkPayload []byte

// BenchmarkChunkPayload: what the source pays to make a chunk and what a
// viewer pays to check one against the generator, at the flash crowd's and
// the bulk workload's chunk sizes.
func BenchmarkChunkPayload(b *testing.B) {
	for _, size := range []int64{1024, 64 * 1024} {
		p := payloadParams(size)
		b.Run(fmt.Sprintf("make/%dKiB", size/1024), func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkPayload = MakeChunkPayload(p, int64(i))
			}
		})
		b.Run(fmt.Sprintf("verify/%dKiB", size/1024), func(b *testing.B) {
			data := MakeChunkPayload(p, 7)
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !VerifyChunkPayload(p, 7, data) {
					b.Fatal("payload failed its own verification")
				}
			}
		})
	}
}
