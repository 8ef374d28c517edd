package stream

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"dco/internal/chord"
	"dco/internal/israce"
)

func TestChunkNaming(t *testing.T) {
	c := ChunkRef{Channel: "CNN", Seq: 240}
	if c.Name() != "CNN0000000240" {
		t.Fatalf("name = %q", c.Name())
	}
	if c.Name() != c.String() {
		t.Fatal("String should equal Name")
	}
	// Uniqueness across channels and sequences.
	if (ChunkRef{Channel: "CNN", Seq: 1}).ID() == (ChunkRef{Channel: "NBC", Seq: 1}).ID() {
		t.Fatal("cross-channel chunk IDs collide")
	}
	if (ChunkRef{Channel: "CNN", Seq: 1}).ID() == (ChunkRef{Channel: "CNN", Seq: 2}).ID() {
		t.Fatal("same-channel chunk IDs collide")
	}
}

// TestChunkIDHashesTheName: Name is fmt's "%s%010d" for every seq — zero
// padded to ten places with the sign counted in the width, wider seqs
// unpadded — and ID is the hash of Name, also for a channel too long for
// ID's stack buffer; ID allocates nothing.
func TestChunkIDHashesTheName(t *testing.T) {
	for _, ch := range []string{"CNN", "", strings.Repeat("channel", 12)} {
		for _, seq := range []int64{0, 1, 240, 999_999_999, 1_000_000_000, 9_999_999_999, 10_000_000_000,
			-1, -42, -99_999_999, -100_000_000, -999_999_999, -1_000_000_000, math.MaxInt64, math.MinInt64} {
			c := ChunkRef{Channel: ch, Seq: seq}
			if got, want := c.Name(), fmt.Sprintf("%s%010d", ch, seq); got != want {
				t.Errorf("ChunkRef{%q, %d}.Name() = %q, want %q", ch, seq, got, want)
			}
			if got, want := c.ID(), chord.HashString(c.Name()); got != want {
				t.Errorf("ChunkRef{%q, %d}.ID() = %v, want the hash of %q, %v", ch, seq, got, c.Name(), want)
			}
		}
	}
	if israce.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	c := ChunkRef{Channel: "CNN", Seq: -1_000_000_000}
	if a := testing.AllocsPerRun(100, func() { c.ID() }); a != 0 {
		t.Errorf("ChunkRef.ID allocates %.0f times", a)
	}
}

func TestParamsSchedule(t *testing.T) {
	p := DefaultParams()
	if p.GenerationTime(0) != 0 || p.GenerationTime(7) != 7*time.Second {
		t.Fatal("generation schedule wrong")
	}
	if p.SeqAt(-time.Second) != -1 {
		t.Fatal("before stream start there is no chunk")
	}
	if p.SeqAt(0) != 0 || p.SeqAt(1500*time.Millisecond) != 1 {
		t.Fatal("SeqAt wrong inside the stream")
	}
	if p.SeqAt(1e6*time.Second) != p.Count-1 {
		t.Fatal("SeqAt must clamp to the last chunk")
	}
}

func TestBufferMapBasics(t *testing.T) {
	b := NewBufferMap(0)
	if b.Has(0) || b.Count() != 0 {
		t.Fatal("fresh map not empty")
	}
	b.Set(3)
	b.Set(70) // crosses a word boundary
	b.Set(3)  // idempotent
	if !b.Has(3) || !b.Has(70) || b.Has(4) {
		t.Fatal("membership wrong")
	}
	if b.Count() != 2 {
		t.Fatalf("count = %d, want 2", b.Count())
	}
}

func TestBufferMapAdvance(t *testing.T) {
	b := NewBufferMap(0)
	for s := int64(0); s < 130; s++ {
		b.Set(s)
	}
	b.Advance(65) // drop one word plus one bit
	if b.Has(64) {
		t.Fatal("expired chunk still present")
	}
	if !b.Has(65) || !b.Has(129) {
		t.Fatal("live chunks lost by Advance")
	}
	if b.Count() != 65 {
		t.Fatalf("count after advance = %d, want 65", b.Count())
	}
	b.Set(10) // below base: ignored
	if b.Has(10) || b.Count() != 65 {
		t.Fatal("sub-base Set must be a no-op")
	}
	b.Advance(60) // backwards: no-op
	if b.Base() != 65 {
		t.Fatal("backwards Advance moved the base")
	}
	b.Advance(1000) // past everything
	if b.Count() != 0 {
		t.Fatal("advancing past the end should empty the map")
	}
}

func TestBufferMapMissing(t *testing.T) {
	b := NewBufferMap(0)
	for s := int64(0); s < 200; s++ {
		if s != 7 && s != 64 && s != 199 {
			b.Set(s)
		}
	}
	got := b.Missing(0, 199, 10)
	want := []int64{7, 64, 199}
	if len(got) != len(want) {
		t.Fatalf("missing = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("missing = %v, want %v", got, want)
		}
	}
	if got := b.Missing(0, 199, 2); len(got) != 2 {
		t.Fatalf("max not honored: %v", got)
	}
	// Range beyond stored words: everything missing.
	if got := b.Missing(500, 505, 100); len(got) != 6 {
		t.Fatalf("past-the-end missing = %v", got)
	}
}

// Property: Missing agrees with Has for arbitrary membership patterns.
func TestBufferMapMissingMatchesHas(t *testing.T) {
	f := func(present []uint16, lo, width uint8) bool {
		b := NewBufferMap(0)
		for _, s := range present {
			b.Set(int64(s % 512))
		}
		from := int64(lo)
		to := from + int64(width)
		got := b.Missing(from, to, 1<<16)
		idx := 0
		for s := from; s <= to; s++ {
			if !b.Has(s) {
				if idx >= len(got) || got[idx] != s {
					return false
				}
				idx++
			}
		}
		return idx == len(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Count equals the number of set members after arbitrary
// Set/Advance interleavings.
func TestBufferMapCountInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		b := NewBufferMap(0)
		model := map[int64]bool{}
		base := int64(0)
		for i, op := range ops {
			s := int64(op % 400)
			if i%5 == 4 {
				nb := base + int64(op%50)
				b.Advance(nb)
				if nb > base {
					base = nb
					for k := range model {
						if k < base {
							delete(model, k)
						}
					}
				}
				continue
			}
			b.Set(s)
			if s >= base {
				model[s] = true
			}
		}
		if b.Count() != len(model) {
			return false
		}
		for k := range model {
			if !b.Has(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConsecutiveFrom(t *testing.T) {
	b := NewBufferMap(0)
	for _, s := range []int64{5, 6, 7, 9} {
		b.Set(s)
	}
	if got := b.ConsecutiveFrom(5); got != 3 {
		t.Fatalf("run from 5 = %d, want 3", got)
	}
	if got := b.ConsecutiveFrom(8); got != 0 {
		t.Fatalf("run from missing = %d, want 0", got)
	}
}

func TestClone(t *testing.T) {
	b := NewBufferMap(0)
	b.Set(1)
	c := b.Clone()
	c.Set(2)
	if b.Has(2) {
		t.Fatal("clone shares storage with the original")
	}
	if !c.Has(1) || c.Count() != 2 || b.Count() != 1 {
		t.Fatal("clone state wrong")
	}
}

func TestPrefetchWindowEq2(t *testing.T) {
	cfg := PrefetchConfig{BaseWindow: 20, AvgBandwidthBps: 600_000, MinWindow: 1, MaxWindow: 1000}
	// b == B, p_f = 0: window = W.
	if got := cfg.Window(600_000, 0); got != 20 {
		t.Fatalf("baseline window = %d, want 20", got)
	}
	// Half the bandwidth doubles the window.
	if got := cfg.Window(300_000, 0); got != 40 {
		t.Fatalf("half-bandwidth window = %d, want 40", got)
	}
	// p_f = 0.5 doubles the window.
	if got := cfg.Window(600_000, 0.5); got != 40 {
		t.Fatalf("p_f=0.5 window = %d, want 40", got)
	}
	// Clamps.
	clamped := PrefetchConfig{BaseWindow: 20, AvgBandwidthBps: 600_000, MinWindow: 10, MaxWindow: 30}
	if got := clamped.Window(600_000, 0.9); got != 30 {
		t.Fatalf("max clamp failed: %d", got)
	}
	if got := clamped.Window(6_000_000, 0); got != 10 {
		t.Fatalf("min clamp failed: %d", got)
	}
	// Degenerate inputs survive.
	if got := cfg.Window(0, 0); got != cfg.MaxWindow {
		t.Fatalf("zero bandwidth should demand the max window, got %d", got)
	}
	if got := cfg.Window(600_000, 2.0); got <= 0 {
		t.Fatalf("out-of-range p_f mishandled: %d", got)
	}
}

func TestFailureTracker(t *testing.T) {
	ft := NewFailureTracker(0.5)
	if ft.Prob() != 0 || ft.Samples() != 0 {
		t.Fatal("fresh tracker not zero")
	}
	ft.Record(true)
	if ft.Prob() != 1 {
		t.Fatalf("first failure should set p=1, got %f", ft.Prob())
	}
	ft.Record(false)
	if ft.Prob() != 0.5 {
		t.Fatalf("EWMA after one ok = %f, want 0.5", ft.Prob())
	}
	for i := 0; i < 30; i++ {
		ft.Record(false)
	}
	if ft.Prob() > 0.001 {
		t.Fatalf("p should decay toward 0, got %f", ft.Prob())
	}
	// Invalid alpha falls back to a sane default rather than exploding.
	ft2 := NewFailureTracker(-1)
	ft2.Record(true)
	if ft2.Prob() != 1 {
		t.Fatal("fallback alpha broken")
	}
}

func BenchmarkBufferMapSetHas(b *testing.B) {
	bm := NewBufferMap(0)
	for i := 0; i < b.N; i++ {
		bm.Set(int64(i % 4096))
		if !bm.Has(int64(i % 4096)) {
			b.Fatal("lost a bit")
		}
	}
}

func BenchmarkBufferMapMissing(b *testing.B) {
	bm := NewBufferMap(0)
	for s := int64(0); s < 4096; s++ {
		if s%97 != 0 {
			bm.Set(s)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := bm.Missing(0, 4095, 64); len(got) == 0 {
			b.Fatal("no holes found")
		}
	}
}
