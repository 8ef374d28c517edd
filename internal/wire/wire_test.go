package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dco/internal/israce"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatalf("write %T: %v", m, err)
	}
	out, err := ReadMessage(&buf)
	if err != nil {
		t.Fatalf("read %T: %v", m, err)
	}
	return out
}

// sampleMessages is at least one message of every kind, empty and
// populated collections both.
func sampleMessages() []Message {
	e1 := Entry{ID: 0xDEADBEEF, Addr: "10.0.0.1:4000"}
	e2 := Entry{ID: 42, Addr: "peer.example:9"}
	return []Message{
		&Error{Msg: "boom"},
		&Error{Code: CodeBusy, Msg: "overloaded"},
		&Error{Code: CodeNotOwner, Msg: "moved"},
		&Ping{},
		&Pong{},
		&FindSuccessor{Key: 0xFFFFFFFFFFFFFFFF},
		&FindSuccessorResp{Done: true, Owner: e1, Succs: []Entry{e1, e2}, Pred: e2, OK: true},
		&FindSuccessorResp{Done: false, Owner: e2},
		&FindSuccessorResp{Final: true, Owner: e1},
		&GetState{},
		&GetStateResp{Pred: e1, PredOK: true, Succs: []Entry{e2}},
		&Notify{From: e1},
		&Ack{},
		&Lookup{Key: 7, Seq: -3, MaxWait: 1500},
		&Lookup{Key: 7, Seq: -3, MaxWait: 1500, DeadlineMs: 2500},
		&LookupResp{Seq: 9, Providers: []Entry{e1, e2}},
		&LookupResp{Seq: 9},
		&Insert{Key: 1, Seq: 2, Holder: e1, UpBps: 600000, BufCount: 10, Unregister: true},
		&Insert{Key: 1, Seq: 2, Holder: e2, UpBps: 600000, BufCount: 10, LoadMilli: 850},
		&GetChunk{Seq: 123456789},
		&GetChunk{Seq: 3, WaitMs: 250},
		&GetChunk{Seq: 4, WaitMs: 250, DeadlineMs: 900},
		&ChunkResp{Seq: 5, OK: true, Data: []byte{1, 2, 3}},
		&ChunkResp{Seq: 5, OK: true, LoadMilli: 420, Data: []byte{9}},
		&ChunkResp{Seq: 5, Busy: true},
		&ChunkResp{Seq: 6, Busy: true, RetryAfterMs: 40, LoadMilli: 2250},
		&Leave{From: e1, NewPred: e2, PredOK: true, NewSucc: []Entry{e1}},
		&Leave{From: e2},
		&ReplicateBatch{Owner: e1, Ops: []ReplicaOp{
			{Key: 7, Seq: 3, Holder: e2, UpBps: 500000, TTLMillis: 45000},
			{Key: 8, Seq: 4, Holder: e1, Unregister: true},
		}},
		&ReplicateBatch{Owner: e2, Full: true},
		&DigestReq{Owner: e1, Digests: []SeqDigest{{Key: 1, Seq: 2, Hash: 0xABCD}, {Key: 3, Seq: 4, Hash: 0}}},
		&DigestReq{Owner: e2},
		&DigestResp{Need: []int64{1, -2, 3}},
		&DigestResp{},
		&CensusProbe{From: e1, Digest: 0xFEEDF00D, Members: []Entry{e1, e2}},
		&CensusProbe{From: e2},
		&CensusResp{From: e2, Digest: 1, Members: []Entry{e1}},
		&CensusResp{From: e1},
		&KadFindNode{From: e1, Key: 0x8000000000000001, Refresh: true},
		&KadFindNode{From: e2, Key: 0},
		&KadFindNodeResp{From: e2, Closest: []Entry{e1, e2}},
		&KadFindNodeResp{From: e1},
		&Insert{Key: 1, Seq: 2, Holder: e1, UpBps: 100, ManifestHead: 77, ManifestDigest: 0xABCDEF01},
		&ChunkResp{Seq: 5, OK: true},
		&PollutionReport{From: e1, Key: 9, Seq: 10, Target: e2},
		&PollutionReport{},
		&Insert{Key: 1, Seq: 2, Holder: e1, UpBps: 100, LoadMilli: 300, ManifestHead: 9, More: []int64{5, -1, 1 << 40}},
	}
}

func TestRoundTripAllKinds(t *testing.T) {
	seen := make(map[Kind]bool)
	for _, m := range sampleMessages() {
		seen[m.Kind()] = true
		got := roundTrip(t, m)
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%T round-trip mismatch:\n  sent %#v\n  got  %#v", m, m, got)
		}
	}
	for k := KindError; k <= KindPollutionReport; k++ {
		if !seen[k] && !retired(k) {
			t.Errorf("no sample message of kind %d", k)
		}
	}
}

// TestDecodersCopyOutOfScratch pins the invariant the pooled read path
// rests on: a decoded message references none of the bytes it was decoded
// from, so the scratch buffer can be reused for the next frame.
func TestDecodersCopyOutOfScratch(t *testing.T) {
	for _, m := range sampleMessages() {
		fields := m.encode(nil)
		got, err := New(m.Kind())
		if err != nil {
			t.Fatal(err)
		}
		if err := got.decode(&reader{b: fields}); err != nil {
			t.Fatalf("decode %T: %v", m, err)
		}
		for i := range fields {
			fields[i] = 0xFF
		}
		if cr, ok := m.(*ChunkResp); ok {
			// Data is not a field the decoder sees: the framing moves it.
			got.(*ChunkResp).Data = cr.Data
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%T aliases its input buffer:\n  sent %#v\n  got  %#v", m, m, got)
		}
	}
}

// TestBusyNackRoundTrip pins the overload-control contract on the wire: a
// Busy shed keeps its RetryAfterMs hint and load factor across encoding,
// carries no payload, and stays distinguishable from a plain miss.
func TestBusyNackRoundTrip(t *testing.T) {
	shed := &ChunkResp{Seq: 77, Busy: true, RetryAfterMs: 125, LoadMilli: 1800}
	got := roundTrip(t, shed).(*ChunkResp)
	if !got.Busy || got.OK {
		t.Fatalf("busy nack flags mutated: %#v", got)
	}
	if got.RetryAfterMs != 125 || got.LoadMilli != 1800 {
		t.Fatalf("busy nack lost its hints: retry=%d load=%d", got.RetryAfterMs, got.LoadMilli)
	}
	if len(got.Data) != 0 {
		t.Fatalf("busy nack grew a payload: %d bytes", len(got.Data))
	}
	miss := roundTrip(t, &ChunkResp{Seq: 77, LoadMilli: 300}).(*ChunkResp)
	if miss.Busy || miss.OK || miss.RetryAfterMs != 0 {
		t.Fatalf("miss response mutated: %#v", miss)
	}
}

func TestRoundTripEmptyCollections(t *testing.T) {
	// nil vs empty slices: the codec may decode nil for empty; the
	// semantics must survive regardless.
	m := &GetStateResp{}
	got := roundTrip(t, m).(*GetStateResp)
	if got.PredOK || len(got.Succs) != 0 {
		t.Fatalf("empty GetStateResp mutated: %#v", got)
	}
}

func TestMultipleFramesOnOneStream(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		if err := WriteMessage(&buf, &GetChunk{Seq: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		m, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if m.(*GetChunk).Seq != int64(i) {
			t.Fatalf("frame %d out of order", i)
		}
	}
	if _, err := ReadMessage(&buf); err == nil {
		t.Fatal("expected EOF-ish error on drained stream")
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	big := &ChunkResp{Seq: 1, OK: true, Data: make([]byte, MaxFrame)}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, big); err != ErrFrameTooLarge {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	// A forged oversized header must be rejected before allocation.
	var hdr bytes.Buffer
	hdr.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadMessage(&hdr); err != ErrFrameTooLarge {
		t.Fatalf("want ErrFrameTooLarge on read, got %v", err)
	}
}

func TestUnknownKindRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 1, 0xEE})
	if _, err := ReadMessage(&buf); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// retired reports whether k is a kind no node sends any more.
func retired(k Kind) bool {
	return k == KindHandoff || k == KindManifestReq || k == KindManifestResp
}

// rawFrame frames fields under kind k.
func rawFrame(k Kind, fields []byte) []byte {
	f := binary.BigEndian.AppendUint32(nil, uint32(1+len(fields)))
	return append(append(f, byte(k)), fields...)
}

// retiredHandoffFrame is a frame of the retired KindHandoff, laid out as
// its senders encoded it: one entry (key, seq) naming one provider.
func retiredHandoffFrame() []byte {
	return rawFrame(KindHandoff, putEntries(putI64(putU64(putU32(nil, 1), 1), 2), []Entry{{ID: 7, Addr: "peer:1"}}))
}

// retiredManifestFrames are frames of the retired manifest kinds, laid out
// as their senders encoded them: a request from seq 100, and a reply with
// one row (seq, 32-byte hash, 32-byte tag).
func retiredManifestFrames() map[string][]byte {
	row := putBytes(putBytes(putI64(putU32(nil, 1), 100), make([]byte, 32)), make([]byte, 32))
	return map[string][]byte{
		"ManifestReq":  rawFrame(KindManifestReq, putI64(nil, 100)),
		"ManifestResp": rawFrame(KindManifestResp, row),
	}
}

// refusedAsUnknown fails t unless frame is refused as an unknown kind
// before anything is decoded or allocated.
func refusedAsUnknown(t *testing.T, name string, frame []byte) {
	t.Helper()
	rd := bytes.NewReader(frame)
	var err error
	b, objs := allocsPerOp(100, func() {
		rd.Reset(frame)
		_, err = ReadMessage(rd)
	})
	if !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("retired %s frame: %v, want ErrUnknownKind", name, err)
	}
	// Fewer than one object per frame: a stray runtime allocation across the
	// runs is not the decoder's.
	if objs >= 1 && !israce.Enabled {
		t.Fatalf("rejecting a retired %s frame allocated %.2f objects (%.0f B) per frame, want 0", name, objs, b)
	}
}

// TestRetiredHandoffIsUnknown: a Handoff frame from a peer that still sends
// one is refused as an unknown kind before anything is decoded or allocated.
func TestRetiredHandoffIsUnknown(t *testing.T) {
	refusedAsUnknown(t, "Handoff", retiredHandoffFrame())
}

// TestRetiredManifestKindsAreUnknown: so are the manifest-row frames, now
// that every chunk is checked against the generator.
func TestRetiredManifestKindsAreUnknown(t *testing.T) {
	for name, frame := range retiredManifestFrames() {
		refusedAsUnknown(t, name, frame)
	}
}

func TestTruncatedPayloadsNeverPanic(t *testing.T) {
	// Fuzz-ish robustness: valid frames truncated at every byte boundary
	// must produce errors, not panics.
	e1 := Entry{ID: 9, Addr: "a:1"}
	full := func() []byte {
		var buf bytes.Buffer
		_ = WriteMessage(&buf, &FindSuccessorResp{Done: true, Owner: e1, Succs: []Entry{e1, e1}, Pred: e1, OK: true})
		return buf.Bytes()
	}()
	for cut := 5; cut < len(full); cut++ {
		frame := append([]byte(nil), full[:cut]...)
		// Fix up the length header to claim only the truncated payload.
		frame[0], frame[1], frame[2], frame[3] = 0, 0, 0, byte(cut-4)
		if _, err := ReadMessage(bytes.NewReader(frame)); err == nil {
			// Some prefixes happen to parse (e.g. fewer list items); that
			// is fine as long as nothing panicked.
			continue
		}
	}
}

func TestRandomJunkNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		n := 5 + rng.Intn(64)
		junk := make([]byte, n)
		rng.Read(junk)
		junk[0], junk[1], junk[2] = 0, 0, 0
		junk[3] = byte(n - 4)
		junk[4] = byte(1 + rng.Intn(16)) // a known kind
		_, _ = ReadMessage(bytes.NewReader(junk))
	}
}

func TestReadFromShortStream(t *testing.T) {
	var buf bytes.Buffer
	_ = WriteMessage(&buf, &Ping{})
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut++ {
		if _, err := ReadMessage(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("short stream (%d bytes) parsed", cut)
		}
	}
}

func TestErrorImplementsError(t *testing.T) {
	var err error = &Error{Msg: "x"}
	if err.Error() != "remote: x" {
		t.Fatalf("error text %q", err.Error())
	}
}

func TestErrorClassification(t *testing.T) {
	cases := []struct {
		err       error
		retryable bool
		notOwner  bool
	}{
		{&Error{Code: CodeBusy, Msg: "b"}, true, false},
		{&Error{Code: CodeNotOwner, Msg: "n"}, false, true},
		{&Error{Code: CodeGeneric, Msg: "g"}, false, false},
		{&Error{Code: CodeShutdown, Msg: "s"}, false, false},
		{&Error{Code: CodeBadRequest, Msg: "q"}, false, false},
		{io.ErrClosedPipe, true, false}, // transport-level: presumed transient
		{nil, false, false},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.retryable {
			t.Errorf("Retryable(%v) = %v, want %v", c.err, got, c.retryable)
		}
		if got := IsNotOwner(c.err); got != c.notOwner {
			t.Errorf("IsNotOwner(%v) = %v, want %v", c.err, got, c.notOwner)
		}
	}
}

func TestReadMessageLimit(t *testing.T) {
	var buf bytes.Buffer
	_ = WriteMessage(&buf, &ChunkResp{Seq: 1, OK: true, Data: make([]byte, 1024)})
	frame := buf.Bytes()
	if _, err := ReadMessageLimit(bytes.NewReader(frame), 128); err != ErrFrameTooLarge {
		t.Fatalf("limit 128 accepted a ~1KiB frame: %v", err)
	}
	if _, err := ReadMessageLimit(bytes.NewReader(frame), 4096); err != nil {
		t.Fatalf("limit 4096 rejected a ~1KiB frame: %v", err)
	}
	// 0 and oversized limits clamp to MaxFrame.
	if _, err := ReadMessageLimit(bytes.NewReader(frame), 0); err != nil {
		t.Fatalf("limit 0 (= MaxFrame) rejected: %v", err)
	}
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadMessageLimit(bytes.NewReader(hdr), 1<<30); err != ErrFrameTooLarge {
		t.Fatalf("forged huge prefix accepted: %v", err)
	}
}

// TestChunkRespDataIsOwned pins who owns a decoded payload: the message
// alone. Data is exactly as long as the payload (cap == len: no larger
// frame buffer is retained behind it), survives later reads on the same
// stream and the reuse of pooled scratch, and can be mutated without
// touching any other message — faulty.corrupt and poisonChunk flip bytes
// of a reply in place and rely on exactly that.
func TestChunkRespDataIsOwned(t *testing.T) {
	sent := []*ChunkResp{
		{Seq: 1, OK: true, Data: bytes.Repeat([]byte{0x11}, 1000)},
		{Seq: 2, OK: true, Data: bytes.Repeat([]byte{0x22}, 64*1024)},
		{Seq: 3, OK: true, Data: bytes.Repeat([]byte{0x33}, 1000)},
	}
	var stream bytes.Buffer
	for _, m := range sent {
		if err := WriteMessage(&stream, m); err != nil {
			t.Fatal(err)
		}
	}
	// Control frames between and after: each read borrows pooled scratch.
	if err := WriteMessage(&stream, &Error{Msg: string(bytes.Repeat([]byte{0xEE}, 2000))}); err != nil {
		t.Fatal(err)
	}
	raw := stream.Bytes()

	var got []*ChunkResp
	for range sent {
		m, err := ReadMessage(&stream)
		if err != nil {
			t.Fatal(err)
		}
		cr := m.(*ChunkResp)
		if cap(cr.Data) != len(cr.Data) {
			t.Fatalf("seq %d: cap(Data) = %d, len = %d: a frame buffer is retained behind the payload",
				cr.Seq, cap(cr.Data), len(cr.Data))
		}
		got = append(got, cr)
	}
	if _, err := ReadMessage(&stream); err != nil {
		t.Fatal(err)
	}
	// The stream's own bytes and every pooled buffer may now change.
	for i := range raw {
		raw[i] = 0xFF
	}
	for i := 0; i < 4; i++ {
		roundTrip(t, &Error{Msg: string(bytes.Repeat([]byte{0xDD}, 4000))})
	}
	for i, cr := range got {
		if !reflect.DeepEqual(cr, sent[i]) {
			t.Fatalf("seq %d changed after later reads and buffer reuse", cr.Seq)
		}
	}
	// Mutating one decoded payload touches no other message.
	for i := range got[0].Data {
		got[0].Data[i] ^= 0xFF
	}
	for i, cr := range got[1:] {
		if !reflect.DeepEqual(cr, sent[i+1]) {
			t.Fatalf("mutating seq 1 changed seq %d", cr.Seq)
		}
	}
}

// writeLog records the slices a writer was handed.
type writeLog struct{ writes [][]byte }

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, p)
	return len(p), nil
}

// TestWriteShape pins what reaches the writer: a control message is one
// Write (length prefix included), and a ChunkResp is its head followed by
// the caller's Data slice itself — not a copy — left unmodified.
func TestWriteShape(t *testing.T) {
	var ctl writeLog
	n, err := WriteMessageN(&ctl, &Insert{Key: 1, Seq: 2, Holder: Entry{ID: 3, Addr: "a:1"}})
	if err != nil || len(ctl.writes) != 1 || n != len(ctl.writes[0]) {
		t.Fatalf("control message: %d writes, n=%d, err=%v; want one write of n bytes", len(ctl.writes), n, err)
	}

	data := bytes.Repeat([]byte{7}, 4096)
	var bulk writeLog
	n, err = WriteMessageN(&bulk, &ChunkResp{Seq: 1, OK: true, Data: data})
	if err != nil || len(bulk.writes) != 2 {
		t.Fatalf("chunk response: %d writes, err=%v; want head then data", len(bulk.writes), err)
	}
	if tail := bulk.writes[1]; len(tail) != len(data) || &tail[0] != &data[0] {
		t.Fatal("chunk data reached the writer as a copy, not the caller's slice")
	}
	if want := len(bulk.writes[0]) + len(data); n != want {
		t.Fatalf("WriteMessageN = %d, want %d", n, want)
	}
	if !bytes.Equal(data, bytes.Repeat([]byte{7}, 4096)) {
		t.Fatal("writing modified the caller's data")
	}
}

// chunkFrame hand-builds a ChunkResp frame: n and tail as declared, the
// fields with the given OK and Busy, then body.
func chunkFrame(n, tail uint32, ok, busy bool, body []byte) []byte {
	f := []byte{0, 0, 0, 0, byte(KindChunkResp)}
	binary.BigEndian.PutUint32(f, n)
	f = putU32(f, tail)
	f = (&ChunkResp{Seq: 9, OK: ok, Busy: busy}).encode(f)
	return append(f, body...)
}

// malformedChunkFrames are ChunkResp frames the reader must reject, each
// before it allocates the tail the frame declares.
func malformedChunkFrames() map[string][]byte {
	// The encoded size of the kind byte, the tail length and the fields.
	fixed := uint32(len(chunkFrame(0, 0, true, false, nil)) - 4)
	return map[string][]byte{
		"tail longer than the frame":   chunkFrame(fixed+4, 1<<20, true, false, []byte{1, 2, 3, 4}),
		"tail longer than any frame":   chunkFrame(fixed, 0xFFFFFFFF, true, false, nil),
		"data on a busy nack":          chunkFrame(fixed+4, 4, false, true, []byte{1, 2, 3, 4}),
		"data on a miss":               chunkFrame(fixed+4, 4, false, false, []byte{1, 2, 3, 4}),
		"stream ends inside the tail":  chunkFrame(fixed+100, 100, true, false, make([]byte, 40)),
		"tail leaves the fields short": chunkFrame(fixed, 8, true, false, nil),
		"frame too short for its tail": chunkFrame(3, 0, true, false, nil)[:8],
	}
}

func TestMalformedChunkFramesRejected(t *testing.T) {
	for name, frame := range malformedChunkFrames() {
		if m, err := ReadMessage(bytes.NewReader(frame)); err == nil {
			t.Errorf("%s: accepted as %#v", name, m)
		}
	}
	// The frame limit is judged on the length prefix alone, before the
	// tail length is even read.
	big := chunkFrame(1<<20, 1<<19, true, false, nil)
	if _, err := ReadMessageLimit(bytes.NewReader(big), 64*1024); err != ErrFrameTooLarge {
		t.Fatalf("1 MiB chunk frame under a 64 KiB limit: %v, want ErrFrameTooLarge", err)
	}
}

// allocsPerOp runs f runs times and returns heap bytes and objects
// allocated per run, process-wide.
func allocsPerOp(runs int, f func()) (bytesPerOp, objsPerOp float64) {
	f() // warm the pools
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs), float64(m1.Mallocs-m0.Mallocs) / float64(runs)
}

// TestAllocationBudgets holds the codec to what a hop is allowed to cost:
// a 64 KiB chunk response crosses encode and decode with one payload-sized
// allocation (the reader's exact-size Data) and its struct, and a
// fixed-size control message allocates its decoded struct and nothing
// for framing.
func TestAllocationBudgets(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	var buf bytes.Buffer
	trip := func(m Message) func() {
		return func() {
			buf.Reset()
			if err := WriteMessage(&buf, m); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadMessage(&buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	chunk := &ChunkResp{Seq: 42, OK: true, Data: make([]byte, 64*1024)}
	if b, objs := allocsPerOp(200, trip(chunk)); b > 66_560 || objs >= 3 {
		t.Errorf("64 KiB ChunkResp round-trip: %.0f B in %.1f objects; budget 66,560 B (one payload and 1 KiB) in 2: struct, data", b, objs)
	}
	if b, objs := allocsPerOp(200, trip(&GetChunk{Seq: 1, WaitMs: 2, DeadlineMs: 3})); objs >= 2 || b > 64 {
		t.Errorf("GetChunk round-trip: %.0f B in %.1f objects; budget: the decoded struct", b, objs)
	}
	// allocsPerOp's warm-up run decodes every member once; after that each
	// address comes from the intern table. The slack over 2 is ten stray
	// runtime allocations across the 200 runs (a pool refilled after a GC);
	// intern misses on more than one op in 20 fail it.
	ms := members(9)
	if _, objs := allocsPerOp(200, trip(&GetStateResp{Pred: ms[0], PredOK: true, Succs: ms[1:]})); objs > 2.05 {
		t.Errorf("GetStateResp of 9 seen members round-trip: %.1f objects; budget 2: the struct and its list", objs)
	}
	// A replicated batch costs the same few objects whatever its op count:
	// its holders' addresses come from the intern table, and an op has no
	// byte field of its own to copy.
	batch := func(ops int) Message {
		b := &ReplicateBatch{Owner: ms[0]}
		for i := 0; i < ops; i++ {
			b.Ops = append(b.Ops, ReplicaOp{Key: uint64(i), Seq: int64(i), Holder: ms[1+i%8], UpBps: 1, TTLMillis: 45_000})
		}
		return b
	}
	_, few := allocsPerOp(200, trip(batch(8)))
	if _, objs := allocsPerOp(200, trip(batch(64))); objs > 3.05 || objs > few+0.05 {
		t.Errorf("ReplicateBatch of 64 ops from 8 seen holders round-trip: %.1f objects (8 ops: %.1f); budget 3, whatever the op count", objs, few)
	}
}

// members returns n entries with distinct IDs and addresses shaped like
// the live stack's.
func members(n int) []Entry {
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{ID: uint64(i+1) * 0x9E3779B97F4A7C15, Addr: fmt.Sprintf("127.0.0.1:%d", 7000+i)}
	}
	return es
}

// collidingEntries contend for one intern slot: two share an ID and differ
// in address, a third has another ID that maps to the same slot.
func collidingEntries() []Entry {
	other := uint64(8)
	for internSlot(other) != internSlot(7) {
		other++
	}
	return []Entry{{ID: 7, Addr: "a.example:1"}, {ID: 7, Addr: "b.example:2"}, {ID: other, Addr: "c.example:3"}}
}

// TestInternCollisions: entries that contend for one slot — one ID with two
// addresses, two IDs in one slot — each decode to their own address, frame
// after frame.
func TestInternCollisions(t *testing.T) {
	es := collidingEntries()
	for i := 0; i < 4; i++ {
		sent := &LookupResp{Seq: int64(i), Providers: []Entry{es[i%3], es[(i+1)%3], es[(i+2)%3], es[i%3]}}
		if got := roundTrip(t, sent); !reflect.DeepEqual(got, sent) {
			t.Fatalf("frame %d:\n  sent %#v\n  got  %#v", i, sent, got)
		}
	}
}

// TestInternSkipsLongAddrs: an address over the cap round-trips and is not
// stored; one at the cap is.
func TestInternSkipsLongAddrs(t *testing.T) {
	for _, n := range []int{maxInternAddr, maxInternAddr + 1} {
		e := Entry{ID: uint64(1000 + n), Addr: strings.Repeat("x", n)}
		if got := roundTrip(t, &Notify{From: e}).(*Notify); got.From != e {
			t.Fatalf("%d-byte address: sent %v, got %v", n, e, got.From)
		}
		rec := internSlot(e.ID).Load()
		if stored := rec != nil && rec.id == e.ID; stored != (n <= maxInternAddr) {
			t.Errorf("%d-byte address (cap %d): stored = %v", n, maxInternAddr, stored)
		}
	}
}

// TestInternTableStaysFixed decodes 100k distinct addresses: every message
// comes back as it was sent, and what stays behind is at most one record a
// slot — not the 8 MB the records of 100k addresses take.
func TestInternTableStaysFixed(t *testing.T) {
	const total, perFrame = 100_000, 100
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for base := 0; base < total; base += perFrame {
		sent := &LookupResp{Seq: int64(base), Providers: make([]Entry, perFrame)}
		for i := range sent.Providers {
			id := uint64(base + i)
			sent.Providers[i] = Entry{ID: id * 0xD6E8FEB86659FD93, Addr: fmt.Sprintf("10.%d.%d.%d:7000", id>>16, id>>8&0xFF, id&0xFF)}
		}
		if got := roundTrip(t, sent); !reflect.DeepEqual(got, sent) {
			t.Fatalf("frame at %d came back changed", base)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if grew := int64(m1.HeapAlloc) - int64(m0.HeapAlloc); grew > 1<<20 {
		t.Fatalf("decoding 100k distinct addresses left the live heap %d B larger; the table is %d slots", grew, len(internTable))
	}
}

// TestInternConcurrentDecodes: eight goroutines decode overlapping and
// colliding entries at once (run it under -race).
func TestInternConcurrentDecodes(t *testing.T) {
	pool := append(members(16), collidingEntries()...)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := 0; i < 300; i++ {
				sent := &GetStateResp{Pred: pool[(g+i)%len(pool)], PredOK: true}
				for j := 0; j < 8; j++ {
					sent.Succs = append(sent.Succs, pool[(g*3+i+j*5)%len(pool)])
				}
				buf.Reset()
				if err := WriteMessage(&buf, sent); err != nil {
					t.Error(err)
					return
				}
				got, err := ReadMessage(&buf)
				if err != nil || !reflect.DeepEqual(got, sent) {
					t.Errorf("goroutine %d frame %d: sent %v, got %v (%v)", g, i, sent, got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// forgedCountFrames are frames whose count prefix claims as many items as
// MaxFrame could hold and whose body carries none of them.
func forgedCountFrames() map[string][]byte {
	frame := func(kind Kind, fields []byte) []byte {
		f := binary.BigEndian.AppendUint32(nil, uint32(1+len(fields)))
		return append(append(f, byte(kind)), fields...)
	}
	owner := putEntry(nil, Entry{})
	return map[string][]byte{
		"LookupResp providers":    frame(KindLookupResp, putU32(putI64(nil, 1), MaxFrame/9)),
		"GetStateResp successors": frame(KindGetStateResp, putU32(putBool(owner, true), MaxFrame/12)),
		"ReplicateBatch ops":      frame(KindReplicateBatch, putU32(putBool(owner, false), MaxFrame/41)),
		"DigestReq digests":       frame(KindDigestReq, putU32(owner, MaxFrame/24)),
		"DigestResp seqs":         frame(KindDigestResp, putU32(nil, MaxFrame/8)),
		"CensusProbe members":     frame(KindCensusProbe, putU32(putU64(owner, 6), MaxFrame/12)),
	}
}

// TestForgedCountsAllocateNothing: a count prefix is checked against the
// bytes left in the frame before anything is allocated for it — a 17-byte
// LookupResp claiming MaxFrame/9 providers once cost 11 MB.
func TestForgedCountsAllocateNothing(t *testing.T) {
	for name, frame := range forgedCountFrames() {
		var err error
		b, _ := allocsPerOp(10, func() { _, err = ReadMessage(bytes.NewReader(frame)) })
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if b >= 4096 {
			t.Errorf("%s (%d-byte frame): rejecting it allocated %.0f B, budget 4 KiB", name, len(frame), b)
		}
	}
}

func TestWriteToFailingWriter(t *testing.T) {
	if err := WriteMessage(failWriter{}, &Ping{}); err == nil {
		t.Fatal("write error swallowed")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

func BenchmarkEncodeDecodeLookupResp(b *testing.B) {
	m := &LookupResp{Seq: 42, Providers: []Entry{
		{ID: 1, Addr: "10.0.0.1:7001"}, {ID: 2, Addr: "10.0.0.2:7002"}, {ID: 3, Addr: "10.0.0.3:7003"},
	}}
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteMessage(&buf, m); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadMessage(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeDecodeChunkResp(b *testing.B) {
	m := &ChunkResp{Seq: 42, OK: true, Data: make([]byte, 64*1024)}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.SetBytes(int64(len(m.Data)))
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteMessage(&buf, m); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadMessage(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCensusRoundTrip pins the ring-census contract on the wire: probe and
// response carry the sender identity, the view digest, and the full member
// list unchanged — the split-brain detector compares exactly these fields.
func TestCensusRoundTrip(t *testing.T) {
	view := []Entry{
		{ID: 10, Addr: "a:1"},
		{ID: 20, Addr: "b:2"},
		{ID: 30, Addr: "c:3"},
	}
	probe := &CensusProbe{From: view[0], Digest: 0x1234567890ABCDEF, Members: view}
	gotP := roundTrip(t, probe).(*CensusProbe)
	if !reflect.DeepEqual(probe, gotP) {
		t.Fatalf("census probe mutated:\n  sent %#v\n  got  %#v", probe, gotP)
	}
	resp := &CensusResp{From: view[2], Digest: 0xFFFFFFFFFFFFFFFF, Members: view[1:]}
	gotR := roundTrip(t, resp).(*CensusResp)
	if !reflect.DeepEqual(resp, gotR) {
		t.Fatalf("census resp mutated:\n  sent %#v\n  got  %#v", resp, gotR)
	}
	// An empty view (lone node probing from its member cache) must survive.
	lone := roundTrip(t, &CensusProbe{From: view[0], Digest: 0}).(*CensusProbe)
	if lone.From != view[0] || lone.Digest != 0 || len(lone.Members) != 0 {
		t.Fatalf("lone-node probe mutated: %#v", lone)
	}
}

// TestKadFindNodeRoundTrip pins the Kademlia routing contract on the wire:
// the caller identity, target key, and refresh flag survive in the request,
// and the responder identity plus the ordered k-closest list survive in the
// response — iterative lookups merge exactly these fields.
func TestKadFindNodeRoundTrip(t *testing.T) {
	caller := Entry{ID: 0x00FF00FF00FF00FF, Addr: "kad-a:1"}
	closest := []Entry{
		{ID: 0x8000000000000000, Addr: "kad-b:2"},
		{ID: 0x8000000000000001, Addr: "kad-c:3"},
		{ID: 0xC000000000000000, Addr: "kad-d:4"},
	}
	req := &KadFindNode{From: caller, Key: 0x8000000000000002, Refresh: true}
	gotReq := roundTrip(t, req).(*KadFindNode)
	if !reflect.DeepEqual(req, gotReq) {
		t.Fatalf("KadFindNode mutated:\n  sent %#v\n  got  %#v", req, gotReq)
	}
	resp := &KadFindNodeResp{From: closest[0], Closest: closest}
	gotResp := roundTrip(t, resp).(*KadFindNodeResp)
	if !reflect.DeepEqual(resp, gotResp) {
		t.Fatalf("KadFindNodeResp mutated:\n  sent %#v\n  got  %#v", resp, gotResp)
	}
	// A responder with an empty routing table (fresh bootstrap target) must
	// still answer with its identity intact.
	empty := roundTrip(t, &KadFindNodeResp{From: caller}).(*KadFindNodeResp)
	if empty.From != caller || len(empty.Closest) != 0 {
		t.Fatalf("empty-table response mutated: %#v", empty)
	}
}

// TestPollutionReportRoundTrip pins the quarantine-gossip contract: the
// reporter identity (transport 'from' is unreliable over TCP, so it rides
// in-band), the polluted key/seq, and the accused provider all survive.
func TestPollutionReportRoundTrip(t *testing.T) {
	rep := &PollutionReport{
		From:   Entry{ID: 5, Addr: "honest:1"},
		Key:    0xFEEDFACE,
		Seq:    321,
		Target: Entry{ID: 66, Addr: "evil:2"},
	}
	got := roundTrip(t, rep).(*PollutionReport)
	if *got != *rep {
		t.Fatalf("pollution report mutated:\n  sent %#v\n  got  %#v", rep, got)
	}
}
