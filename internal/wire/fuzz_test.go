package wire

import (
	"bytes"
	"testing"
)

// FuzzReadMessage feeds arbitrary frames through the decoder: it must
// never panic, and anything it accepts must re-encode and re-decode to the
// same kind (decode/encode stability).
func FuzzReadMessage(f *testing.F) {
	// Seed with one valid frame of each kind.
	e := Entry{ID: 7, Addr: "seed:1"}
	seeds := []Message{
		&Error{Msg: "x"},
		&Ping{}, &Pong{},
		&FindSuccessor{Key: 1},
		&FindSuccessorResp{Done: true, Owner: e, Succs: []Entry{e}, Pred: e, OK: true},
		&FindSuccessorResp{Owner: e},
		&FindSuccessorResp{Final: true, Owner: e},
		&GetState{}, &GetStateResp{Pred: e, PredOK: true, Succs: []Entry{e}},
		&Notify{From: e}, &Ack{},
		&Lookup{Key: 2, Seq: 3, MaxWait: 4},
		&Lookup{Key: 2, Seq: 3, MaxWait: 4, DeadlineMs: 1200},
		&LookupResp{Seq: 3, Providers: []Entry{e}},
		&Insert{Key: 5, Seq: 6, Holder: e, UpBps: 7, BufCount: 8, LoadMilli: 900},
		&GetChunk{Seq: 9, WaitMs: 150},
		&GetChunk{Seq: 9, WaitMs: 150, DeadlineMs: 800},
		&ChunkResp{Seq: 10, OK: true, LoadMilli: 330, Data: []byte{1, 2}},
		&ChunkResp{Seq: 11, Busy: true, RetryAfterMs: 60, LoadMilli: 1500},
		&ReplicateBatch{Owner: e, Full: true, Ops: []ReplicaOp{{Key: 1, Seq: 2, Holder: e, TTLMillis: 4}, {Key: 1, Seq: 2, Holder: e}}},
		&Leave{From: e, NewSucc: []Entry{e}},
		&ReplicateBatch{Owner: e, Ops: []ReplicaOp{{Key: 1, Seq: 2, Holder: e, UpBps: 3, TTLMillis: 4}}},
		&DigestReq{Owner: e, Digests: []SeqDigest{{Key: 1, Seq: 2, Hash: 3}}},
		&DigestResp{Need: []int64{5}},
		&CensusProbe{From: e, Digest: 6, Members: []Entry{e}},
		&CensusResp{From: e, Digest: 6, Members: []Entry{e}},
		&KadFindNode{From: e, Key: 12, Refresh: true},
		&KadFindNodeResp{From: e, Closest: []Entry{e}},
		&Insert{Key: 5, Seq: 6, Holder: e, UpBps: 7, ManifestHead: 80, ManifestDigest: 0x1234},
		&ReplicateBatch{Owner: e, Ops: []ReplicaOp{{Key: 1, Seq: 2, Holder: e, Unregister: true}}},
		&PollutionReport{From: e, Key: 3, Seq: 4, Target: e},
	}
	for _, m := range seeds {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// The ChunkResp layout has lengths that must agree with each other.
	for _, frame := range malformedChunkFrames() {
		f.Add(frame)
	}
	// Count prefixes the frame cannot back, and entries that contend for
	// one intern slot.
	for _, frame := range forgedCountFrames() {
		f.Add(frame)
	}
	f.Add(retiredHandoffFrame())
	for _, frame := range retiredManifestFrames() {
		f.Add(frame)
	}
	// A chunk reply laid out as when it carried a manifest row: the head
	// runs on past the fields this decoder reads.
	head := putBytes(putBytes(putI64((&ChunkResp{Seq: 10, OK: true}).encode(nil), 11), make([]byte, 32)), make([]byte, 32))
	f.Add(rawFrame(KindChunkResp, append(append(putU32(nil, 2), head...), 1, 2)))
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &LookupResp{Seq: 1, Providers: collidingEntries()}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// A re-registration naming several seqs.
	var more bytes.Buffer
	if err := WriteMessage(&more, &Insert{Key: 5, Seq: 6, Holder: e, More: []int64{7, 8}}); err != nil {
		f.Fatal(err)
	}
	f.Add(more.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return // rejects are fine; panics are not
		}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("accepted message failed to re-encode: %v", err)
		}
		m2, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("re-encoded message failed to decode: %v", err)
		}
		if m.Kind() != m2.Kind() {
			t.Fatalf("kind changed across round-trip: %v -> %v", m.Kind(), m2.Kind())
		}
	})
}
