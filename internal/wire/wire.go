// Package wire defines the binary protocol the live (real-network) DCO
// node speaks: a compact, length-prefixed framing with explicit field
// encoding. Every RPC the simulated protocol performs — DHT routing steps,
// stabilization, chunk index Insert/Lookup, chunk fetches, index
// replication — has a message pair here.
package wire

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Kind tags a message.
type Kind uint8

// Message kinds. Requests and responses are distinct kinds so a frame is
// self-describing.
const (
	KindInvalid Kind = iota
	KindError
	KindPing
	KindPong
	KindFindSuccessor
	KindFindSuccessorResp
	KindGetState
	KindGetStateResp
	KindNotify
	KindAck
	KindLookup
	KindLookupResp
	KindInsert
	KindGetChunk
	KindChunkResp
	// KindHandoff is retired: index rows travel in ReplicateBatch frames,
	// and a frame of this kind is rejected as unknown. The number is never
	// reused.
	KindHandoff
	KindLeave
	KindReplicateBatch
	KindDigestReq
	KindDigestResp
	KindCensusProbe
	KindCensusResp
	KindKadFindNode
	KindKadFindNodeResp
	// KindManifestReq and KindManifestResp are retired: every chunk is
	// checked against the generator, so no node fetches manifest rows,
	// and a frame of either kind is rejected as unknown. The numbers are
	// never reused.
	KindManifestReq
	KindManifestResp
	KindPollutionReport
)

// MaxFrame bounds a frame (type byte + payload). Chunks dominate; 4 MiB
// accommodates seconds of HD video per chunk with headroom.
const MaxFrame = 4 << 20

// Errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	ErrTruncated     = errors.New("wire: truncated message")
	ErrUnknownKind   = errors.New("wire: unknown message kind")
	ErrMalformed     = errors.New("wire: malformed message")
)

// Message is anything that can travel in a frame. encode appends the
// message's fields to b; decode reads them back and must copy out every
// byte it keeps — the slice behind r is pooled scratch that the next frame
// overwrites. A ChunkResp's Data is the one field neither touches: the
// framing code moves it (see WriteMessageN, ReadMessageLimitN).
type Message interface {
	Kind() Kind
	encode(b []byte) []byte
	decode(r *reader) error
}

// Entry mirrors chord.Entry[string] on the wire. A decoded Addr may be the
// very string an earlier decode returned (see internAddr); strings are
// immutable, so sharing one across messages is invisible to their holders.
type Entry struct {
	ID   uint64
	Addr string
}

// ---------------------------------------------------------------------------
// Concrete messages.

// Code classifies an Error so callers can tell retryable conditions from
// terminal ones without parsing message strings (the live stack's retry
// and failover layers key off it).
type Code uint8

// Error codes.
const (
	// CodeGeneric is an unclassified failure: not retried.
	CodeGeneric Code = iota
	// CodeNotOwner means the receiver does not own the key. Terminal at
	// this address, but the caller should re-route: ownership moved.
	CodeNotOwner
	// CodeBusy means the receiver turned the request away under load.
	// Retryable after a pause (or at another provider).
	CodeBusy
	// CodeShutdown means the receiver is closing. Terminal there.
	CodeShutdown
	// CodeBadRequest means the request was malformed. Terminal.
	CodeBadRequest
)

// Error carries a failure back to the caller, classified by Code.
type Error struct {
	Code Code
	Msg  string
}

// Retryable reports whether the remote condition is worth retrying at
// the same address.
func (m *Error) Retryable() bool { return m.Code == CodeBusy }

// Retryable classifies err for retry loops: remote wire.Errors retry only
// when their code says so; anything else (dial failures, timeouts, reset
// connections — the transport-level failures) is presumed transient and
// retryable.
func Retryable(err error) bool {
	var we *Error
	if errors.As(err, &we) {
		return we.Retryable()
	}
	return err != nil
}

// IsNotOwner reports whether err is a remote not-the-owner rejection,
// which calls for re-routing rather than retrying.
func IsNotOwner(err error) bool {
	var we *Error
	return errors.As(err, &we) && we.Code == CodeNotOwner
}

// Ping checks liveness; Pong answers.
type Ping struct{}

// Pong answers a Ping.
type Pong struct{}

// FindSuccessor asks the receiver for the next routing step toward Key.
type FindSuccessor struct{ Key uint64 }

// FindSuccessorResp: if Done, Owner is the key's owner; otherwise the
// caller should continue at Owner (the closest preceding node). Final
// marks a reply that is not Done because Owner is the receiver's successor,
// which owns the key: a joiner whose route loops takes the last such Owner
// as its successor, as Chord's own join does (chordkern.Join).
type FindSuccessorResp struct {
	Done  bool
	Final bool
	Owner Entry
	// Populated when Done (join support):
	Succs []Entry
	Pred  Entry
	OK    bool // Pred valid
}

// GetState fetches the receiver's predecessor and successor list
// (stabilization).
type GetState struct{}

// GetStateResp answers GetState.
type GetStateResp struct {
	Pred   Entry
	PredOK bool
	Succs  []Entry
}

// Notify tells the receiver the sender may be its predecessor.
type Notify struct{ From Entry }

// Ack is the generic empty success reply.
type Ack struct{}

// Lookup asks the chunk's coordinator for providers. MaxWait is how long
// the coordinator may hold the request waiting for a provider to register
// (the paper's pending queue), in milliseconds. DeadlineMs is the
// requester's remaining per-call budget at send time (0 = unbounded, old
// clients); like TTLMillis it is relative, restamped by each sender, so
// absolute clocks never cross the wire. A coordinator clamps its pending
// wait by it — holding past the caller's deadline only produces an answer
// nobody is waiting for.
type Lookup struct {
	Key        uint64
	Seq        int64
	MaxWait    uint32
	DeadlineMs uint32
}

// LookupResp lists providers (possibly empty when MaxWait elapsed).
type LookupResp struct {
	Seq       int64
	Providers []Entry
}

// Insert registers (or withdraws) a chunk index with its coordinator.
// UpBps is the holder's advertised upload bandwidth (0 = unlimited): the
// coordinator names the holder in at most UpBps x period / chunk bits of a
// seq's unsettled Lookup answers, and an Insert that adds a new holder
// settles the oldest one (the paper's "sufficient bandwidth" rule).
// LoadMilli is the holder's upload load factor in thousandths (0 = idle,
// 1000 = the advertised UpBps is fully committed, >1000 = backlog beyond
// the budget); every Insert piggybacks it so coordinators keep a recent
// load report per provider and answer Lookups with the least-loaded ones.
//
// BufCount, ManifestHead and ManifestDigest are reserved: they are still
// encoded, but no node sets or reads them.
type Insert struct {
	Key            uint64
	Seq            int64
	Holder         Entry
	UpBps          int64
	BufCount       int64 // reserved
	LoadMilli      uint32
	Unregister     bool
	ManifestHead   int64  // reserved
	ManifestDigest uint64 // reserved
	// More names further seqs the holder registers at the same coordinator
	// (a re-registration); the coordinator derives each one's key itself.
	More []int64
}

// GetChunk requests chunk data from a provider. WaitMs is how long the
// requester is willing to be queued behind the provider's upload pacer
// before it would rather take a Busy nack and try elsewhere (0 = serve
// immediately or shed). DeadlineMs is the requester's remaining per-call
// budget at send time (0 = unbounded), a relative duration like TTLMillis;
// a provider sheds work that cannot arrive in time instead of paying
// upload budget for a reply the caller has already abandoned.
type GetChunk struct {
	Seq        int64
	WaitMs     uint32
	DeadlineMs uint32
}

// ChunkResp returns chunk data; OK=false means the provider lacks it (or
// turned the request away). Every response carries LoadMilli, the
// provider's current upload load factor in thousandths; Busy sheds also
// carry RetryAfterMs, the provider's estimate of when its pacer could
// admit the transfer (always nonzero on a shed).
//
// Data is the frame's bulk tail. The writer hands the slice to the socket
// as it is and never modifies it, so a provider serves one stored slice to
// every caller; the reader allocates exactly len(Data) bytes that the
// decoded message alone owns (cap == len, no other message aliases them).
// Only an OK response may carry Data.
type ChunkResp struct {
	Seq          int64
	OK           bool
	Busy         bool
	RetryAfterMs uint32
	LoadMilli    uint32
	Data         []byte
}

// Leave announces a graceful departure to a ring neighbor.
type Leave struct {
	From    Entry
	NewPred Entry
	PredOK  bool
	NewSucc []Entry
}

// ReplicaOp is one replicated index mutation: a provider registration (or
// withdrawal) the owning coordinator mirrors onto its successors. TTLMillis
// is the provider lease's remaining lifetime when the op was sent (0 = no
// lease); receivers restamp against their own clock, so absolute times
// never cross the wire.
type ReplicaOp struct {
	Key        uint64
	Seq        int64
	Holder     Entry
	UpBps      int64
	TTLMillis  uint32
	Unregister bool
}

// ReplicateBatch mirrors a batch of index mutations from Owner onto a
// successor. Full means the ops are the owner's complete record for every
// seq they mention — the receiver replaces those entries instead of
// merging (anti-entropy repair uses this to erase divergence).
type ReplicateBatch struct {
	Owner Entry
	Full  bool
	Ops   []ReplicaOp
}

// SeqDigest summarizes one owned index entry for anti-entropy: a hash over
// the entry's live provider set.
type SeqDigest struct {
	Key  uint64
	Seq  int64
	Hash uint64
}

// DigestReq carries the owner's complete per-entry digests for its owned
// range. A replica drops its copies of entries absent from the digest (the
// owner no longer has them) and answers with the seqs it needs re-sent.
type DigestReq struct {
	Owner   Entry
	Digests []SeqDigest
}

// DigestResp lists the seqs the replica is missing or holds divergently;
// the owner follows up with a Full ReplicateBatch for them.
type DigestResp struct {
	Need []int64
}

// PollutionReport accuses Target of serving a chunk under Key/Seq whose
// payload failed integrity verification. From identifies the reporter
// explicitly (transport source addresses are ephemeral over TCP). The
// coordinator quarantines Target once enough distinct reporters agree —
// a single report is never enough, so one slanderer cannot evict a peer.
type PollutionReport struct {
	From   Entry
	Key    uint64
	Seq    int64
	Target Entry
}

// CensusProbe is the ring census beacon: From asks a cached member (usually
// one outside its current successor list) for its ring view. Digest is a
// hash over the sender's sorted view addresses and Members the view itself
// (self + successor list + predecessor), so the receiver can detect a
// split-brain symmetrically from the same exchange.
type CensusProbe struct {
	From    Entry
	Digest  uint64
	Members []Entry
}

// CensusResp answers a probe with the receiver's own ring view, mirrored
// fields. Matching digests short-circuit comparison; member-disjoint views
// flag a suspected split, confirmed by routing the prober's own ID through
// the responder.
type CensusResp struct {
	From    Entry
	Digest  uint64
	Members []Entry
}

// KadFindNode is the Kademlia routing primitive: From asks the receiver for
// the k contacts it knows closest (by XOR distance) to Key. From doubles as
// a passive sighting — the receiver inserts the caller into its own buckets.
// Refresh marks bucket-refresh traffic so telemetry can split maintenance
// lookups from demand lookups; the receiver answers both identically.
// There is no separate FindValue: chunk-index reads stay on the existing
// Lookup message, routed to the key's owner first.
type KadFindNode struct {
	From    Entry
	Key     uint64
	Refresh bool
}

// KadFindNodeResp returns the receiver's identity (the caller refreshes its
// bucket entry for the responder) and its k-closest contacts to the asked
// key, nearest first.
type KadFindNodeResp struct {
	From    Entry
	Closest []Entry
}

// ---------------------------------------------------------------------------
// Framing.

// A frame is a big-endian uint32 length n, then n bytes: the kind byte and
// the message's fields. A ChunkResp frame states the length of its Data
// right after the kind byte and carries Data last:
//
//	control:   n | kind | fields
//	ChunkResp: n | kind | len(Data) | fields | Data
//
// so everything before Data (the head) is small and Data can be written
// from, and read into, a buffer of its own.

// frameHeader is the length prefix plus the kind byte.
const frameHeader = 5

// MaxPooledBuffer bounds the scratch buffers kept for reuse between
// frames; a larger one is dropped after the frame that needed it, so one
// big batch does not pin its size class for the life of the process.
const MaxPooledBuffer = 64 << 10

// scratch is per-frame working memory: b holds an outgoing or incoming
// head, rd decodes from it, and vec backs the two-buffer vectored write of
// a frame with a tail.
type scratch struct {
	b    []byte
	rd   reader
	vec  [2][]byte
	bufs net.Buffers
}

var scratchPool = sync.Pool{New: func() any { return &scratch{b: make([]byte, 0, 1024)} }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// putScratch returns s to the pool. Clearing vec (which bufs is a window
// onto) drops the reference to a written Data: a pooled scratch must not
// keep a chunk payload alive.
func putScratch(s *scratch) {
	if cap(s.b) > MaxPooledBuffer {
		return
	}
	s.vec = [2][]byte{}
	scratchPool.Put(s)
}

// sized returns s.b resized to n bytes, contents unspecified.
func (s *scratch) sized(n int) []byte {
	if cap(s.b) < n {
		s.b = make([]byte, n)
	}
	s.b = s.b[:n]
	return s.b
}

// WriteMessage frames and writes m.
func WriteMessage(w io.Writer, m Message) error {
	_, err := WriteMessageN(w, m)
	return err
}

// WriteMessageN is WriteMessage returning the number of bytes put on the
// wire (header included), so transports can meter traffic without
// encoding the message twice. Header and fields are encoded into pooled
// scratch and leave in one Write; a ChunkResp's Data follows from the
// caller's own slice — one vectored write on a TCP connection — and is
// neither copied nor modified.
func WriteMessageN(w io.Writer, m Message) (int, error) {
	s := getScratch()
	defer putScratch(s)
	b := append(s.b[:0], 0, 0, 0, 0, byte(m.Kind()))
	var tail []byte
	if cr, ok := m.(*ChunkResp); ok {
		tail = cr.Data
		b = putU32(b, uint32(len(tail)))
	}
	b = m.encode(b)
	s.b = b
	n := len(b) - 4 + len(tail)
	if n > MaxFrame {
		return 0, ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(b, uint32(n))
	if len(tail) == 0 {
		return w.Write(b)
	}
	s.vec[0], s.vec[1] = b, tail
	s.bufs = s.vec[:]
	nw, err := s.bufs.WriteTo(w)
	return int(nw), err
}

// ReadMessage reads one framed message, bounded by MaxFrame.
func ReadMessage(r io.Reader) (Message, error) {
	return ReadMessageLimit(r, MaxFrame)
}

// ReadMessageLimit reads one framed message, rejecting frames whose
// declared length exceeds limit — before allocating anything — so a
// hostile or corrupt length prefix cannot balloon memory. limit values
// of 0 or above MaxFrame clamp to MaxFrame.
func ReadMessageLimit(r io.Reader, limit uint32) (Message, error) {
	m, _, err := ReadMessageLimitN(r, limit)
	return m, err
}

// ReadMessageLimitN is ReadMessageLimit returning the number of bytes the
// frame occupied on the wire (header included; 0 with an error). Header
// and fields are read into pooled scratch, which the returned message does
// not reference; a ChunkResp's Data is read from r straight into a slice
// of exactly its length. After an error r is not positioned at a frame
// boundary.
func ReadMessageLimitN(r io.Reader, limit uint32) (Message, int, error) {
	if limit == 0 || limit > MaxFrame {
		limit = MaxFrame
	}
	n, kind, err := readHeader(r, limit)
	if err != nil {
		return nil, 0, err
	}
	m, err := New(kind)
	if err != nil {
		return nil, 0, err
	}
	s := getScratch()
	defer putScratch(s)
	head, tail := int(n)-1, 0
	if kind == KindChunkResp {
		if head < 4 {
			return nil, 0, ErrTruncated
		}
		if _, err := io.ReadFull(r, s.sized(4)); err != nil {
			return nil, 0, err
		}
		head -= 4
		// n passed the limit check above, so tail <= head bounds what a
		// forged tail length can make this allocate.
		t := binary.BigEndian.Uint32(s.b)
		if t > uint32(head) {
			return nil, 0, ErrTruncated
		}
		tail = int(t)
		head -= tail
	}
	if _, err := io.ReadFull(r, s.sized(head)); err != nil {
		return nil, 0, err
	}
	s.rd = reader{b: s.b}
	if err := m.decode(&s.rd); err != nil {
		return nil, 0, err
	}
	if tail > 0 {
		cr := m.(*ChunkResp)
		if !cr.OK {
			return nil, 0, ErrMalformed
		}
		cr.Data = make([]byte, tail)
		if _, err := io.ReadFull(r, cr.Data); err != nil {
			return nil, 0, err
		}
	}
	return m, 4 + int(n), nil
}

// headerPool holds frame-header buffers apart from the scratch pool: the
// header read is the one that blocks — an idle connection's server sits in
// it until the next request — and what it pins meanwhile should be these
// five bytes, not a scratch buffer.
var headerPool = sync.Pool{New: func() any { return new([frameHeader]byte) }}

// readHeader reads a frame's length and kind, judging the length against
// limit as soon as it is complete (with or without the kind byte).
func readHeader(r io.Reader, limit uint32) (n uint32, kind Kind, err error) {
	hdr := headerPool.Get().(*[frameHeader]byte)
	defer headerPool.Put(hdr)
	got, err := io.ReadFull(r, hdr[:])
	if got >= 4 {
		n = binary.BigEndian.Uint32(hdr[:])
		if n == 0 {
			return 0, 0, ErrTruncated
		}
		if n > limit {
			return 0, 0, ErrFrameTooLarge
		}
	}
	return n, Kind(hdr[4]), err
}

// New returns a zero message of the given kind.
func New(k Kind) (Message, error) {
	switch k {
	case KindError:
		return &Error{}, nil
	case KindPing:
		return &Ping{}, nil
	case KindPong:
		return &Pong{}, nil
	case KindFindSuccessor:
		return &FindSuccessor{}, nil
	case KindFindSuccessorResp:
		return &FindSuccessorResp{}, nil
	case KindGetState:
		return &GetState{}, nil
	case KindGetStateResp:
		return &GetStateResp{}, nil
	case KindNotify:
		return &Notify{}, nil
	case KindAck:
		return &Ack{}, nil
	case KindLookup:
		return &Lookup{}, nil
	case KindLookupResp:
		return &LookupResp{}, nil
	case KindInsert:
		return &Insert{}, nil
	case KindGetChunk:
		return &GetChunk{}, nil
	case KindChunkResp:
		return &ChunkResp{}, nil
	case KindLeave:
		return &Leave{}, nil
	case KindReplicateBatch:
		return &ReplicateBatch{}, nil
	case KindDigestReq:
		return &DigestReq{}, nil
	case KindDigestResp:
		return &DigestResp{}, nil
	case KindCensusProbe:
		return &CensusProbe{}, nil
	case KindCensusResp:
		return &CensusResp{}, nil
	case KindKadFindNode:
		return &KadFindNode{}, nil
	case KindKadFindNodeResp:
		return &KadFindNodeResp{}, nil
	case KindPollutionReport:
		return &PollutionReport{}, nil
	default:
		// A sentinel, not a wrapped one: refusing a stray frame allocates
		// nothing.
		return nil, ErrUnknownKind
	}
}

// ---------------------------------------------------------------------------
// Field codec: append-style writers, cursor-style reader.

func putU64(b []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(b, v)
}

func putI64(b []byte, v int64) []byte { return putU64(b, uint64(v)) }

func putU32(b []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(b, v)
}

func putBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func putBytes(b, v []byte) []byte {
	b = putU32(b, uint32(len(v)))
	return append(b, v...)
}

func putString(b []byte, s string) []byte { return putBytes(b, []byte(s)) }

func putI64s(b []byte, vs []int64) []byte {
	b = putU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = putI64(b, v)
	}
	return b
}

func putEntry(b []byte, e Entry) []byte {
	b = putU64(b, e.ID)
	return putString(b, e.Addr)
}

func putEntries(b []byte, es []Entry) []byte {
	b = putU32(b, uint32(len(es)))
	for _, e := range es {
		b = putEntry(b, e)
	}
	return b
}

type reader struct {
	b   []byte
	err error
}

func (r *reader) u64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *reader) i64() int64 { return int64(r.u64()) }

func (r *reader) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *reader) u8() uint8 {
	if r.err != nil || len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) boolean() bool {
	if r.err != nil || len(r.b) < 1 {
		r.fail()
		return false
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v != 0
}

func (r *reader) bytes() []byte {
	n := r.u32()
	if r.err != nil || uint32(len(r.b)) < n {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *reader) str() string { return string(r.bytes()) }

// count reads a collection's length prefix and rejects one that claims
// more items than the rest of the frame can hold at minSize bytes each, so
// a decoder never allocates room for items the frame does not carry.
func (r *reader) count(minSize int) int {
	n := r.u32()
	if r.err != nil || uint64(n) > uint64(len(r.b)/minSize) {
		r.fail()
		return 0
	}
	return int(n)
}

// entry decodes an Entry. Its Addr comes from the intern table when the
// table already holds that ID with those bytes, so the few dozen peers a
// node talks to are materialised once, not once per frame.
func (r *reader) entry() Entry {
	id := r.u64()
	return Entry{ID: id, Addr: internAddr(id, r.bytes())}
}

func (r *reader) i64s() []int64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	out := make([]int64, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.i64())
	}
	return out
}

func (r *reader) entries() []Entry {
	n := r.count(12) // an ID and an address length
	if n == 0 {
		return nil
	}
	out := make([]Entry, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.entry())
	}
	return out
}

// The intern table for decoded entry addresses: direct-mapped by ID, one
// immutable record per slot, replaced whole on a miss. It never grows, so
// a peer that sends unique or colliding addresses makes every decode a miss
// and costs one allocation per address, as a plain string copy would.
const (
	internBits    = 10 // 1,024 slots
	maxInternAddr = 64 // longer addresses are copied, never stored
)

// interned is one slot's record. addr views buf, which is never written
// after the record is published, so the string stays valid and immutable
// for as long as anyone holds it.
type interned struct {
	id  uint64
	n   uint8
	buf [maxInternAddr]byte
}

func (e *interned) addr() string { return unsafe.String(&e.buf[0], int(e.n)) }

var internTable [1 << internBits]atomic.Pointer[interned]

// internSlot spreads IDs over the table by Fibonacci hashing, so IDs that
// differ only in their high bits (evenly spaced ring positions) or only in
// their low bits land apart.
func internSlot(id uint64) *atomic.Pointer[interned] {
	return &internTable[(id*0x9E3779B97F4A7C15)>>(64-internBits)]
}

// internAddr returns b as a string, shared with earlier decodes of the same
// ID and address. A slot hits only when both match; the comparison does
// not allocate.
func internAddr(id uint64, b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > maxInternAddr {
		return string(b)
	}
	slot := internSlot(id)
	if e := slot.Load(); e != nil && e.id == id && e.addr() == string(b) {
		return e.addr()
	}
	e := &interned{id: id, n: uint8(len(b))}
	copy(e.buf[:], b)
	slot.Store(e)
	return e.addr()
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

// ---------------------------------------------------------------------------
// Per-message codecs.

func (m *Error) Kind() Kind { return KindError }
func (m *Error) encode(b []byte) []byte {
	b = append(b, byte(m.Code))
	return putString(b, m.Msg)
}
func (m *Error) decode(r *reader) error {
	m.Code = Code(r.u8())
	m.Msg = r.str()
	return r.err
}

// Error implements the error interface so transports can surface it.
func (m *Error) Error() string { return "remote: " + m.Msg }

func (m *Ping) Kind() Kind             { return KindPing }
func (m *Ping) encode(b []byte) []byte { return b }
func (m *Ping) decode(*reader) error   { return nil }

func (m *Pong) Kind() Kind             { return KindPong }
func (m *Pong) encode(b []byte) []byte { return b }
func (m *Pong) decode(*reader) error   { return nil }

func (m *FindSuccessor) Kind() Kind             { return KindFindSuccessor }
func (m *FindSuccessor) encode(b []byte) []byte { return putU64(b, m.Key) }
func (m *FindSuccessor) decode(r *reader) error { m.Key = r.u64(); return r.err }

func (m *FindSuccessorResp) Kind() Kind { return KindFindSuccessorResp }
func (m *FindSuccessorResp) encode(b []byte) []byte {
	b = putBool(b, m.Done)
	b = putBool(b, m.Final)
	b = putEntry(b, m.Owner)
	b = putEntries(b, m.Succs)
	b = putEntry(b, m.Pred)
	return putBool(b, m.OK)
}
func (m *FindSuccessorResp) decode(r *reader) error {
	m.Done = r.boolean()
	m.Final = r.boolean()
	m.Owner = r.entry()
	m.Succs = r.entries()
	m.Pred = r.entry()
	m.OK = r.boolean()
	return r.err
}

func (m *GetState) Kind() Kind             { return KindGetState }
func (m *GetState) encode(b []byte) []byte { return b }
func (m *GetState) decode(*reader) error   { return nil }

func (m *GetStateResp) Kind() Kind { return KindGetStateResp }
func (m *GetStateResp) encode(b []byte) []byte {
	b = putEntry(b, m.Pred)
	b = putBool(b, m.PredOK)
	return putEntries(b, m.Succs)
}
func (m *GetStateResp) decode(r *reader) error {
	m.Pred = r.entry()
	m.PredOK = r.boolean()
	m.Succs = r.entries()
	return r.err
}

func (m *Notify) Kind() Kind             { return KindNotify }
func (m *Notify) encode(b []byte) []byte { return putEntry(b, m.From) }
func (m *Notify) decode(r *reader) error { m.From = r.entry(); return r.err }

func (m *Ack) Kind() Kind             { return KindAck }
func (m *Ack) encode(b []byte) []byte { return b }
func (m *Ack) decode(*reader) error   { return nil }

func (m *Lookup) Kind() Kind { return KindLookup }
func (m *Lookup) encode(b []byte) []byte {
	b = putU64(b, m.Key)
	b = putI64(b, m.Seq)
	b = putU32(b, m.MaxWait)
	return putU32(b, m.DeadlineMs)
}
func (m *Lookup) decode(r *reader) error {
	m.Key = r.u64()
	m.Seq = r.i64()
	m.MaxWait = r.u32()
	m.DeadlineMs = r.u32()
	return r.err
}

func (m *LookupResp) Kind() Kind { return KindLookupResp }
func (m *LookupResp) encode(b []byte) []byte {
	b = putI64(b, m.Seq)
	return putEntries(b, m.Providers)
}
func (m *LookupResp) decode(r *reader) error {
	m.Seq = r.i64()
	m.Providers = r.entries()
	return r.err
}

func (m *Insert) Kind() Kind { return KindInsert }
func (m *Insert) encode(b []byte) []byte {
	b = putU64(b, m.Key)
	b = putI64(b, m.Seq)
	b = putEntry(b, m.Holder)
	b = putI64(b, m.UpBps)
	b = putI64(b, m.BufCount)
	b = putU32(b, m.LoadMilli)
	b = putBool(b, m.Unregister)
	b = putI64(b, m.ManifestHead)
	b = putU64(b, m.ManifestDigest)
	return putI64s(b, m.More)
}
func (m *Insert) decode(r *reader) error {
	m.Key = r.u64()
	m.Seq = r.i64()
	m.Holder = r.entry()
	m.UpBps = r.i64()
	m.BufCount = r.i64()
	m.LoadMilli = r.u32()
	m.Unregister = r.boolean()
	m.ManifestHead = r.i64()
	m.ManifestDigest = r.u64()
	m.More = r.i64s()
	return r.err
}

func (m *GetChunk) Kind() Kind { return KindGetChunk }
func (m *GetChunk) encode(b []byte) []byte {
	b = putI64(b, m.Seq)
	b = putU32(b, m.WaitMs)
	return putU32(b, m.DeadlineMs)
}
func (m *GetChunk) decode(r *reader) error {
	m.Seq = r.i64()
	m.WaitMs = r.u32()
	m.DeadlineMs = r.u32()
	return r.err
}

func (m *ChunkResp) Kind() Kind { return KindChunkResp }

// encode appends everything but Data and its length: the framing code puts
// the length before these fields and Data after them (see WriteMessageN).
func (m *ChunkResp) encode(b []byte) []byte {
	b = putI64(b, m.Seq)
	b = putBool(b, m.OK)
	b = putBool(b, m.Busy)
	b = putU32(b, m.RetryAfterMs)
	return putU32(b, m.LoadMilli)
}
func (m *ChunkResp) decode(r *reader) error {
	m.Seq = r.i64()
	m.OK = r.boolean()
	m.Busy = r.boolean()
	m.RetryAfterMs = r.u32()
	m.LoadMilli = r.u32()
	return r.err
}

func (m *Leave) Kind() Kind { return KindLeave }
func (m *Leave) encode(b []byte) []byte {
	b = putEntry(b, m.From)
	b = putEntry(b, m.NewPred)
	b = putBool(b, m.PredOK)
	return putEntries(b, m.NewSucc)
}
func (m *Leave) decode(r *reader) error {
	m.From = r.entry()
	m.NewPred = r.entry()
	m.PredOK = r.boolean()
	m.NewSucc = r.entries()
	return r.err
}

func (m *ReplicateBatch) Kind() Kind { return KindReplicateBatch }
func (m *ReplicateBatch) encode(b []byte) []byte {
	b = putEntry(b, m.Owner)
	b = putBool(b, m.Full)
	b = putU32(b, uint32(len(m.Ops)))
	for _, op := range m.Ops {
		b = putU64(b, op.Key)
		b = putI64(b, op.Seq)
		b = putEntry(b, op.Holder)
		b = putI64(b, op.UpBps)
		b = putU32(b, op.TTLMillis)
		b = putBool(b, op.Unregister)
	}
	return b
}
func (m *ReplicateBatch) decode(r *reader) error {
	m.Owner = r.entry()
	m.Full = r.boolean()
	n := r.count(41) // an op with an empty address
	if n == 0 {
		return r.err
	}
	m.Ops = make([]ReplicaOp, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		var op ReplicaOp
		op.Key = r.u64()
		op.Seq = r.i64()
		op.Holder = r.entry()
		op.UpBps = r.i64()
		op.TTLMillis = r.u32()
		op.Unregister = r.boolean()
		m.Ops = append(m.Ops, op)
	}
	return r.err
}

func (m *DigestReq) Kind() Kind { return KindDigestReq }
func (m *DigestReq) encode(b []byte) []byte {
	b = putEntry(b, m.Owner)
	b = putU32(b, uint32(len(m.Digests)))
	for _, d := range m.Digests {
		b = putU64(b, d.Key)
		b = putI64(b, d.Seq)
		b = putU64(b, d.Hash)
	}
	return b
}
func (m *DigestReq) decode(r *reader) error {
	m.Owner = r.entry()
	n := r.count(24) // key, seq, hash
	if n == 0 {
		return r.err
	}
	m.Digests = make([]SeqDigest, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		var d SeqDigest
		d.Key = r.u64()
		d.Seq = r.i64()
		d.Hash = r.u64()
		m.Digests = append(m.Digests, d)
	}
	return r.err
}

func (m *DigestResp) Kind() Kind             { return KindDigestResp }
func (m *DigestResp) encode(b []byte) []byte { return putI64s(b, m.Need) }
func (m *DigestResp) decode(r *reader) error {
	m.Need = r.i64s()
	return r.err
}

func (m *CensusProbe) Kind() Kind { return KindCensusProbe }
func (m *CensusProbe) encode(b []byte) []byte {
	b = putEntry(b, m.From)
	b = putU64(b, m.Digest)
	return putEntries(b, m.Members)
}
func (m *CensusProbe) decode(r *reader) error {
	m.From = r.entry()
	m.Digest = r.u64()
	m.Members = r.entries()
	return r.err
}

func (m *CensusResp) Kind() Kind { return KindCensusResp }
func (m *CensusResp) encode(b []byte) []byte {
	b = putEntry(b, m.From)
	b = putU64(b, m.Digest)
	return putEntries(b, m.Members)
}
func (m *CensusResp) decode(r *reader) error {
	m.From = r.entry()
	m.Digest = r.u64()
	m.Members = r.entries()
	return r.err
}

func (m *KadFindNode) Kind() Kind { return KindKadFindNode }
func (m *KadFindNode) encode(b []byte) []byte {
	b = putEntry(b, m.From)
	b = putU64(b, m.Key)
	return putBool(b, m.Refresh)
}
func (m *KadFindNode) decode(r *reader) error {
	m.From = r.entry()
	m.Key = r.u64()
	m.Refresh = r.boolean()
	return r.err
}

func (m *KadFindNodeResp) Kind() Kind { return KindKadFindNodeResp }
func (m *KadFindNodeResp) encode(b []byte) []byte {
	b = putEntry(b, m.From)
	return putEntries(b, m.Closest)
}
func (m *KadFindNodeResp) decode(r *reader) error {
	m.From = r.entry()
	m.Closest = r.entries()
	return r.err
}

func (m *PollutionReport) Kind() Kind { return KindPollutionReport }
func (m *PollutionReport) encode(b []byte) []byte {
	b = putEntry(b, m.From)
	b = putU64(b, m.Key)
	b = putI64(b, m.Seq)
	return putEntry(b, m.Target)
}
func (m *PollutionReport) decode(r *reader) error {
	m.From = r.entry()
	m.Key = r.u64()
	m.Seq = r.i64()
	m.Target = r.entry()
	return r.err
}
