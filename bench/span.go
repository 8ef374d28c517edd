package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dco/internal/transport"
	"dco/internal/wire"
)

// The tracer measures every layer from outside: a decorator around each
// node's transport.Transport.Call (client side) and transport.Handler.Serve
// (server side) records one span per message exchange. Nothing inside the
// program under test is touched; the price is that a span knows only what
// the message itself says (its kind, and for Lookup/GetChunk/Insert the
// chunk seq), which is why routing and maintenance calls cannot be tied to
// the chunk that caused them (ROADMAP item 5's trace ID closes that gap).

// Outcome bits of a span.
const (
	flagErr   uint8 = 1 << iota // transport error or remote wire.Error
	flagBusy                    // admission nack: CodeBusy or ChunkResp.Busy
	flagEmpty                   // LookupResp without providers
	flagMiss                    // ChunkResp neither OK nor Busy
)

// span is one message exchange seen at one side of one node's transport.
type span struct {
	start, end int64     // ns since the tracer's epoch
	seq        int64     // -1 when the request names no chunk
	peer       string    // callee (client span) or caller (server span)
	bytes      int32     // request + reply frame bytes; metered for maintenance kinds only
	kind       wire.Kind // of the request
	server     bool
	flags      uint8
}

func (s span) dur() int64 { return s.end - s.start }

// nodeTrace is one node's span log. Spans stay in memory until the run
// ends; the slice has its own lock so nodes do not contend with each other.
type nodeTrace struct {
	mu    sync.Mutex
	spans []span
}

func (nt *nodeTrace) snapshot() []span {
	nt.mu.Lock()
	defer nt.mu.Unlock()
	return append([]span(nil), nt.spans...)
}

type tracer struct {
	epoch time.Time
	nodes []*nodeTrace
}

func newTracer(n int) *tracer {
	t := &tracer{epoch: time.Now(), nodes: make([]*nodeTrace, n)}
	for i := range t.nodes {
		t.nodes[i] = &nodeTrace{}
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(node int, s span) {
	nt := t.nodes[node]
	nt.mu.Lock()
	nt.spans = append(nt.spans, s)
	nt.mu.Unlock()
}

// seqOf extracts the chunk seq a request names, or -1.
func seqOf(m wire.Message) int64 {
	switch r := m.(type) {
	case *wire.Lookup:
		return r.Seq
	case *wire.GetChunk:
		return r.Seq
	case *wire.Insert:
		return r.Seq
	}
	return -1
}

// outcome classifies a reply.
func outcome(resp wire.Message, err error) uint8 {
	var f uint8
	if err != nil {
		f |= flagErr
		var we *wire.Error
		if errors.As(err, &we) && we.Code == wire.CodeBusy {
			f |= flagBusy
		}
		return f
	}
	switch r := resp.(type) {
	case *wire.Error:
		f |= flagErr
		if r.Code == wire.CodeBusy {
			f |= flagBusy
		}
	case *wire.LookupResp:
		if len(r.Providers) == 0 {
			f |= flagEmpty
		}
	case *wire.ChunkResp:
		switch {
		case r.Busy:
			f |= flagBusy
		case !r.OK:
			f |= flagMiss
		}
	}
	return f
}

// Kind classes. Maintenance kinds keep the ring alive whether or not a
// chunk moves; routing kinds resolve a key to its owner.
func isMaintenance(k wire.Kind) bool {
	return k == wire.KindGetState || k == wire.KindNotify || k == wire.KindPing
}

func isRouting(k wire.Kind) bool {
	return k == wire.KindFindSuccessor || k == wire.KindKadFindNode
}

type countWriter struct{ n int }

func (c *countWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

func frameSize(m wire.Message) int {
	if m == nil {
		return 0
	}
	var c countWriter
	_, _ = wire.WriteMessageN(&c, m) // a counting writer cannot fail
	return c.n
}

// tracedTransport decorates a node's outbound calls.
type tracedTransport struct {
	transport.Transport
	t    *tracer
	node int
}

func (tt *tracedTransport) Call(addr string, req wire.Message, timeout time.Duration) (wire.Message, error) {
	start := tt.t.now()
	resp, err := tt.Transport.Call(addr, req, timeout)
	end := tt.t.now()
	sp := span{start: start, end: end, seq: seqOf(req), peer: addr, kind: req.Kind(), flags: outcome(resp, err)}
	if isMaintenance(sp.kind) {
		// The only kinds the tracer re-encodes to learn their size: they
		// are tiny, and no registry meters them apart from other control.
		sp.bytes = int32(frameSize(req) + frameSize(resp))
	}
	tt.t.record(tt.node, sp)
	return resp, err
}

// SetObserver forwards the health-scoring hook live.NewNode installs; the
// decorator must not hide it or traced runs would stream without peer
// health, a different program from the one the untraced runs measure.
func (tt *tracedTransport) SetObserver(o transport.Observer) {
	if os, ok := tt.Transport.(transport.ObserverSetter); ok {
		os.SetObserver(o)
	}
}

// wrapHandler decorates a node's inbound serves.
func (t *tracer) wrapHandler(node int, h transport.Handler) transport.Handler {
	return transport.HandlerFunc(func(from string, req wire.Message) wire.Message {
		start := t.now()
		resp := h.Serve(from, req)
		t.record(node, span{start: start, end: t.now(), seq: seqOf(req), peer: from, kind: req.Kind(), server: true, flags: outcome(resp, nil)})
		return resp
	})
}

func (t *tracer) wrapTransport(node int, tr transport.Transport) transport.Transport {
	return &tracedTransport{Transport: tr, t: t, node: node}
}

// ---------------------------------------------------------------------------
// Self time.

// interval is a half-open [start, end) stretch of time.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children cover:
// children are clipped to the parent and overlapping children (a hedged
// fetch runs two GetChunks at once) are counted once.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered, edge := int64(0), parent.start
	for _, c := range clipped {
		if c.start > edge {
			edge = c.start
		}
		if c.end > edge {
			covered += c.end - edge
			edge = c.end
		}
	}
	return parent.end - parent.start - covered
}

// ---------------------------------------------------------------------------
// Chrome trace-event output.

// traceEvent is one complete ("X") event of the Chrome trace-event format
// (chrome://tracing, Perfetto). pid is the node, tid the lane within it.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Lanes for spans that name no chunk; chunk spans use their seq as lane so
// the three fetch workers of a viewer do not overlap on one line.
const (
	laneRouting     = -1
	laneMaintenance = -2
	laneOther       = -3
)

func writeChromeTrace(path string, events []traceEvent) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
