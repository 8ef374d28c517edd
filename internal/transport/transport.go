// Package transport moves wire messages between live DCO nodes. It offers
// two implementations behind one interface: TCP (production) and an
// in-memory loopback (tests, single-process demos). Both use simple
// request/response semantics: every sent request gets exactly one reply.
package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dco/internal/wire"
)

// Handler serves one request and returns the reply. Implementations must
// be safe for concurrent calls.
type Handler interface {
	Serve(from string, req wire.Message) wire.Message
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(from string, req wire.Message) wire.Message

// Serve calls f.
func (f HandlerFunc) Serve(from string, req wire.Message) wire.Message { return f(from, req) }

// Transport sends requests and hosts a handler.
type Transport interface {
	// Call sends req to addr and waits for the reply (or timeout).
	Call(addr string, req wire.Message, timeout time.Duration) (wire.Message, error)
	// Addr is this endpoint's dialable address.
	Addr() string
	// Close stops serving and releases resources.
	Close() error
}

// Observer and ObserverSetter are a per-call timing seam no transport hosts
// any more: the live node times every call attempt itself. They stay
// declared because the benchmark module's tracing decorator (bench/span.go)
// still names them.
type Observer func(addr string, rtt time.Duration, err error)

// ObserverSetter: see Observer.
type ObserverSetter interface {
	SetObserver(Observer)
}

// ErrClosed reports use of a closed transport.
var ErrClosed = errors.New("transport: closed")

// Server-side I/O timeout defaults (see SetIOTimeouts): the idle bound a
// connection may sit between exchanges before its goroutine is reclaimed,
// and the bound on writing one reply.
const (
	DefaultReadTimeout  = 2 * time.Minute
	DefaultWriteTimeout = 30 * time.Second

	// Floors and ceilings for SetIOTimeouts: a timeout below the floor
	// would cut off legitimate slow exchanges mid-frame; one above the
	// ceiling lets dead peers pin goroutines for too long to matter.
	MinIOTimeout = 250 * time.Millisecond
	MaxIOTimeout = 10 * time.Minute
)

// clampIOTimeout applies the floor/ceiling rule shared by both transports:
// zero (or negative) restores def, anything else clamps into
// [MinIOTimeout, MaxIOTimeout].
func clampIOTimeout(d, def time.Duration) time.Duration {
	if d <= 0 {
		return def
	}
	if d < MinIOTimeout {
		return MinIOTimeout
	}
	if d > MaxIOTimeout {
		return MaxIOTimeout
	}
	return d
}

// ---------------------------------------------------------------------------
// TCP transport: one short-lived framed exchange per call, with a small
// connection pool per destination to amortize dials.

// TCP is the production transport.
type TCP struct {
	ln      net.Listener
	addr    string // ln's address, rendered once: Addr is on hot paths
	handler Handler

	// maxFrame bounds the length prefix accepted from peers (and in
	// replies), so one malformed or hostile frame header cannot force a
	// giant allocation. Defaults to wire.MaxFrame.
	maxFrame atomic.Uint32

	// metrics, when set, meters every frame and call (telemetry).
	metrics atomic.Pointer[Metrics]

	// Server-side I/O deadlines (ns): the per-exchange read deadline that
	// keeps dead peers from pinning serve goroutines, and the reply write
	// deadline. Defaults DefaultReadTimeout / DefaultWriteTimeout;
	// adjustable via SetIOTimeouts within [MinIOTimeout, MaxIOTimeout].
	readTimeout  atomic.Int64
	writeTimeout atomic.Int64

	mu     sync.Mutex
	pools  map[string][]net.Conn
	active map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// maxPooledPerDest bounds idle connections kept per destination.
const maxPooledPerDest = 4

// ListenTCP starts a TCP transport on addr (e.g. "127.0.0.1:0") serving h.
func ListenTCP(addr string, h Handler) (*TCP, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	t := &TCP{ln: ln, addr: ln.Addr().String(), handler: h, pools: make(map[string][]net.Conn), active: make(map[net.Conn]bool)}
	t.maxFrame.Store(wire.MaxFrame)
	t.readTimeout.Store(int64(DefaultReadTimeout))
	t.writeTimeout.Store(int64(DefaultWriteTimeout))
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound address.
func (t *TCP) Addr() string { return t.addr }

// SetMaxFrameSize lowers the largest frame (type byte + payload) this
// transport accepts on reads. Values of 0 or above wire.MaxFrame clamp
// to wire.MaxFrame. Safe to call concurrently with traffic.
func (t *TCP) SetMaxFrameSize(n uint32) {
	if n == 0 || n > wire.MaxFrame {
		n = wire.MaxFrame
	}
	t.maxFrame.Store(n)
}

// SetMetrics attaches (or detaches, with nil) a metric set. Safe to call
// concurrently with traffic; frames in flight during the switch may be
// attributed to either set.
func (t *TCP) SetMetrics(m *Metrics) { t.metrics.Store(m) }

// SetIOTimeouts adjusts the server-side per-exchange read deadline and
// the reply write deadline. Zero restores a default; nonzero values clamp
// into [MinIOTimeout, MaxIOTimeout]. Safe to call concurrently with
// traffic; exchanges in flight keep their already-armed deadlines.
func (t *TCP) SetIOTimeouts(read, write time.Duration) {
	t.readTimeout.Store(int64(clampIOTimeout(read, DefaultReadTimeout)))
	t.writeTimeout.Store(int64(clampIOTimeout(write, DefaultWriteTimeout)))
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.active[conn] = true
		t.mu.Unlock()
		t.wg.Add(1)
		go t.serveConn(conn)
	}
}

func (t *TCP) serveConn(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.active, conn)
		t.mu.Unlock()
	}()
	remote := conn.RemoteAddr().String()
	for {
		// A generous per-exchange deadline keeps dead peers from pinning
		// goroutines forever (configurable via SetIOTimeouts).
		_ = conn.SetReadDeadline(time.Now().Add(time.Duration(t.readTimeout.Load())))
		req, nIn, err := wire.ReadMessageLimitN(conn, t.maxFrame.Load())
		m := t.metrics.Load()
		if err != nil {
			return
		}
		m.noteIn(req.Kind(), nIn)
		resp := t.handler.Serve(remote, req)
		if resp == nil {
			resp = &wire.Ack{}
		}
		_ = conn.SetWriteDeadline(time.Now().Add(time.Duration(t.writeTimeout.Load())))
		nOut, err := wire.WriteMessageN(conn, resp)
		m.noteOut(resp.Kind(), nOut)
		if err != nil {
			return
		}
	}
}

// Call dials (or reuses) a connection to addr, performs one framed
// request/response exchange, and returns the reply.
func (t *TCP) Call(addr string, req wire.Message, timeout time.Duration) (wire.Message, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	start := time.Now()
	deadline := start.Add(timeout)

	conn, pooled, err := t.getConn(addr, timeout)
	if err != nil {
		t.metrics.Load().noteCall(start, err)
		return nil, err
	}
	resp, err := t.exchange(conn, req, deadline)
	if err != nil && pooled {
		// The pooled connection went stale (its peer restarted or closed
		// it); discard it and retry once on a fresh dial. Assign — do not
		// shadow — conn, so the fresh connection is the one pooled below.
		conn.Close()
		fresh, _, err2 := t.dial(addr, time.Until(deadline))
		if err2 != nil {
			t.metrics.Load().noteCall(start, err2)
			return nil, err2
		}
		conn = fresh
		resp, err = t.exchange(conn, req, deadline)
	}
	t.metrics.Load().noteCall(start, err)
	if err != nil {
		conn.Close()
		return nil, err
	}
	t.putConn(addr, conn)
	if e, ok := resp.(*wire.Error); ok {
		return nil, e
	}
	return resp, nil
}

func (t *TCP) exchange(conn net.Conn, req wire.Message, deadline time.Time) (wire.Message, error) {
	_ = conn.SetDeadline(deadline)
	m := t.metrics.Load()
	nOut, err := wire.WriteMessageN(conn, req)
	m.noteOut(req.Kind(), nOut)
	if err != nil {
		return nil, err
	}
	resp, nIn, err := wire.ReadMessageLimitN(conn, t.maxFrame.Load())
	if err != nil {
		return nil, err
	}
	m.noteIn(resp.Kind(), nIn)
	return resp, nil
}

func (t *TCP) getConn(addr string, timeout time.Duration) (net.Conn, bool, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, false, ErrClosed
	}
	pool := t.pools[addr]
	if n := len(pool); n > 0 {
		conn := pool[n-1]
		t.pools[addr] = pool[:n-1]
		t.mu.Unlock()
		t.metrics.Load().notePoolHit()
		return conn, true, nil
	}
	t.mu.Unlock()
	return t.dial(addr, timeout)
}

func (t *TCP) dial(addr string, timeout time.Duration) (net.Conn, bool, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, false, err
	}
	t.metrics.Load().noteDial()
	return conn, false, nil
}

func (t *TCP) putConn(addr string, conn net.Conn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || len(t.pools[addr]) >= maxPooledPerDest {
		conn.Close()
		return
	}
	t.pools[addr] = append(t.pools[addr], conn)
}

// Close shuts the listener and every pooled connection.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for _, pool := range t.pools {
		for _, c := range pool {
			c.Close()
		}
	}
	t.pools = nil
	for c := range t.active {
		c.Close()
	}
	t.mu.Unlock()
	err := t.ln.Close()
	t.wg.Wait()
	return err
}

// ---------------------------------------------------------------------------
// In-memory transport: a process-local fabric keyed by synthetic addresses.

// Fabric is a registry connecting in-memory endpoints. The zero value is
// not usable; create one with NewFabric.
type Fabric struct {
	mu    sync.Mutex
	nodes map[string]*Mem
	next  int

	// Latency, if set, is added to every call (demo realism).
	Latency time.Duration
}

// NewFabric returns an empty in-memory network.
func NewFabric() *Fabric { return &Fabric{nodes: make(map[string]*Mem)} }

// Mem is one endpoint on a Fabric.
type Mem struct {
	fabric  *Fabric
	addr    string
	handler Handler
	metrics atomic.Pointer[Metrics]
	closed  bool
	mu      sync.Mutex
}

// SetMetrics attaches (or detaches, with nil) a metric set, mirroring
// (*TCP).SetMetrics so tests meter the same way production does.
func (m *Mem) SetMetrics(ms *Metrics) { m.metrics.Store(ms) }

// Attach registers a new endpoint serving h.
func (f *Fabric) Attach(h Handler) *Mem {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.next++
	m := &Mem{fabric: f, addr: fmt.Sprintf("mem://%d", f.next), handler: h}
	f.nodes[m.addr] = m
	return m
}

// Addr returns the endpoint's synthetic address.
func (m *Mem) Addr() string { return m.addr }

// Call delivers req to the endpoint registered at addr.
func (m *Mem) Call(addr string, req wire.Message, timeout time.Duration) (wire.Message, error) {
	start := time.Now()
	mm := m.metrics.Load()
	resp, err := m.call(addr, req, mm)
	mm.noteCall(start, err)
	return resp, err
}

func (m *Mem) call(addr string, req wire.Message, mm *Metrics) (wire.Message, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	m.mu.Unlock()

	f := m.fabric
	f.mu.Lock()
	dst := f.nodes[addr]
	lat := f.Latency
	f.mu.Unlock()
	if dst == nil {
		return nil, fmt.Errorf("transport: no endpoint at %s", addr)
	}
	dst.mu.Lock()
	closed := dst.closed
	h := dst.handler
	dst.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("transport: endpoint %s is down", addr)
	}
	if lat > 0 {
		time.Sleep(lat)
	}
	// Round-trip through the wire codec so the in-memory transport
	// exercises exactly the bytes TCP would carry — and meters them on
	// both endpoints, exactly as two TCP peers would.
	dm := dst.metrics.Load()
	req2, nReq, err := roundTrip(req)
	if err != nil {
		return nil, err
	}
	mm.noteOut(req2.Kind(), nReq)
	dm.noteIn(req2.Kind(), nReq)
	resp := h.Serve(m.addr, req2)
	if resp == nil {
		resp = &wire.Ack{}
	}
	resp2, nResp, err := roundTrip(resp)
	if err != nil {
		return nil, err
	}
	dm.noteOut(resp2.Kind(), nResp)
	mm.noteIn(resp2.Kind(), nResp)
	if e, ok := resp2.(*wire.Error); ok {
		return nil, e
	}
	return resp2, nil
}

// Close detaches the endpoint; subsequent calls to it fail like a dead TCP
// peer.
func (m *Mem) Close() error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	return nil
}

// memFrames holds the buffers roundTrip frames into; like wire's own
// scratch, one that grew past wire.MaxPooledBuffer is not kept.
var memFrames = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func roundTrip(msg wire.Message) (wire.Message, int, error) {
	buf := memFrames.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= wire.MaxPooledBuffer {
			buf.Reset()
			memFrames.Put(buf)
		}
	}()
	n, err := wire.WriteMessageN(buf, msg)
	if err != nil {
		return nil, 0, err
	}
	out, err := wire.ReadMessage(buf)
	return out, n, err
}

var (
	_ Transport = (*TCP)(nil)
	_ Transport = (*Mem)(nil)
)
