package transport

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"dco/internal/israce"
	"dco/internal/telemetry"
	"dco/internal/wire"
)

func echoHandler(from string, req wire.Message) wire.Message {
	switch m := req.(type) {
	case *wire.Ping:
		return &wire.Pong{}
	case *wire.GetChunk:
		return &wire.ChunkResp{Seq: m.Seq, OK: true, Data: []byte{byte(m.Seq)}}
	case *wire.Error:
		return m // reflect errors for the error-propagation test
	default:
		return &wire.Ack{}
	}
}

func TestTCPPingPong(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", HandlerFunc(echoHandler))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := ListenTCP("127.0.0.1:0", HandlerFunc(echoHandler))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	resp, err := cli.Call(srv.Addr(), &wire.Ping{}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resp.(*wire.Pong); !ok {
		t.Fatalf("got %T, want Pong", resp)
	}
}

func TestTCPConnectionReuse(t *testing.T) {
	srv, _ := ListenTCP("127.0.0.1:0", HandlerFunc(echoHandler))
	defer srv.Close()
	cli, _ := ListenTCP("127.0.0.1:0", HandlerFunc(echoHandler))
	defer cli.Close()

	for i := 0; i < 20; i++ {
		resp, err := cli.Call(srv.Addr(), &wire.GetChunk{Seq: int64(i)}, time.Second)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if cr := resp.(*wire.ChunkResp); cr.Seq != int64(i) {
			t.Fatalf("call %d answered with seq %d", i, cr.Seq)
		}
	}
	cli.mu.Lock()
	pooled := len(cli.pools[srv.Addr()])
	cli.mu.Unlock()
	if pooled == 0 {
		t.Fatal("no connection was pooled across sequential calls")
	}
	if pooled > maxPooledPerDest {
		t.Fatalf("pool overgrew: %d", pooled)
	}
}

func TestTCPConcurrentCalls(t *testing.T) {
	srv, _ := ListenTCP("127.0.0.1:0", HandlerFunc(echoHandler))
	defer srv.Close()
	cli, _ := ListenTCP("127.0.0.1:0", HandlerFunc(echoHandler))
	defer cli.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := cli.Call(srv.Addr(), &wire.GetChunk{Seq: int64(i)}, 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			if cr := resp.(*wire.ChunkResp); cr.Seq != int64(i) {
				errs <- &wire.Error{Msg: "response mismatch"}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTCPCallToDeadAddressFails(t *testing.T) {
	cli, _ := ListenTCP("127.0.0.1:0", HandlerFunc(echoHandler))
	defer cli.Close()
	if _, err := cli.Call("127.0.0.1:1", &wire.Ping{}, 300*time.Millisecond); err == nil {
		t.Fatal("call to a closed port succeeded")
	}
}

func TestTCPErrorResponsePropagates(t *testing.T) {
	srv, _ := ListenTCP("127.0.0.1:0", HandlerFunc(func(string, wire.Message) wire.Message {
		return &wire.Error{Msg: "nope"}
	}))
	defer srv.Close()
	cli, _ := ListenTCP("127.0.0.1:0", HandlerFunc(echoHandler))
	defer cli.Close()
	_, err := cli.Call(srv.Addr(), &wire.Ping{}, time.Second)
	if err == nil || err.Error() != "remote: nope" {
		t.Fatalf("want remote error, got %v", err)
	}
}

func TestTCPCloseUnblocksEverything(t *testing.T) {
	srv, _ := ListenTCP("127.0.0.1:0", HandlerFunc(echoHandler))
	cli, _ := ListenTCP("127.0.0.1:0", HandlerFunc(echoHandler))
	if _, err := cli.Call(srv.Addr(), &wire.Ping{}, time.Second); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		srv.Close()
		cli.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung")
	}
	if _, err := cli.Call(srv.Addr(), &wire.Ping{}, 200*time.Millisecond); err == nil {
		t.Fatal("call on a closed transport succeeded")
	}
}

func TestTCPStaleConnRetry(t *testing.T) {
	srv, _ := ListenTCP("127.0.0.1:0", HandlerFunc(echoHandler))
	cli, _ := ListenTCP("127.0.0.1:0", HandlerFunc(echoHandler))
	defer cli.Close()
	addr := srv.Addr()
	if _, err := cli.Call(addr, &wire.Ping{}, time.Second); err != nil {
		t.Fatal(err)
	}
	// Kill the server-side connections without telling the client: the
	// pooled connection goes stale; the next call must transparently
	// re-dial... and when the whole server is gone, fail cleanly.
	srv.Close()
	if _, err := cli.Call(addr, &wire.Ping{}, 300*time.Millisecond); err == nil {
		t.Fatal("call to closed server succeeded")
	}
}

// TestTCPStaleConnRedialFailureIsCounted: a call that finds its pooled
// connection stale and then cannot redial is still a call, and a failed
// one — exactly the calls made to restarted or dead peers.
func TestTCPStaleConnRedialFailureIsCounted(t *testing.T) {
	srv, _ := ListenTCP("127.0.0.1:0", HandlerFunc(echoHandler))
	cli, _ := ListenTCP("127.0.0.1:0", HandlerFunc(echoHandler))
	defer cli.Close()
	m := NewMetrics(telemetry.NewRegistry())
	cli.SetMetrics(m)
	addr := srv.Addr()
	if _, err := cli.Call(addr, &wire.Ping{}, time.Second); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := cli.Call(addr, &wire.Ping{}, 300*time.Millisecond); err == nil {
		t.Fatal("call to closed server succeeded")
	}
	if m.PoolHits.Value() != 1 {
		t.Fatalf("pool hits = %d: the failed call did not start on the pooled connection", m.PoolHits.Value())
	}
	if calls, errs := m.Calls.Value(), m.CallErrors.Value(); calls != 2 || errs != 1 {
		t.Fatalf("calls = %d, call errors = %d; want 2 and 1", calls, errs)
	}
}

// TestTCPStaleConnRecoversAfterPeerRestart is the regression test for the
// stale-pool bug: a pooled connection whose peer restarted must be
// discarded and the call retried on a fresh dial — and the *fresh*
// connection (not the dead one) must be what lands back in the pool.
func TestTCPStaleConnRecoversAfterPeerRestart(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", HandlerFunc(echoHandler))
	if err != nil {
		t.Fatal(err)
	}
	cli, _ := ListenTCP("127.0.0.1:0", HandlerFunc(echoHandler))
	defer cli.Close()
	addr := srv.Addr()
	if _, err := cli.Call(addr, &wire.Ping{}, time.Second); err != nil {
		t.Fatal(err)
	}
	// Restart the peer on the same address: the client's pooled conn is
	// now stale, but the address is live again.
	srv.Close()
	srv2, err := ListenTCP(addr, HandlerFunc(echoHandler))
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer srv2.Close()

	if _, err := cli.Call(addr, &wire.Ping{}, 2*time.Second); err != nil {
		t.Fatalf("call after peer restart: %v", err)
	}

	// The connection pooled by the recovered call must be the fresh one:
	// a direct exchange on it has to work. (The old bug pooled the closed
	// stale conn and leaked the fresh one.)
	cli.mu.Lock()
	pool := cli.pools[addr]
	cli.mu.Unlock()
	if len(pool) != 1 {
		t.Fatalf("pooled %d conns after recovery, want 1", len(pool))
	}
	if _, err := cli.exchange(pool[0], &wire.Ping{}, time.Now().Add(time.Second)); err != nil {
		t.Fatalf("pooled conn is dead (stale conn re-pooled): %v", err)
	}
}

// TestTCPOversizedFramePrefixRejected: a hostile length prefix must drop
// the connection without ballooning memory or killing the server.
func TestTCPOversizedFramePrefixRejected(t *testing.T) {
	srv, _ := ListenTCP("127.0.0.1:0", HandlerFunc(echoHandler))
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A whole frame header (length, kind) declaring 4 GiB - 1; far beyond
	// wire.MaxFrame.
	if _, err := conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, byte(wire.KindPing)}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := wire.ReadMessage(conn); err != io.EOF {
		t.Fatalf("server did not drop the connection on an oversized frame: %v", err)
	}

	// The server survives and keeps serving well-formed peers.
	cli, _ := ListenTCP("127.0.0.1:0", HandlerFunc(echoHandler))
	defer cli.Close()
	if _, err := cli.Call(srv.Addr(), &wire.Ping{}, time.Second); err != nil {
		t.Fatalf("server dead after oversized frame: %v", err)
	}
}

// TestTCPConfigurableMaxFrameSize: a lowered bound rejects frames that
// the protocol default would allow.
func TestTCPConfigurableMaxFrameSize(t *testing.T) {
	srv, _ := ListenTCP("127.0.0.1:0", HandlerFunc(echoHandler))
	defer srv.Close()
	srv.SetMaxFrameSize(1024)

	cli, _ := ListenTCP("127.0.0.1:0", HandlerFunc(echoHandler))
	defer cli.Close()
	small := &wire.GetChunk{Seq: 1}
	if _, err := cli.Call(srv.Addr(), small, time.Second); err != nil {
		t.Fatalf("small frame rejected under 1KiB bound: %v", err)
	}
	big := &wire.ChunkResp{Seq: 1, OK: true, Data: make([]byte, 64*1024)}
	if _, err := cli.Call(srv.Addr(), big, time.Second); err == nil {
		t.Fatal("64KiB frame crossed a 1KiB server bound")
	}
}

func TestFabricBasics(t *testing.T) {
	f := NewFabric()
	a := f.Attach(HandlerFunc(echoHandler))
	b := f.Attach(HandlerFunc(echoHandler))
	if a.Addr() == b.Addr() {
		t.Fatal("duplicate fabric addresses")
	}
	resp, err := a.Call(b.Addr(), &wire.Ping{}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resp.(*wire.Pong); !ok {
		t.Fatalf("got %T", resp)
	}
	if _, err := a.Call("mem://404", &wire.Ping{}, time.Second); err == nil {
		t.Fatal("call to unknown endpoint succeeded")
	}
	b.Close()
	if _, err := a.Call(b.Addr(), &wire.Ping{}, time.Second); err == nil {
		t.Fatal("call to closed endpoint succeeded")
	}
	a.Close()
	if _, err := a.Call(b.Addr(), &wire.Ping{}, time.Second); err != ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestFabricUsesWireEncoding(t *testing.T) {
	// A message that cannot encode itself within limits must fail through
	// the fabric the same way TCP would reject it.
	f := NewFabric()
	a := f.Attach(HandlerFunc(echoHandler))
	b := f.Attach(HandlerFunc(echoHandler))
	big := &wire.ChunkResp{Seq: 1, OK: true, Data: make([]byte, wire.MaxFrame)}
	if _, err := a.Call(b.Addr(), big, time.Second); err == nil {
		t.Fatal("oversized message crossed the fabric")
	}
}

func TestTCPSetIOTimeoutsClamps(t *testing.T) {
	srv, _ := ListenTCP("127.0.0.1:0", HandlerFunc(echoHandler))
	defer srv.Close()

	srv.SetIOTimeouts(0, 0)
	if got := time.Duration(srv.readTimeout.Load()); got != DefaultReadTimeout {
		t.Fatalf("zero read timeout = %v, want default %v", got, DefaultReadTimeout)
	}
	if got := time.Duration(srv.writeTimeout.Load()); got != DefaultWriteTimeout {
		t.Fatalf("zero write timeout = %v, want default %v", got, DefaultWriteTimeout)
	}
	srv.SetIOTimeouts(time.Nanosecond, time.Hour)
	if got := time.Duration(srv.readTimeout.Load()); got != MinIOTimeout {
		t.Fatalf("tiny read timeout = %v, want floor %v", got, MinIOTimeout)
	}
	if got := time.Duration(srv.writeTimeout.Load()); got != MaxIOTimeout {
		t.Fatalf("huge write timeout = %v, want ceiling %v", got, MaxIOTimeout)
	}
}

func TestTCPReadTimeoutReclaimsIdleConn(t *testing.T) {
	srv, _ := ListenTCP("127.0.0.1:0", HandlerFunc(echoHandler))
	defer srv.Close()
	srv.SetIOTimeouts(MinIOTimeout, 0)

	// Dial raw and send nothing: the serve goroutine must give up and
	// close the connection after the (shortened) read deadline.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	start := time.Now()
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("expected the server to close the idle connection")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("idle connection lingered %v, want ~%v", elapsed, MinIOTimeout)
	}
}

// TestTCPAllocationBudgets holds a whole TCP call — both endpoints, which
// share this process — to its budget: a ping allocates no frame buffers
// (no header array, no frame slice, no decoder state), and a 64 KiB chunk
// costs the two decoded structs and the one exact-size payload the caller
// keeps, the server sending its stored slice as it is.
func TestTCPAllocationBudgets(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	chunk := &wire.ChunkResp{Seq: 1, OK: true, Data: make([]byte, 64*1024)}
	pong := &wire.Pong{}
	srv, err := ListenTCP("127.0.0.1:0", HandlerFunc(func(_ string, req wire.Message) wire.Message {
		if _, ok := req.(*wire.GetChunk); ok {
			return chunk
		}
		return pong
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, _ := ListenTCP("127.0.0.1:0", HandlerFunc(echoHandler))
	defer cli.Close()

	addr := srv.Addr()
	perCall := func(req wire.Message) (bytesPerOp, objsPerOp float64) {
		call := func() {
			if _, err := cli.Call(addr, req, 5*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		call() // dial, and warm the pools
		const runs = 200
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			call()
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / runs, float64(m1.Mallocs-m0.Mallocs) / runs
	}
	if b, objs := perCall(&wire.Ping{}); b > 64 || objs >= 1 {
		t.Errorf("TCP ping call: %.0f B in %.1f objects; budget: nothing", b, objs)
	}
	if b, objs := perCall(&wire.GetChunk{Seq: 1}); b > 66_560 || objs >= 4 {
		t.Errorf("TCP 64 KiB chunk call: %.0f B in %.1f objects; budget 66,560 B (one payload and 1 KiB) in 3: the request, the reply and its data", b, objs)
	}
}

// TestTCPServesOneSliceToConcurrentCallers: the handler answers every
// caller with the same Data slice and the transport writes it to eight
// sockets at once without copying or touching it (the race detector
// watches the slice); every caller gets its own intact copy.
func TestTCPServesOneSliceToConcurrentCallers(t *testing.T) {
	stored := bytes.Repeat([]byte{0xA5}, 64*1024)
	srv, _ := ListenTCP("127.0.0.1:0", HandlerFunc(func(_ string, req wire.Message) wire.Message {
		return &wire.ChunkResp{Seq: req.(*wire.GetChunk).Seq, OK: true, Data: stored}
	}))
	defer srv.Close()
	cli, _ := ListenTCP("127.0.0.1:0", HandlerFunc(echoHandler))
	defer cli.Close()

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := cli.Call(srv.Addr(), &wire.GetChunk{Seq: int64(c)}, 5*time.Second)
				if err != nil {
					t.Error(err)
					return
				}
				cr := resp.(*wire.ChunkResp)
				if cr.Seq != int64(c) || !bytes.Equal(cr.Data, stored) {
					t.Errorf("caller %d: reply damaged", c)
					return
				}
				cr.Data[i] ^= 0xFF // the caller's copy is its own to change
			}
		}(c)
	}
	wg.Wait()
	if !bytes.Equal(stored, bytes.Repeat([]byte{0xA5}, 64*1024)) {
		t.Fatal("serving modified the stored slice")
	}
}
