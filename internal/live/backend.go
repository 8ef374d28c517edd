package live

// backend.go is the one place the live node names a DHT backend type:
// the Config.DHT -> dht.Kernel factory, the Caller adapter that routes
// kernel RPCs through the node's retry stack and peer table, the Events
// handlers that feed kernel membership activity back into the census
// cache, the custody passes ownership events prompt — and the
// owner-arc cache every index request of this node consults before it
// asks the kernel to route (DESIGN.md, "Owner-arc cache").

import (
	"errors"
	"fmt"
	"os"
	"time"

	"dco/internal/chordkern"
	"dco/internal/dht"
	"dco/internal/kademlia"
	"dco/internal/wire"
)

// defaultDHT resolves the backend when Config.DHT is unset: the DCO_DHT
// environment variable (which is also how CI matrixes the whole test
// suite over both backends), else chord.
func defaultDHT() string {
	if v := os.Getenv("DCO_DHT"); v != "" {
		return v
	}
	return "chord"
}

// newKernel builds the configured DHT backend. Called once from NewNode,
// after the transport, metrics, and retrier exist (the kernel shares the
// node's registry and calls through its one transport call site).
func (n *Node) newKernel() (dht.Kernel, error) {
	opts := dht.Options{
		Self:   n.self,
		Caller: nodeCaller{n},
		Events: dht.Events{
			Seen:         n.onKernSeen,
			RangeChanged: n.onKernRangeChanged,
			Departed:     n.onKernDeparted,
		},
		Registry: n.lm.reg,
		Trace:    n.cfg.Trace,
		Done:     n.closed,
	}
	backend := n.cfg.DHT
	if backend == "" {
		backend = defaultDHT()
	}
	switch backend {
	case "chord":
		return chordkern.New(chordkern.Config{
			SuccListSize:    succListSize,
			StabilizeEvery:  n.cfg.StabilizeEvery,
			FixFingersEvery: n.cfg.FixFingersEvery,
		}, opts), nil
	case "kademlia":
		return kademlia.New(kademlia.Config{
			RefreshEvery: 4 * n.cfg.StabilizeEvery,
			ProbeEvery:   n.cfg.StabilizeEvery,
		}, opts), nil
	default:
		return nil, fmt.Errorf("live: unknown DHT backend %q (want chord or kademlia)", backend)
	}
}

// nodeCaller adapts the node's RPC stack to the dht.Caller seam: kernel
// calls get the same timeouts, retries, circuit accounting, and failure
// condemnation (feeding Kernel.PeerFailed) as the node's own traffic.
type nodeCaller struct{ n *Node }

func (c nodeCaller) Call(addr string, req wire.Message) (wire.Message, error) {
	return c.n.call(addr, req, c.n.cfg.CallTimeout)
}

func (c nodeCaller) CallIdem(addr string, req wire.Message) (wire.Message, error) {
	return c.n.callIdem(addr, req, c.n.cfg.CallTimeout)
}

// routeCacheSize bounds the owner-arc cache: how many coordinators (Chord:
// one arc each) or chunk keys (Kademlia: single-key arcs) a node remembers
// the way to.
const routeCacheSize = 256

// routeTo routes key through the kernel — never the cache — and stores the
// arc the answer proved, unless it is this node's own: what a node owns is
// the kernel's to say each time (Chord says it from local state), and a
// lookup this node serves itself keeps its second-opinion check.
func (n *Node) routeTo(key uint64) (dht.Route, error) {
	r, err := n.kern.FindOwner(key)
	if err == nil && r.Owner.Addr != n.self.Addr {
		n.routes.Store(r)
	}
	return r, err
}

// cachedOwner returns key's owner when a cached arc covers it.
func (n *Node) cachedOwner(key uint64) (dht.Member, bool) {
	owner, ok := n.routes.Owner(key)
	if ok {
		n.lm.RouteCacheHits.Inc()
	} else {
		n.lm.RouteCacheMisses.Inc()
	}
	return owner, ok
}

// ownerOf resolves key's coordinator for requests that any node would
// serve, so that a stale arc needs no handling: pollution reports, custody.
func (n *Node) ownerOf(key uint64) (dht.Member, error) {
	if owner, ok := n.cachedOwner(key); ok {
		return owner, nil
	}
	r, err := n.routeTo(key)
	return r.Owner, err
}

// ownerGone reports whether err, from a request sent to a key's supposed
// owner, says that the node is not that: it disowned the key, is shutting
// down, or did not answer. Any other error is the owner's verdict on the
// request.
func ownerGone(err error) bool {
	if err == nil {
		return false
	}
	var we *wire.Error
	return !errors.As(err, &we) || we.Code == wire.CodeNotOwner || we.Code == wire.CodeShutdown
}

// bounced reports whether a cached owner turned a request away (ownerGone).
// If so its arc is forgotten, the redirect counted, and the caller routes.
func (n *Node) bounced(owner string, err error) bool {
	if !ownerGone(err) {
		return false
	}
	n.routes.Drop(owner)
	n.lm.RouteCacheRedirects.Inc()
	return true
}

// askOwner sends an index request to a coordinator — in process when that
// is this node — with a wire.Error reply folded into err, as the transport
// folds a remote one.
func (n *Node) askOwner(addr string, req wire.Message, timeout time.Duration) (wire.Message, error) {
	if addr != n.self.Addr {
		return n.callIdem(addr, req, timeout)
	}
	resp := n.serve(addr, req)
	if e, ok := resp.(*wire.Error); ok {
		return nil, e
	}
	return resp, nil
}

// onKernSeen feeds members the kernel sighted in protocol traffic into
// the census member cache, and trims any cached arc one of them sits
// inside. The kernel already observed them itself.
func (n *Node) onKernSeen(ms ...dht.Member) {
	n.routes.Trim(ms...)
	now := time.Now()
	for _, m := range ms {
		n.members.Note(m, now)
	}
}

// onKernRangeChanged runs a custody pass after part of this node's key
// range moved to newOwner (Chord: a Notify adopted a closer predecessor;
// Kademlia: a closer contact joined), which gets the ceded rows first. A
// newOwner the pass cannot reach (the far end of a one-way partition that
// keeps announcing itself) is condemned by the failing call, and the range
// comes back instead of answering not-the-owner for as long as it lingers.
// Like every event's pass, it runs on its own goroutine: the event fires on
// the kernel's serving path.
func (n *Node) onKernRangeChanged(newOwner dht.Member) {
	if newOwner.Addr != n.self.Addr {
		go n.custody(newOwner)
	}
}

// onKernDeparted reacts to a member's graceful leave — the one conclusive
// "gone for good" signal (abrupt unreachability may be a partition). The
// leaver sent its index here beforehand, so this is the takeover an abrupt
// death gets (a custody pass); the rows this node does not own stay in the
// slice, a backup for their owner, until their leases lapse. The member is
// forgotten in the census cache, and so is the arc it owned.
func (n *Node) onKernDeparted(m dht.Member) {
	n.routes.Drop(m.Addr)
	go n.custody(dht.Member{})
	n.members.Forget(m.Addr)
}
