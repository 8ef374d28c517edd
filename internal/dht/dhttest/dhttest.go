// Package dhttest is the backend conformance suite for the dht.Kernel
// contract. Every backend must pass it (see conformance_test.go in
// internal/chordkern and internal/kademlia); CI runs it for both, so a
// contract change that only one backend satisfies fails loudly instead of
// surfacing as a live-plane heisenbug.
//
// The suite spins real kernels over a transport.Fabric with a minimal
// host (RPC dispatch, tick loops, immediate failure condemnation — the
// live node's resilience stack boiled down to the parts the contract
// depends on) and checks the properties the live plane leans on:
//
//   - Ownership is total and unique: after convergence every key has
//     exactly one claimant (Owns is how coordinators accept index ops).
//   - ReplicaSet on the owner yields r live, distinct, non-self members
//     (the replication layer's fan-out set).
//   - Lookups from every member converge on the claimant, including
//     after churn kills members (the lookup is how index ops route).
//   - A lookup's reported arc (Route.Lo, Route.Hi] is sound: on a settled
//     network every key inside it routes to the same owner from every
//     member (what lets the host's ArcCache answer without routing).
//   - FindOwnerFrom through any member of the same network lands back on
//     the asking node for its own ID (the census split-confirmation
//     soundness property).
package dhttest

import (
	"fmt"
	"testing"
	"time"

	"dco/internal/dht"
	"dco/internal/transport"
	"dco/internal/wire"
)

// Factory builds one kernel for opts. The factory chooses backend tuning
// (tick cadences fast enough for the suite's deadlines).
type Factory func(opts dht.Options) dht.Kernel

// clusterSize is chosen below Kademlia's default K so full-mesh routing
// tables are reachable, and above Chord's conformance successor-list
// size so the ring is not trivially fully connected.
const clusterSize = 8

// sampleKeys is the deterministic key set ownership properties are
// checked over.
func sampleKeys() []uint64 {
	keys := make([]uint64, 48)
	for i := range keys {
		keys[i] = dht.IDOf(fmt.Sprintf("dhttest-key-%d", i))
	}
	return keys
}

// host is the minimal kernel host: fabric endpoint, RPC dispatch, tick
// loops, and a Caller that condemns on any transport failure (fabric
// errors are conclusive — there is no lossy link to excuse).
type host struct {
	kern dht.Kernel
	tr   *transport.Mem
	done chan struct{}
}

func (h *host) Serve(from string, req wire.Message) wire.Message {
	if _, ok := req.(*wire.Ping); ok {
		return &wire.Pong{}
	}
	if h.kern == nil {
		return &wire.Error{Code: wire.CodeShutdown, Msg: "starting"}
	}
	if resp, ok := h.kern.HandleRPC(from, req); ok {
		return resp
	}
	return &wire.Error{Code: wire.CodeBadRequest, Msg: "dhttest: unsupported"}
}

func (h *host) Call(addr string, req wire.Message) (wire.Message, error) {
	resp, err := h.tr.Call(addr, req, 2*time.Second)
	if err != nil {
		h.kern.PeerFailed(addr)
		return nil, err
	}
	if we, ok := resp.(*wire.Error); ok {
		return nil, we
	}
	return resp, nil
}

func (h *host) CallIdem(addr string, req wire.Message) (wire.Message, error) {
	return h.Call(addr, req)
}

func (h *host) start() {
	for _, tk := range h.kern.Ticks() {
		go tk.Run(h.done)
	}
}

func (h *host) close() {
	select {
	case <-h.done:
	default:
		close(h.done)
	}
	_ = h.tr.Close()
}

// cluster builds and converges a clusterSize-member network.
func cluster(t *testing.T, factory Factory) []*host {
	t.Helper()
	f := transport.NewFabric()
	hosts := make([]*host, 0, clusterSize)
	for i := 0; i < clusterSize; i++ {
		h := &host{done: make(chan struct{})}
		h.tr = f.Attach(h)
		h.kern = factory(dht.Options{
			Self:   dht.Member{ID: dht.IDOf(h.tr.Addr()), Addr: h.tr.Addr()},
			Caller: h,
			Done:   h.done,
		})
		if i > 0 {
			if err := h.kern.Join(hosts[0].tr.Addr()); err != nil {
				t.Fatalf("join %d: %v", i, err)
			}
		}
		hosts = append(hosts, h)
	}
	for _, h := range hosts {
		h.start()
	}
	t.Cleanup(func() {
		for _, h := range hosts {
			h.close()
		}
	})
	waitFor(t, 20*time.Second, "ownership to converge", func() bool {
		return ownershipTotalAndUnique(hosts, sampleKeys())
	})
	return hosts
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("dhttest: timeout waiting for %s", what)
}

// ownershipTotalAndUnique reports whether every key has exactly one
// claimant among hosts.
func ownershipTotalAndUnique(hosts []*host, keys []uint64) bool {
	for _, key := range keys {
		claimants := 0
		for _, h := range hosts {
			if h.kern.Owns(key) {
				claimants++
			}
		}
		if claimants != 1 {
			return false
		}
	}
	return true
}

// ownerOf returns the unique claimant, or nil.
func ownerOf(hosts []*host, key uint64) *host {
	var owner *host
	for _, h := range hosts {
		if h.kern.Owns(key) {
			if owner != nil {
				return nil
			}
			owner = h
		}
	}
	return owner
}

// Run executes the conformance suite against the backend factory builds.
func Run(t *testing.T, factory Factory) {
	t.Run("OwnershipTotalAndUnique", func(t *testing.T) {
		hosts := cluster(t, factory)
		// cluster already waited for convergence; assert it holds steadily
		// rather than as a single lucky sample.
		for round := 0; round < 3; round++ {
			if !ownershipTotalAndUnique(hosts, sampleKeys()) {
				t.Fatalf("ownership not total and unique on settled round %d", round)
			}
			time.Sleep(50 * time.Millisecond)
		}
	})

	t.Run("OwnerReplicaSetLiveDistinct", func(t *testing.T) {
		hosts := cluster(t, factory)
		const r = 3
		live := map[string]bool{}
		for _, h := range hosts {
			live[h.tr.Addr()] = true
		}
		for _, key := range sampleKeys() {
			owner := ownerOf(hosts, key)
			if owner == nil {
				t.Fatalf("key %016x has no unique owner", key)
			}
			rs := owner.kern.ReplicaSet(key, r)
			if len(rs) != r {
				t.Fatalf("key %016x: ReplicaSet returned %d members, want %d", key, len(rs), r)
			}
			seen := map[string]bool{}
			for _, m := range rs {
				if m.Addr == owner.tr.Addr() {
					t.Fatalf("key %016x: ReplicaSet includes the owner itself", key)
				}
				if !live[m.Addr] {
					t.Fatalf("key %016x: ReplicaSet includes non-member %s", key, m.Addr)
				}
				if seen[m.Addr] {
					t.Fatalf("key %016x: ReplicaSet repeats %s", key, m.Addr)
				}
				seen[m.Addr] = true
			}
		}
	})

	t.Run("LookupsConvergeOnOwner", func(t *testing.T) {
		hosts := cluster(t, factory)
		for _, key := range sampleKeys()[:16] {
			owner := ownerOf(hosts, key)
			if owner == nil {
				t.Fatalf("key %016x has no unique owner", key)
			}
			for _, h := range hosts {
				got, err := h.kern.FindOwner(key)
				if err != nil {
					t.Fatalf("FindOwner(%016x) from %s: %v", key, h.tr.Addr(), err)
				}
				if got.Owner.Addr != owner.tr.Addr() {
					t.Fatalf("FindOwner(%016x) from %s = %s, owner claims %s",
						key, h.tr.Addr(), got.Owner.Addr, owner.tr.Addr())
				}
			}
		}
	})

	t.Run("ReportedArcsRouteToOneOwner", func(t *testing.T) {
		hosts := cluster(t, factory)
		for _, key := range sampleKeys()[:16] {
			r, err := hosts[0].kern.FindOwner(key)
			if err != nil {
				t.Fatalf("FindOwner(%016x): %v", key, err)
			}
			// The ends of the arc, its middle and the routed key itself;
			// Hi-Lo wraps to the arc's length (0 = the whole key space).
			span := r.Hi - r.Lo
			for _, probe := range []uint64{key, r.Lo + 1, r.Lo + 1 + (span-1)/2, r.Hi} {
				if inside := probe - r.Lo; span != 0 && (inside == 0 || inside > span) {
					t.Fatalf("FindOwner(%016x) reported (%016x, %016x], which does not hold %016x", key, r.Lo, r.Hi, probe)
				}
				for _, h := range hosts {
					got, err := h.kern.FindOwner(probe)
					if err != nil {
						t.Fatalf("FindOwner(%016x) from %s: %v", probe, h.tr.Addr(), err)
					}
					if got.Owner.Addr != r.Owner.Addr {
						t.Fatalf("key %016x lies in the arc (%016x, %016x] reported for %s, but routes to %s from %s",
							probe, r.Lo, r.Hi, r.Owner.Addr, got.Owner.Addr, h.tr.Addr())
					}
				}
			}
		}
	})

	t.Run("LookupsConvergeAfterChurn", func(t *testing.T) {
		hosts := cluster(t, factory)
		// Abrupt kill (no Leave) of two members.
		for _, h := range hosts[len(hosts)-2:] {
			h.close()
		}
		survivors := hosts[:len(hosts)-2]
		keys := sampleKeys()[:16]
		waitFor(t, 20*time.Second, "ownership to re-converge after churn", func() bool {
			return ownershipTotalAndUnique(survivors, keys)
		})
		for _, key := range keys {
			owner := ownerOf(survivors, key)
			if owner == nil {
				t.Fatalf("key %016x has no unique owner after churn", key)
			}
			for _, h := range survivors {
				var got dht.Route
				var err error
				// Routing may still be mid-repair on individual survivors;
				// what must hold is that every survivor converges.
				waitFor(t, 10*time.Second, fmt.Sprintf("lookup of %016x from %s to converge", key, h.tr.Addr()), func() bool {
					got, err = h.kern.FindOwner(key)
					return err == nil && got.Owner.Addr == owner.tr.Addr()
				})
			}
		}
	})

	t.Run("FindOwnerFromLandsHome", func(t *testing.T) {
		hosts := cluster(t, factory)
		for i, h := range hosts {
			via := hosts[(i+1)%len(hosts)]
			self := h.kern.Self()
			owner, err := h.kern.FindOwnerFrom(via.tr.Addr(), self.ID)
			if err != nil {
				t.Fatalf("FindOwnerFrom(%s) for %s: %v", via.tr.Addr(), h.tr.Addr(), err)
			}
			if owner.Addr != self.Addr {
				t.Fatalf("confirmation lookup for %s through %s landed on %s; same-network lookups must land home",
					h.tr.Addr(), via.tr.Addr(), owner.Addr)
			}
		}
	})
}
