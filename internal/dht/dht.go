// Package dht defines the backend-neutral key-routing substrate the live
// DCO node runs on. The paper's chunk-driven overlay only needs a handful
// of operations from its DHT — route a key to its owning coordinator, test
// ownership locally, enumerate the members that should replicate a key,
// join/leave, and surface membership changes — so those operations are the
// whole contract here. internal/chordkern implements it with the Chord ring
// the paper assumes; internal/kademlia implements it with XOR-metric
// k-buckets and iterative parallel lookups. internal/live is written
// against this package only and never names a backend type.
//
// Division of labor: a Kernel owns the routing tables and the maintenance
// protocol (stabilization or bucket refresh), but performs no I/O of its
// own — every RPC goes through the Caller the host node supplies, which is
// where timeouts, retries, circuit breaking, and failure condemnation
// live. The host learns about membership changes through Events callbacks.
//
// Locking contract (what keeps the host's mutex and the kernel's internal
// mutex from deadlocking): kernel methods the host may call while holding
// its own lock — Self, Owns, View, ReplicaSet — are pure
// local reads that never block, never call the Caller, and never fire
// Events. Methods that do I/O (Join, Leave, FindOwner*, Merge, the Ticks)
// and HandleRPC may fire Events and use the Caller, but never while
// holding the kernel's internal lock; the host's Events handlers are free
// to take the host lock and call the pure-read methods back.
package dht

import (
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"time"

	"dco/internal/telemetry"
	"dco/internal/wire"
)

// Member names one overlay participant: its position in the shared 64-bit
// key space and its dialable transport address.
type Member struct {
	ID   uint64
	Addr string
}

// Wire converts a member to its wire representation.
func (m Member) Wire() wire.Entry { return wire.Entry{ID: m.ID, Addr: m.Addr} }

// FromWire converts a wire entry to a member.
func FromWire(e wire.Entry) Member { return Member{ID: e.ID, Addr: e.Addr} }

// IDOf maps a node address onto the key space. Both backends share it (and
// it matches the chunk-key hash family), so a deployment can switch
// backends without nodes changing identity.
func IDOf(addr string) uint64 {
	sum := sha1.Sum([]byte("live-node-" + addr))
	return binary.BigEndian.Uint64(sum[:8])
}

// Route is a routing answer: who owns a key, whom to try when the owner is
// unreachable, and how far the answer reaches.
type Route struct {
	Owner Member
	// Fallbacks are nearest-responsibility first (Chord: the owner's
	// successor list; Kademlia: the next closest members of the lookup
	// shortlist).
	Fallbacks []Member
	// Lo and Hi bound the proof: when the answer was given, every key of
	// the clockwise arc (Lo, Hi] belonged to Owner. Lo == Hi is the whole
	// key space (a ring of one); Lo == Hi-1 is the routed key alone, which
	// is all a backend without contiguous ranges (Kademlia), or a Chord
	// owner that does not know its predecessor, can vouch for. An ArcCache
	// answers later keys of the arc without routing.
	Lo, Hi uint64
}

// Caller is the RPC seam the host node supplies. Both calls block until a
// reply, an error, or the host's timeout; the host's failure handling
// (breaker accounting, conclusive-death condemnation feeding back into
// Kernel.PeerFailed) runs inside them, so a kernel never reasons about
// liveness policy itself.
type Caller interface {
	// Call performs one single-shot RPC: no retry. The right shape for
	// maintenance probes, where a failure is itself the signal.
	Call(addr string, req wire.Message) (wire.Message, error)
	// CallIdem performs a retried RPC for idempotent requests (routing
	// steps are reads; they qualify).
	CallIdem(addr string, req wire.Message) (wire.Message, error)
}

// Events are the host's subscriptions to membership activity. Any field
// may be nil. Kernels fire them without holding internal locks (see the
// package comment); handlers may block briefly but must not call back into
// kernel methods that do I/O.
type Events struct {
	// Seen reports members sighted in protocol traffic (routing answers,
	// notifies, joins). The host feeds its census member cache from it.
	// ms is the kernel's scratch: read it during the call, do not keep it.
	Seen func(ms ...Member)
	// RangeChanged reports that part of this node's key range now belongs
	// to newOwner (a closer member appeared). It prompts the host's custody
	// pass, which sends newOwner the rows; the pass has other triggers too.
	RangeChanged func(newOwner Member)
	// Departed reports a member's graceful leave — the one conclusive
	// "gone for good" signal (abrupt unreachability may be a partition).
	// It fires after the kernel has dropped the member, so ownership
	// already says who inherits its keys.
	Departed func(m Member)
}

// Tick is one periodic maintenance step the host schedules on the kernel's
// behalf (the host owns goroutine lifecycle; kernels stay passive). Every
// host schedules it with Run.
type Tick struct {
	Name string
	// Every is the base cadence: the first wait, and the wait after any
	// round that changed something.
	Every time.Duration
	// Fn runs one round and reports whether it changed anything (a failed
	// probe counts). A tick whose rounds always report a change keeps the
	// base cadence.
	Fn func() (changed bool)
	// Wake, if non-nil, receives when the kernel learns news between
	// rounds; it cuts a stretched wait short. The kernel sends without
	// blocking, so one pending wake stands for any number.
	Wake <-chan struct{}
	// RunNow, if non-nil, receives when a round cannot wait: it runs the
	// round at once, whatever the wait, the first one included. Sent the
	// same way as Wake.
	RunNow <-chan struct{}
}

// UpkeepBackoff caps how far Run stretches a quiet tick: a round that
// changed nothing doubles the wait, up to UpkeepBackoff × Every.
const UpkeepBackoff = 8

// nextWait is the backoff rule: back to the base cadence after a change,
// twice the last wait (capped) after a quiet round.
func nextWait(wait, every time.Duration, changed bool) time.Duration {
	if changed {
		return every
	}
	return min(2*wait, UpkeepBackoff*every)
}

// Run runs t's rounds until done is closed. It waits Every before the
// first round and nextWait after each; a wake during a stretched wait runs
// the round at once, a wake at the base cadence changes nothing, and a
// RunNow runs it at once at any wait. Every <= 0 means never.
func (t Tick) Run(done <-chan struct{}) {
	if t.Every <= 0 {
		return
	}
	wait := t.Every
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.Wake:
			if wait == t.Every {
				continue
			}
		case <-t.RunNow:
		case <-timer.C:
		}
		if !timer.Stop() { // fired: drain the value unless it was received
			select {
			case <-timer.C:
			default:
			}
		}
		wait = nextWait(wait, t.Every, t.Fn())
		timer.Reset(wait)
	}
}

// Options carries the host-supplied plumbing every backend needs; backend
// tuning lives in each backend's own Config struct.
type Options struct {
	Self     Member
	Caller   Caller
	Events   Events
	Registry *telemetry.Registry
	Trace    *telemetry.Trace
	// Done is closed when the host shuts down; kernels abort in-progress
	// waits (routing retries, lookup rounds) instead of finishing them.
	// nil means never.
	Done <-chan struct{}
}

// PeerQuarantine is how long a member found conclusively failed stays
// barred from passive re-adoption into a kernel's tables (Chord: Notify and
// stabilize gossip; Kademlia has no such bar), and so how long a host's
// census declines to merge again with the member it last merged with: until
// the bar lapses, a barred member keeps re-confirming the split.
const PeerQuarantine = 2 * time.Second

// HopBuckets are the shared dco_dht_lookup_hops histogram bounds: routing
// path lengths, not latencies. Both backends register the histogram with
// these bounds so the dhtcompare bench can aggregate them directly.
var HopBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}

// Kernel is the DHT backend contract. Implementations are safe for
// concurrent use.
type Kernel interface {
	// Name identifies the backend ("chord", "kademlia").
	Name() string

	// Self returns this node's identity. Pure read.
	Self() Member

	// Owns reports whether this node is key's coordinator under the
	// backend's ownership rule (Chord: key in (pred, self]; Kademlia: no
	// known live contact XOR-closer than self). Pure read; conservative
	// under incomplete tables — maintenance converges it.
	Owns(key uint64) bool

	// FindOwner routes from this node to key's owner and reports, with the
	// answer, the range of keys it was proved for (see Route). Performs
	// RPCs.
	FindOwner(key uint64) (Route, error)

	// FindOwnerFrom is FindOwner routed through start instead of this
	// node's own tables — the census uses it to probe a foreign network
	// through one of its members. It reports the owner alone: no range,
	// no fallbacks. Performs RPCs.
	FindOwnerFrom(start string, key uint64) (Member, error)

	// ReplicaSet returns up to r distinct live members (never self) that
	// should mirror key's index entries. Only meaningful on the key's
	// owner (Chord cannot compute another owner's successors locally);
	// non-owners may get a best-effort or empty answer. Pure read.
	ReplicaSet(key uint64, r int) []Member

	// Join attaches this node to the overlay through bootstrap. Performs
	// RPCs; an error means this bootstrap did not work (try another).
	Join(bootstrap string) error

	// Leave runs the backend's graceful-departure protocol (Chord:
	// re-link neighbors; Kademlia: best-effort goodbye so buckets drop
	// this node early), whose receivers get the Departed event. The host
	// sends its index to its replica set first. Performs RPCs.
	Leave()

	// PeerFailed purges a conclusively dead peer from the routing tables.
	// The host calls it from its failure-condemnation path; maintenance
	// re-adds the peer if it was only a hiccup after all.
	PeerFailed(addr string)

	// View is this node's bounded membership view (self always included)
	// — the census exchanges and compares it to detect split networks.
	// Pure read.
	View() []Member

	// Merge folds a confirmed foreign network into this node's tables —
	// target is the foreign member whose range covers this node's ID,
	// others its advertised view — and seeds the backend's convergence
	// (Chord: monotone candidate folds + notifies; Kademlia: bucket
	// inserts + a self-lookup that advertises this node). Performs RPCs.
	Merge(target Member, others []Member)

	// Ticks lists the kernel's periodic maintenance steps for the host to
	// schedule with Tick.Run.
	Ticks() []Tick

	// HandleRPC serves one inbound protocol message. ok=false means the
	// message is not this kernel's (the host dispatches it elsewhere).
	// Runs on transport goroutines.
	HandleRPC(from string, req wire.Message) (resp wire.Message, ok bool)
}

// ErrNoRoute is returned by FindOwner when routing cannot reach an owner
// (no live contacts, no progress, or the hop bound tripped).
var ErrNoRoute = errors.New("dht: no route to key owner")
