package index

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dco/internal/israce"
	"dco/internal/wire"
)

var t0 = time.Unix(1_000_000, 0)

func row(addr string, lease time.Duration) Row {
	r := Row{Ent: wire.Entry{Addr: addr}}
	if lease != 0 {
		r.Expire = t0.Add(lease)
	}
	return r
}

func addrs(rows []Row) (out []string) {
	for _, r := range rows {
		out = append(out, r.Ent.Addr)
	}
	return out
}

// TestTableLeaseMerge pins the one lease rule every ingestion path shares:
// the longer lease wins, zero (no lease) beats any finite one, and a row
// that expired in flight is refused.
func TestTableLeaseMerge(t *testing.T) {
	const forever = time.Duration(0)
	cases := []struct {
		name       string
		have, next time.Duration // leases relative to t0; 0 = none
		at         time.Duration // when next is upserted
		want       time.Duration
		refused    bool
	}{
		{"longer lease replaces shorter", 10 * time.Second, 20 * time.Second, 0, 20 * time.Second, false},
		{"shorter lease never shortens", 20 * time.Second, 10 * time.Second, 0, 20 * time.Second, false},
		{"zero beats finite", 20 * time.Second, forever, 0, forever, false},
		{"finite never replaces zero", forever, 20 * time.Second, 0, forever, false},
		{"refresh at now+TTL is the rule's special case", 45 * time.Second, 50 * time.Second, 5 * time.Second, 50 * time.Second, false},
		{"expired in flight is refused", 20 * time.Second, 3 * time.Second, 5 * time.Second, 20 * time.Second, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := New(0, Budget{}, nil)
			if added, ok := tb.Upsert(1, 7, row("a", tc.have), t0); !added || !ok {
				t.Fatalf("first upsert: added=%v ok=%v", added, ok)
			}
			added, ok := tb.Upsert(1, 7, row("a", tc.next), t0.Add(tc.at))
			if added || ok == tc.refused {
				t.Fatalf("second upsert: added=%v ok=%v, want added=false ok=%v", added, ok, !tc.refused)
			}
			rows := tb.Get(7).Rows
			if len(rows) != 1 {
				t.Fatalf("rows = %v, want exactly one", addrs(rows))
			}
			if want := row("a", tc.want).Expire; !rows[0].Expire.Equal(want) {
				t.Fatalf("lease = %v, want %v", rows[0].Expire, want)
			}
		})
	}
	// A new row that is already expired never enters, and leaves no entry.
	tb := New(0, Budget{}, nil)
	if _, ok := tb.Upsert(1, 7, row("a", time.Second), t0.Add(2*time.Second)); ok || tb.Len() != 0 {
		t.Fatalf("expired new row: ok=%v entries=%d", ok, tb.Len())
	}
}

// TestTableRefreshKeepsWhatHearsayLacks: a first-hand refresh replaces
// bandwidth and load; hearsay (UpBps 0, LoadUnknown) keeps both.
func TestTableRefreshKeepsWhatHearsayLacks(t *testing.T) {
	tb := New(0, Budget{}, nil)
	tb.Upsert(1, 7, Row{Ent: wire.Entry{Addr: "a"}, UpBps: 100, LoadMilli: 400}, t0)
	tb.Upsert(1, 7, Row{Ent: wire.Entry{Addr: "a"}, LoadMilli: LoadUnknown}, t0)
	if r := tb.Get(7).Rows[0]; r.UpBps != 100 || r.LoadMilli != 400 {
		t.Fatalf("hearsay overwrote the row: %+v", r)
	}
	tb.Upsert(1, 7, Row{Ent: wire.Entry{Addr: "a"}, UpBps: 200, LoadMilli: 0}, t0)
	if r := tb.Get(7).Rows[0]; r.UpBps != 200 || r.LoadMilli != 0 {
		t.Fatalf("first-hand refresh not taken: %+v", r)
	}
	tb.Upsert(1, 8, Row{Ent: wire.Entry{Addr: "b"}, LoadMilli: LoadUnknown}, t0)
	if r := tb.Get(8).Rows[0]; r.LoadMilli != 0 {
		t.Fatalf("a new hearsay row stored load %d, want 0", r.LoadMilli)
	}
}

// TestTableCap: the per-entry cap refuses growth on every path, never a
// refresh, and never another entry.
func TestTableCap(t *testing.T) {
	tb := New(2, Budget{}, nil)
	for _, a := range []string{"a", "b"} {
		if added, ok := tb.Upsert(1, 7, row(a, 0), t0); !added || !ok {
			t.Fatalf("%s refused under the cap", a)
		}
	}
	if added, ok := tb.Upsert(1, 7, row("c", 0), t0); added || ok {
		t.Fatal("third row accepted past cap 2")
	}
	if added, ok := tb.Upsert(1, 7, row("a", time.Hour), t0); added || !ok {
		t.Fatalf("refresh at the cap: added=%v ok=%v, want false true", added, ok)
	}
	if added, ok := tb.Upsert(2, 8, row("c", 0), t0); !added || !ok {
		t.Fatal("the cap leaked across entries")
	}
}

// TestTableRemoveScrubPrune: rows leave by holder, by holder everywhere and
// by lease, and an entry nothing refers to leaves with its last row.
func TestTableRemoveScrubPrune(t *testing.T) {
	tb := New(0, Budget{}, nil)
	tb.Upsert(10, 1, row("a", 0), t0)
	tb.Upsert(10, 1, row("b", 0), t0)
	tb.Upsert(20, 2, row("a", 0), t0)
	tb.Upsert(30, 3, row("c", time.Second), t0)

	if tb.Remove(1, "zz") || tb.Remove(99, "a") {
		t.Fatal("Remove reported a row that was never there")
	}
	if !tb.Remove(1, "b") || tb.Len() != 3 {
		t.Fatalf("Remove(1,b): entries=%d, want 3", tb.Len())
	}
	ops := tb.Scrub("a")
	if len(ops) != 2 {
		t.Fatalf("Scrub(a) returned %d ops, want 2", len(ops))
	}
	for _, op := range ops {
		if !op.Unregister || op.Holder.Addr != "a" || op.Key != uint64(op.Seq)*10 {
			t.Fatalf("scrub op %+v", op)
		}
	}
	if tb.Len() != 1 {
		t.Fatalf("scrubbed entries not dropped: %d left, want 1", tb.Len())
	}
	if n := tb.Prune(t0.Add(500 * time.Millisecond)); n != 0 || tb.Len() != 1 {
		t.Fatalf("Prune before the lease lapsed dropped %d rows", n)
	}
	if n := tb.Prune(t0.Add(2 * time.Second)); n != 1 || tb.Len() != 0 {
		t.Fatalf("Prune after the lease lapsed: dropped %d, entries %d", n, tb.Len())
	}
}

// TestTableTake: Take exports and deletes exactly the entries keep
// rejects, rows and keys intact.
func TestTableTake(t *testing.T) {
	tb := New(0, Budget{}, nil)
	for seq := int64(1); seq <= 6; seq++ {
		tb.Upsert(uint64(seq), seq, Row{Ent: wire.Entry{Addr: "a"}, UpBps: seq, Expire: t0.Add(time.Minute)}, t0)
	}
	taken := tb.Take(func(key uint64) bool { return key%2 == 0 })
	if len(taken) != 3 || tb.Len() != 3 {
		t.Fatalf("took %d, left %d; want 3 and 3", len(taken), tb.Len())
	}
	for _, e := range taken {
		if e.Key%2 == 0 || e.Key != uint64(e.Seq) || len(e.Rows) != 1 || e.Rows[0].UpBps != e.Seq {
			t.Fatalf("taken entry %+v", e)
		}
		ops := e.Ops(t0)
		if len(ops) != 1 || ops[0].TTLMillis != 60_000 || ops[0].Key != e.Key || ops[0].Holder.Addr != "a" {
			t.Fatalf("ops %+v", ops)
		}
	}
	if rest := tb.Take(nil); len(rest) != 3 || tb.Len() != 0 {
		t.Fatalf("Take(nil) took %d, left %d", len(rest), tb.Len())
	}
}

// answered reports the answer already sent to w, if any.
func answered(w *Waiter) ([]wire.Entry, bool) {
	select {
	case provs := <-w.C:
		return provs, true
	default:
		return nil, false
	}
}

// TestTableParkAndWake: a lookup parks on an empty (or fully excluded)
// entry; only a new provider answers it, not a refresh; an Unpark after the
// answer was claimed returns it; and the entry a timed-out lookup made
// leaves with it.
func TestTableParkAndWake(t *testing.T) {
	tb := New(0, Budget{}, nil)
	provs, _, w, _ := tb.Select(1, 7, 3, t0)
	if len(provs) != 0 || w == nil || tb.Len() != 1 {
		t.Fatalf("empty select: provs=%v waiter=%v entries=%d", provs, w, tb.Len())
	}
	if n := tb.Prune(t0); n != 0 || tb.Len() != 1 {
		t.Fatal("Prune dropped an entry with a parked lookup")
	}
	if provs := tb.Unpark(7, w); provs != nil || tb.Len() != 0 {
		t.Fatalf("Unpark of a queued waiter: %v, entries=%d; want nothing and 0", names(provs), tb.Len())
	}

	_, _, w, _ = tb.Select(1, 7, 3, t0)
	_, _, w2, _ := tb.Select(1, 7, 1, t0)
	tb.Upsert(1, 7, row("a", 0), t0)
	a, _ := answered(w)
	a2, _ := answered(w2)
	if fmt.Sprint(names(a), names(a2)) != "[a] [a]" {
		t.Fatalf("the first provider did not answer every parked lookup: %v %v", names(a), names(a2))
	}
	w.Release()
	w2.Release()

	// A claimed answer survives an Unpark that races the receive.
	_, _, w, _ = tb.Select(1, 8, 3, t0)
	tb.Upsert(1, 8, row("b", 0), t0)
	if provs := tb.Unpark(8, w); fmt.Sprint(names(provs)) != "[b]" {
		t.Fatalf("Unpark after the answer was claimed: %v, want [b]", names(provs))
	}

	// Everything registered is excluded: park like an empty entry.
	tb = New(0, Budget{}, func(addr string) bool { return addr == "a" })
	tb.Upsert(1, 7, row("a", 0), t0)
	_, _, w, _ = tb.Select(1, 7, 3, t0)
	if w == nil {
		t.Fatal("a fully excluded entry did not park")
	}
	tb.Upsert(1, 7, row("a", time.Hour), t0)
	if _, ok := answered(w); ok {
		t.Fatal("a refresh answered the parked lookup")
	}
	tb.Upsert(1, 7, row("b", 0), t0)
	if a, _ := answered(w); fmt.Sprint(names(a)) != "[b]" {
		t.Fatalf("a new provider answered %v, want [b]", names(a))
	}
	w.Release()

	// A lookup parked on an entry that is taken away stays parked, and its
	// entry leaves with it.
	tb.Upsert(2, 8, row("a", 0), t0)
	_, _, w, _ = tb.Select(2, 8, 3, t0)
	if taken := tb.Take(nil); len(taken) != 2 || tb.Len() != 1 {
		t.Fatalf("take: %d taken, entries=%d; want 2, the parked one", len(taken), tb.Len())
	}
	if _, ok := answered(w); ok {
		t.Fatal("a take answered the parked lookup")
	}
	tb.Unpark(8, w)
	if tb.Len() != 0 {
		t.Fatalf("%d entries left", tb.Len())
	}
}

// TestTableSelectPrunesLapsedLeases: a lapsed lease never appears in an
// answer, and the drop is reported.
func TestTableSelectPrunesLapsedLeases(t *testing.T) {
	tb := New(0, Budget{}, nil)
	tb.Upsert(1, 7, row("dead", time.Second), t0)
	tb.Upsert(1, 7, row("alive", time.Minute), t0)
	provs, expired, _, _ := tb.Select(1, 7, 3, t0.Add(2*time.Second))
	if expired != 1 || len(provs) != 1 || provs[0].Addr != "alive" {
		t.Fatalf("provs=%v expired=%d", provs, expired)
	}
}

// TestTableDigestsAndReconcile: a replica that reconciles against the
// owner's digests drops what they no longer mention and asks for what is
// missing or differs — and for nothing once it matches.
func TestTableDigestsAndReconcile(t *testing.T) {
	owner, replica := New(0, Budget{}, nil), New(0, Budget{}, nil)
	owner.Upsert(1, 1, row("a", 0), t0)
	owner.Upsert(2, 2, row("a", 0), t0)
	owner.Upsert(2, 2, row("b", 0), t0)
	owner.Upsert(3, 3, row("c", 0), t0) // not owned: never digested
	replica.Upsert(1, 1, row("a", time.Hour), t0)
	replica.Upsert(2, 2, row("a", 0), t0) // diverged: b is missing
	replica.Upsert(9, 9, row("z", 0), t0) // the owner dropped it

	digests := owner.Digests(func(key uint64) bool { return key != 3 })
	if len(digests) != 2 || digests[0].Seq != 1 || digests[1].Seq != 2 {
		t.Fatalf("digests %+v, want seqs 1 and 2 in order", digests)
	}
	need := replica.Reconcile(digests, t0)
	if len(need) != 1 || need[0] != 2 {
		t.Fatalf("need %v, want [2]", need)
	}
	if len(replica.Get(9).Rows) != 0 {
		t.Fatal("an entry the owner no longer mentions survived")
	}
	for _, op := range owner.Get(2).Ops(t0) {
		replica.Upsert(op.Key, op.Seq, Row{Ent: op.Holder, Expire: Restamp(op.TTLMillis, t0)}, t0)
	}
	if need := replica.Reconcile(digests, t0); len(need) != 0 {
		t.Fatalf("still need %v after the repair", need)
	}
}

// TestTableHashSemantics pins the digest hash: order-insensitive,
// lease-insensitive, membership-sensitive.
func TestTableHashSemantics(t *testing.T) {
	a := Row{Ent: wire.Entry{ID: 1, Addr: "mem://a"}, Expire: t0}
	b := Row{Ent: wire.Entry{ID: 2, Addr: "mem://b"}}
	h1 := hashRows([]Row{a, b})
	if hashRows([]Row{b, a}) != h1 {
		t.Fatal("hash is order-sensitive")
	}
	a2 := a
	a2.Expire = t0.Add(time.Hour)
	if hashRows([]Row{a2, b}) != h1 {
		t.Fatal("hash is lease-sensitive: every refresh would force a repair")
	}
	if hashRows([]Row{a}) == h1 {
		t.Fatal("hash ignores membership")
	}
	// Concatenations stay apart: {"ab"} vs {"a","b"}.
	x := hashRows([]Row{{Ent: wire.Entry{Addr: "ab"}}})
	y := hashRows([]Row{{Ent: wire.Entry{Addr: "a"}}, {Ent: wire.Entry{Addr: "b"}}})
	if x == y {
		t.Fatal("hash is concatenation-ambiguous")
	}
}

// TestTableTTLWireRoundTrip pins the relative-TTL discipline: deadlines
// never cross the wire as absolute times, and zero means no lease in both
// directions.
func TestTableTTLWireRoundTrip(t *testing.T) {
	if got := TTLMillis(time.Time{}, t0); got != 0 {
		t.Fatalf("zero deadline -> ttl %d, want 0", got)
	}
	if got := Restamp(0, t0); !got.IsZero() {
		t.Fatalf("ttl 0 -> deadline %v, want zero", got)
	}
	if ttl := TTLMillis(t0.Add(5*time.Second), t0); ttl != 5000 || !Restamp(ttl, t0).Equal(t0.Add(5*time.Second)) {
		t.Fatalf("5s lease -> ttl %dms -> %v", ttl, Restamp(ttl, t0))
	}
	if got := TTLMillis(t0.Add(-time.Second), t0); got != 1 {
		t.Fatalf("expired-in-flight lease -> ttl %d, want 1", got)
	}
	if got := TTLMillis(t0.Add(1000*time.Hour), t0); got != 1<<31 {
		t.Fatalf("far deadline -> ttl %d, want the 1<<31 clamp", got)
	}
}

// TestTableConcurrentUse drives every method from several goroutines at
// once; the race detector is the oracle.
func TestTableConcurrentUse(t *testing.T) {
	tb := New(4, budget, func(a string) bool { return a == "p3" })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			addr := fmt.Sprintf("p%d", g)
			for i := 0; i < 300; i++ {
				seq := int64(i % 16)
				now := t0.Add(time.Duration(i) * time.Millisecond)
				switch (g + i) % 8 {
				case 0, 1:
					r := row(addr, time.Second)
					r.UpBps = int64(g) * 80_000 // capped rows, and one unlimited
					tb.Upsert(uint64(seq), seq, r, now)
				case 2:
					if _, _, w, _ := tb.Select(uint64(seq), seq, 1+g%3, now); w != nil {
						tb.Unpark(seq, w)
					}
				case 3:
					tb.Remove(seq, addr)
				case 4:
					tb.Prune(now)
					tb.Scrub(addr)
				case 5:
					tb.Take(func(key uint64) bool { return key%4 != 0 })
				case 6:
					tb.Reconcile(tb.Digests(func(uint64) bool { return true }), now)
				case 7:
					tb.Get(seq)
					tb.Delete(seq)
					tb.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	tb.Take(nil)
	if tb.Len() != 0 {
		t.Fatalf("%d entries left after everything was taken and every lookup unparked", tb.Len())
	}
}

// TestTableSelectSkipsSaturatedProviders: while any provider is under the
// saturation threshold, saturated ones must not appear in the answer.
func TestTableSelectSkipsSaturatedProviders(t *testing.T) {
	tb, e := New(0, Budget{}, nil), &entry{}
	e.rows = []Row{
		{Ent: wire.Entry{Addr: "idle:1"}, LoadMilli: 100},
		{Ent: wire.Entry{Addr: "busy:1"}, LoadMilli: 2000},
		{Ent: wire.Entry{Addr: "idle:2"}, LoadMilli: 150},
	}
	got, _ := tb.pick(e, 3, t0)
	if len(got) != 2 {
		t.Fatalf("selected %d providers, want the 2 unsaturated ones: %v", len(got), got)
	}
	for _, pr := range got {
		if pr.Addr == "busy:1" {
			t.Fatal("saturated provider selected while unsaturated ones exist")
		}
	}
}

// TestTableSelectAllSaturatedDegrades: when every provider is saturated, the
// least-loaded ones are returned anyway — a degraded answer beats none.
func TestTableSelectAllSaturatedDegrades(t *testing.T) {
	tb, e := New(0, Budget{}, nil), &entry{}
	e.rows = []Row{
		{Ent: wire.Entry{Addr: "busy:1"}, LoadMilli: 3000},
		{Ent: wire.Entry{Addr: "busy:2"}, LoadMilli: 1500},
	}
	got, _ := tb.pick(e, 3, t0)
	if len(got) != 2 {
		t.Fatalf("selected %d providers, want 2", len(got))
	}
	if got[0].Addr != "busy:2" {
		t.Fatalf("least-loaded saturated provider not first: %v", got)
	}
}

// TestTableSelectCohortRotation: comparably idle providers are rotated through
// across successive lookups, so a flash crowd is spread instead of herded
// onto one report.
func TestTableSelectCohortRotation(t *testing.T) {
	tb, e := New(0, Budget{}, nil), &entry{}
	e.rows = []Row{
		{Ent: wire.Entry{Addr: "a"}},
		{Ent: wire.Entry{Addr: "b"}},
		{Ent: wire.Entry{Addr: "c"}},
	}
	seen := make(map[string]bool)
	for i := 0; i < 3; i++ {
		got, _ := tb.pick(e, 1, t0)
		if len(got) != 1 {
			t.Fatalf("selected %d providers, want 1", len(got))
		}
		seen[got[0].Addr] = true
	}
	if len(seen) != 3 {
		t.Fatalf("3 single-provider answers landed on %d distinct providers, want 3 (rotation)", len(seen))
	}
}

// TestTableSelectExplorationEscapesIdleCohort: when stale-idle providers (the
// gray-failure zombie shape: accept work, never finish it, keep honestly
// advertising load 0) fill the low-load cohort, the answer's last slot
// must still rotate across the rest of the registered set — otherwise
// three zombies capture every answer forever.
func TestTableSelectExplorationEscapesIdleCohort(t *testing.T) {
	tb, e := New(0, Budget{}, nil), &entry{}
	e.rows = []Row{
		{Ent: wire.Entry{Addr: "zombie:1"}},
		{Ent: wire.Entry{Addr: "zombie:2"}},
		{Ent: wire.Entry{Addr: "zombie:3"}},
		{Ent: wire.Entry{Addr: "healthy:1"}, LoadMilli: 800},
		{Ent: wire.Entry{Addr: "healthy:2"}, LoadMilli: 800},
	}
	seenHealthy := make(map[string]bool)
	for i := 0; i < 4; i++ {
		got, _ := tb.pick(e, 3, t0)
		if len(got) != 3 {
			t.Fatalf("selected %d providers, want 3: %v", len(got), got)
		}
		for _, pr := range got[:2] {
			if pr.Addr == "healthy:1" || pr.Addr == "healthy:2" {
				t.Fatalf("cohort slots leaked outside the idle cohort: %v", got)
			}
		}
		a := got[2].Addr
		if a != "healthy:1" && a != "healthy:2" {
			t.Fatalf("exploration slot stayed inside the idle cohort: %v", got)
		}
		seenHealthy[a] = true
	}
	if len(seenHealthy) != 2 {
		t.Fatalf("4 answers explored %d distinct loaded providers, want both", len(seenHealthy))
	}
}

// budget caps a row at UpBps/80,000 handouts (one chunk of 8,000 bits a
// 100-ms period) that lapse after 700 ms.
var budget = Budget{Period: 100 * time.Millisecond, ChunkBits: 8000, Lapse: 700 * time.Millisecond}

func finite(addr string, upBps int64) Row {
	return Row{Ent: wire.Entry{Addr: addr}, UpBps: upBps}
}

func names(provs []wire.Entry) (out []string) {
	for _, p := range provs {
		out = append(out, p.Addr)
	}
	return out
}

// TestTableCapHoldsUntilANewHolder: a row is named only while fewer answers
// are unsettled than its uplink serves in one period, and each new holder
// settles one of them.
func TestTableCapHoldsUntilANewHolder(t *testing.T) {
	tb := New(0, budget, nil)
	tb.Upsert(1, 7, finite("src", 160_000), t0) // cap 2
	for i := 0; i < 2; i++ {
		if provs, _, w, _ := tb.Select(1, 7, 3, t0); len(provs) != 1 || w != nil {
			t.Fatalf("answer %d under the cap: %v", i, names(provs))
		}
	}
	provs, _, w, reopen := tb.Select(1, 7, 3, t0)
	if len(provs) != 0 || w == nil || reopen.IsZero() {
		t.Fatalf("third answer at cap 2: provs=%v waiter=%v reopen=%v", names(provs), w, reopen)
	}
	tb.Upsert(1, 7, finite("v1", 80_000), t0) // settles one; cap 1
	// Both rows are under their caps now: the held lookup gets both, and
	// both are charged.
	if a, _ := answered(w); len(a) != 2 {
		t.Fatalf("a new holder answered the held lookup with %v, want src and v1", names(a))
	}
	w.Release()
	provs, _, w, _ = tb.Select(1, 7, 3, t0)
	if len(provs) != 0 || w == nil {
		t.Fatalf("both rows back at their caps, yet answered %v", names(provs))
	}
	tb.Unpark(7, w)
}

// TestTableRefreshSettlesNothing: only a holder the entry did not have
// settles a handout; a known holder's refresh does not.
func TestTableRefreshSettlesNothing(t *testing.T) {
	tb := New(0, budget, nil)
	tb.Upsert(1, 7, finite("src", 80_000), t0) // cap 1
	if provs, _, _, _ := tb.Select(1, 7, 3, t0); len(provs) != 1 {
		t.Fatalf("first answer: %v", names(provs))
	}
	r := finite("src", 80_000)
	r.Expire = t0.Add(time.Minute)
	if added, ok := tb.Upsert(1, 7, r, t0); added || !ok {
		t.Fatalf("refresh: added=%v ok=%v", added, ok)
	}
	provs, _, w, _ := tb.Select(1, 7, 3, t0)
	if len(provs) != 0 || w == nil {
		t.Fatalf("a refresh settled a handout: answered %v", names(provs))
	}
	tb.Unpark(7, w)
}

// TestTableLapseReopensTheRow: an unsettled handout stops counting after
// Lapse, and the held lookup is told when.
func TestTableLapseReopensTheRow(t *testing.T) {
	tb := New(0, budget, nil)
	tb.Upsert(1, 7, finite("src", 80_000), t0)
	tb.Select(1, 7, 3, t0)
	at := t0.Add(300 * time.Millisecond)
	_, _, w, reopen := tb.Select(1, 7, 3, at)
	tb.Unpark(7, w)
	if want := t0.Add(budget.Lapse); !reopen.Equal(want) {
		t.Fatalf("reopen = %v, want the handout's lapse %v", reopen, want)
	}
	provs, _, w, _ := tb.Select(1, 7, 3, reopen.Add(-time.Nanosecond))
	if len(provs) != 0 {
		t.Fatalf("answered %v before the lapse", names(provs))
	}
	tb.Unpark(7, w)
	if provs, _, _, _ := tb.Select(1, 7, 3, reopen); len(provs) != 1 {
		t.Fatalf("the lapse did not reopen the row: %v", names(provs))
	}
}

// TestTableUnlimitedRowIsNeverCapped: a row advertising no bandwidth, and
// any row of a table with the zero Budget, is named on every answer and
// charged nothing.
func TestTableUnlimitedRowIsNeverCapped(t *testing.T) {
	capped, open := New(0, budget, nil), New(0, Budget{}, nil)
	capped.Upsert(1, 7, finite("any", 0), t0)
	open.Upsert(1, 7, finite("src", 80_000), t0)
	for i := 0; i < 100; i++ {
		for _, tb := range []*Table{capped, open} {
			if provs, _, w, _ := tb.Select(1, 7, 3, t0); len(provs) != 1 || w != nil {
				t.Fatalf("answer %d: %v", i, names(provs))
			}
		}
	}
	for _, tb := range []*Table{capped, open} {
		if out := tb.entries[7].out; out != nil {
			t.Fatalf("an uncapped row was charged %d handouts", len(out))
		}
	}
}

// TestTableEveryRowAtCapParks: when the rows left after exclusion are all at
// their caps, Select parks and reports the earliest lapse; a row that is only
// excluded reports none.
func TestTableEveryRowAtCapParks(t *testing.T) {
	tb := New(0, budget, nil)
	tb.Upsert(1, 7, finite("a", 80_000), t0)
	tb.Upsert(1, 7, finite("b", 80_000), t0)
	tb.Select(1, 7, 1, t0)                           // a, lapsing at t0+700ms
	tb.Select(1, 7, 1, t0.Add(100*time.Millisecond)) // b, at t0+800ms
	provs, _, w, reopen := tb.Select(1, 7, 3, t0.Add(200*time.Millisecond))
	if len(provs) != 0 || w == nil {
		t.Fatalf("every row at cap, yet answered %v", names(provs))
	}
	if want := t0.Add(budget.Lapse); !reopen.Equal(want) {
		t.Fatalf("reopen = %v, want the earliest lapse %v", reopen, want)
	}
	tb.Unpark(7, w)
	tb = New(0, budget, func(string) bool { return true })
	tb.Upsert(2, 8, finite("a", 80_000), t0)
	_, _, w, reopen = tb.Select(2, 8, 3, t0)
	if w == nil || !reopen.IsZero() {
		t.Fatalf("an excluded row: waiter=%v reopen=%v, want a park with no lapse", w, reopen)
	}
	tb.Unpark(8, w)
}

// TestTableSelectAllocatesOnlyItsAnswer: an answered Select allocates the
// answer and nothing else — pick's candidates and counts live in the
// table's scratch — and so does a lookup that parks, is answered by an
// Upsert and is received: the waiter and its channel are recycled, and the
// pass's send list is threaded through the waiters.
func TestTableSelectAllocatesOnlyItsAnswer(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	quarantined := func(addr string) bool { return addr == "p1" }
	tb := New(0, budget, quarantined)
	for i := 0; i < 6; i++ {
		tb.Upsert(1, 7, Row{Ent: wire.Entry{Addr: fmt.Sprintf("p%d", i)}, LoadMilli: uint32(i * 200)}, t0)
	}
	if n := testing.AllocsPerRun(100, func() { tb.Select(1, 7, 3, t0) }); n != 1 {
		t.Fatalf("Select allocated %v objects per answer, want 1", n)
	}

	tb = New(0, budget, func(addr string) bool { return addr == "x" })
	tb.Upsert(1, 7, Row{Ent: wire.Entry{Addr: "x"}}, t0) // keeps the entry, answers nothing
	p := Row{Ent: wire.Entry{Addr: "p"}}
	cycle := func() {
		_, _, w, _ := tb.Select(1, 7, 3, t0)
		tb.Upsert(1, 7, p, t0)
		if a := <-w.C; len(a) != 1 {
			t.Fatalf("answer %v, want [p]", names(a))
		}
		w.Release()
		tb.Remove(7, "p")
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 1 {
		t.Fatalf("a park, answer and receive allocated %v objects, want 1", n)
	}
}

// cohortTable builds the same random table for a seed every time: rows with
// random bandwidths, loads, leases and exclusions, some answers already
// handed out, and the clock at which a cohort then parks on it.
func cohortTable(seed int64) (tb *Table, now time.Time) {
	rng := rand.New(rand.NewSource(seed))
	excluded := map[string]bool{}
	tb = New(0, budget, func(addr string) bool { return excluded[addr] })
	now = t0
	for i, n := 0, rng.Intn(7); i < n; i++ {
		r := finite(fmt.Sprintf("r%d", i), []int64{0, 80_000, 160_000, 240_000}[rng.Intn(4)])
		r.LoadMilli = []uint32{0, 100, 500, 900, 1200}[rng.Intn(5)]
		if rng.Intn(4) == 0 {
			r.Expire = t0.Add(time.Duration(1+rng.Intn(1500)) * time.Millisecond)
		}
		if r.UpBps == 0 || rng.Intn(5) == 0 {
			excluded[r.Ent.Addr] = true // an open row would never let a lookup park
		}
		tb.Upsert(1, 7, r, now)
	}
	for i, n := 0, rng.Intn(6); i < n; i++ {
		now = now.Add(time.Duration(rng.Intn(200)) * time.Millisecond)
		if _, _, w, _ := tb.Select(1, 7, 1+rng.Intn(4), now); w != nil {
			tb.Unpark(7, w)
		}
	}
	return tb, now
}

// TestTableCohortAnswersMatchSequentialSelects is the pass's property: a
// cohort of k waiters answered by one Upsert gets exactly what k Selects in
// turn would get once the row is in — the same providers in the same
// order (the handout FIFO, the rotation cursor and the exploration pick
// all move as they would), an empty answer for a waiter held at a cap its
// park did not report, and the same table afterwards.
func TestTableCohortAnswersMatchSequentialSelects(t *testing.T) {
	parked, outcomes := 0, [3]int{} // answered, told its cap, left parked
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(^seed))
		k := 1 + rng.Intn(6)
		maxes := make([]int, k)
		for i := range maxes {
			maxes[i] = 1 + rng.Intn(4)
		}
		cohort, now := cohortTable(seed)
		serial, _ := cohortTable(seed)
		var ws []*Waiter
		told := make([]bool, k)
		for i, m := range maxes {
			provs, _, w, reopen := cohort.Select(1, 7, m, now)
			if w == nil {
				break // the table answers without parking: no cohort
			}
			_, _, w2, _ := serial.Select(1, 7, m, now)
			serial.Unpark(7, w2)
			if len(provs) != 0 {
				t.Fatalf("seed %d: a parked Select answered %v", seed, names(provs))
			}
			ws, told[i] = append(ws, w), !reopen.IsZero()
		}
		if len(ws) < k {
			for _, w := range ws {
				cohort.Unpark(7, w)
			}
			continue
		}
		parked++
		at := now.Add(time.Duration(rng.Intn(900)) * time.Millisecond)
		r := finite("new", []int64{0, 80_000, 160_000}[rng.Intn(3)])
		r.LoadMilli = []uint32{0, 400, 1100}[rng.Intn(3)]
		cohort.Upsert(1, 7, r, at)
		serial.Upsert(1, 7, r, at)
		for i, w := range ws {
			want, _, w2, reopen := serial.Select(1, 7, maxes[i], at)
			if w2 != nil {
				serial.Unpark(7, w2)
			}
			got, ok := answered(w)
			switch {
			case len(want) > 0:
				outcomes[0]++
				if !ok || fmt.Sprint(names(got)) != fmt.Sprint(names(want)) {
					t.Fatalf("seed %d waiter %d: answered %v (ok=%v), Select in turn %v", seed, i, names(got), ok, names(want))
				}
			case !reopen.IsZero() && !told[i]:
				outcomes[1]++
				if !ok || len(got) != 0 {
					t.Fatalf("seed %d waiter %d: answered %v (ok=%v), want an empty answer: look again", seed, i, names(got), ok)
				}
			case ok:
				t.Fatalf("seed %d waiter %d: answered %v, Select in turn would park", seed, i, names(got))
			default:
				outcomes[2]++
			}
			if ok {
				w.Release()
			} else {
				cohort.Unpark(7, w)
			}
		}
		for i := 0; i < 3; i++ {
			later := at.Add(time.Duration(i) * 300 * time.Millisecond)
			a, _, wa, _ := cohort.Select(1, 7, 2, later)
			b, _, wb, _ := serial.Select(1, 7, 2, later)
			if fmt.Sprint(names(a)) != fmt.Sprint(names(b)) {
				t.Fatalf("seed %d: the tables part after the cohort: %v vs %v", seed, names(a), names(b))
			}
			if wa != nil {
				cohort.Unpark(7, wa)
				serial.Unpark(7, wb)
			}
		}
	}
	if parked < 100 || outcomes[0] == 0 || outcomes[1] == 0 || outcomes[2] == 0 {
		t.Fatalf("%d of 400 tables let a whole cohort park; waiters answered, told their cap, left parked: %v", parked, outcomes)
	}
	t.Logf("%d cohorts; waiters answered, told their cap, left parked: %v", parked, outcomes)
}

// TestTableCohortStorm races parks, Unparks and Upserts on a few seqs: every
// answer a lookup receives, from C or from Unpark, names providers of its
// own seq (a recycled waiter never hears an answer meant for another), no
// claimed answer is lost (Unpark would block on it), and once every row is
// taken no waiter is left queued.
func TestTableCohortStorm(t *testing.T) {
	tb := New(3, budget, nil)
	const seqs = 4
	var fromC, fromUnpark atomic.Int64
	stop := make(chan struct{})
	var writers, lookups sync.WaitGroup
	for g := 0; g < 3; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// A row comes and goes, so lookups find the entry empty,
				// capped or answerable.
				seq := int64(i % seqs)
				addr := fmt.Sprintf("s%d-p%d", seq, g)
				tb.Upsert(uint64(seq), seq, Row{Ent: wire.Entry{Addr: addr}, UpBps: int64(i%2) * 80_000}, t0.Add(time.Duration(i)*time.Millisecond))
				runtime.Gosched()
				tb.Remove(seq, addr)
			}
		}(g)
	}
	for g := 0; g < 6; g++ {
		lookups.Add(1)
		go func(g int) {
			defer lookups.Done()
			for i := 0; i < 400; i++ {
				seq := int64((g + i) % seqs)
				check := func(provs []wire.Entry) {
					for _, p := range provs {
						if !strings.HasPrefix(p.Addr, fmt.Sprintf("s%d-", seq)) {
							t.Errorf("a lookup for seq %d was answered %s", seq, p.Addr)
						}
					}
				}
				provs, _, w, _ := tb.Select(uint64(seq), seq, 1+i%3, t0.Add(time.Duration(i)*time.Millisecond))
				check(provs)
				if w == nil {
					continue
				}
				if i%2 == 0 {
					select {
					case a := <-w.C:
						check(a)
						w.Release()
						fromC.Add(1)
						continue
					case <-time.After(time.Duration(i%3) * time.Millisecond):
					}
				}
				provs = tb.Unpark(seq, w)
				if provs != nil {
					fromUnpark.Add(1)
				}
				check(provs)
			}
		}(g)
	}
	lookups.Wait()
	close(stop)
	writers.Wait()
	tb.Take(nil)
	if tb.Len() != 0 {
		t.Fatalf("%d entries left after every lookup ended and every row was taken", tb.Len())
	}
	if fromC.Load() == 0 {
		t.Fatal("no parked lookup was answered by an Upsert: the storm raced nothing")
	}
	t.Logf("answers received on C: %d, claimed ones returned by Unpark: %d", fromC.Load(), fromUnpark.Load())
}
