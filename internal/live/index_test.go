package live

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"dco/internal/dht"
	"dco/internal/index"
	"dco/internal/wire"
)

// TestIndexEntriesStayWithinTheWindow: a coordinator of a long stream with
// a sliding window holds entries for about a window's worth of seqs, not
// for every seq a viewer ever looked up.
func TestIndexEntriesStayWithinTheWindow(t *testing.T) {
	const seqs, window = 2000, 64
	cfg := fastConfig()
	cfg.Channel.ChunkBits = 8 * 64
	cfg.Channel.Period = 2 * time.Millisecond
	cfg.Channel.Count = seqs
	cfg.FetchDeadlineChunks = window
	cfg.InsertRate = -1 // 500 chunks/s is far past any real holder's rate
	cfg.AntiEntropyEvery = 200 * time.Millisecond
	s := testSwarm(t, SwarmSpec{N: 3, Base: cfg})
	for _, nd := range s.Nodes {
		nd.window = window
	}
	if err := s.Up(); err != nil {
		t.Fatal(err)
	}

	await(t, s, 60*time.Second, "the source to generate the whole stream", func() bool {
		return s.Source().LatestGenerated() == seqs-1
	})
	entries := func() (sum int) {
		for i := range s.Nodes {
			sum += int(s.Registry(i).Snapshot().Gauges["dco_live_index_entries"])
		}
		return sum
	}
	// Each node registers at most a window of seqs, wherever it stands in
	// the stream; a lagging viewer's parked lookups add a handful.
	await(t, s, 15*time.Second, "index entries to settle at O(window)", func() bool {
		return entries() <= len(s.Nodes)*window+16
	})
	if SumStats(s.Viewers()).ChunksFetched < seqs/2 {
		t.Fatalf("viewers fetched %d chunks: too few lookups for the bound to mean anything", SumStats(s.Viewers()).ChunksFetched)
	}
}

// TestParkedLookupCountedOnce: a lookup that parks and is released by an
// Insert is one lookup served, however often it woke up.
func TestParkedLookupCountedOnce(t *testing.T) {
	n := soloNode(t, fastConfig())
	key := uint64(n.cfg.Channel.Ref(5).ID())
	answer := make(chan wire.Message, 1)
	go func() { answer <- n.onLookup(&wire.Lookup{Key: key, Seq: 5, MaxWait: 10_000}) }()
	waitFor(t, 5*time.Second, "the lookup to park", func() bool { return n.idx.Len() == 1 })
	n.onInsert(&wire.Insert{Key: key, Seq: 5, Holder: wire.Entry{ID: 1, Addr: "mem://p"}})
	if lr, ok := (<-answer).(*wire.LookupResp); !ok || len(lr.Providers) != 1 {
		t.Fatalf("released lookup answered %#v", lr)
	}
	if got := n.Stats().LookupsServed; got != 1 {
		t.Fatalf("LookupsServed = %d, want 1", got)
	}
}

// TestFullBatchRespectsProviderCap: a Full batch of 1,000 rows for one seq
// cannot grow the replica past MaxProvidersPerSeq, nor the owned entry when
// the replica is promoted, and what it filled still refreshes.
func TestFullBatchRespectsProviderCap(t *testing.T) {
	cfg := fastConfig()
	cfg.MaxProvidersPerSeq = 8
	n := soloNode(t, cfg)
	key := uint64(n.cfg.Channel.Ref(5).ID())
	owner := wire.Entry{ID: 1, Addr: "mem://leaver"}
	batch := &wire.ReplicateBatch{Owner: owner, Full: true}
	for i := 0; i < 1000; i++ {
		holder := wire.Entry{ID: uint64(i), Addr: fmt.Sprintf("mem://spam/%d", i)}
		batch.Ops = append(batch.Ops, wire.ReplicaOp{Key: key, Seq: 5, Holder: holder, TTLMillis: 45_000})
	}
	// A batch that names another owner lands in that owner's replica slice.
	if _, ok := n.onReplicateBatch(batch).(*wire.Ack); !ok {
		t.Fatal("batch not acknowledged")
	}
	if rows := replicaSlice(n, owner.Addr).Get(5).Rows; len(rows) != cfg.MaxProvidersPerSeq {
		t.Fatalf("the replica holds %d rows, want the cap %d", len(rows), cfg.MaxProvidersPerSeq)
	}
	n.custody(dht.Member{})
	rows := n.idx.Get(5).Rows
	if len(rows) != cfg.MaxProvidersPerSeq {
		t.Fatalf("promotion left %d rows, want the cap %d", len(rows), cfg.MaxProvidersPerSeq)
	}
	if _, ok := n.onInsert(&wire.Insert{Key: key, Seq: 5, Holder: rows[0].Ent, UpBps: 1}).(*wire.Ack); !ok {
		t.Fatal("refresh of a promoted provider refused at the cap")
	}
	if _, ok := n.onInsert(&wire.Insert{Key: key, Seq: 5, Holder: wire.Entry{Addr: "mem://new"}}).(*wire.Error); !ok {
		t.Fatal("new provider accepted past the cap")
	}
}

// TestServeNeverWaitsOnIndexWork: with a lookup parked, an insert storm
// queued and every lock of the index side held, the buffer's serve path
// still completes — it takes nothing the index holds.
func TestServeNeverWaitsOnIndexWork(t *testing.T) {
	n := soloNode(t, fastConfig())
	data := MakeChunkPayload(n.cfg.Channel, 1)
	n.mu.Lock()
	n.chunks[1] = data
	n.mu.Unlock()
	key := func(seq int64) uint64 { return uint64(n.cfg.Channel.Ref(seq).ID()) }

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		n.onLookup(&wire.Lookup{Key: key(9), Seq: 9, MaxWait: 10_000})
	}()
	waitFor(t, 5*time.Second, "the lookup to park", func() bool { return n.idx.Len() == 1 })

	// Hold the table's lock from inside a Digests (the owns predicate runs
	// under it), and the other index-side locks directly.
	n.idx.Upsert(key(7), 7, index.Row{Ent: wire.Entry{Addr: "mem://p"}}, time.Now())
	inside, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	wg.Add(1)
	go func() {
		defer wg.Done()
		n.idx.Digests(func(uint64) bool {
			once.Do(func() { close(inside) })
			<-release
			return false
		})
	}()
	<-inside
	n.replicas.mu.Lock()
	n.replq.mu.Lock()
	n.guard.mu.Lock()
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n.onInsert(&wire.Insert{Key: key(9), Seq: 9, Holder: wire.Entry{ID: uint64(i), Addr: "mem://storm"}})
		}(i)
	}

	served := make(chan bool, 1)
	go func() {
		cr, _ := n.onGetChunk(&wire.GetChunk{Seq: 1}).(*wire.ChunkResp)
		served <- n.HasChunk(1) && n.ChunkCount() == 1 && cr != nil && cr.OK
	}()
	select {
	case ok := <-served:
		if !ok {
			t.Error("the serve path did not serve the buffered chunk")
		}
	case <-time.After(5 * time.Second):
		t.Error("the serve path waited on a lock the index side holds")
	}
	n.guard.mu.Unlock()
	n.replq.mu.Unlock()
	n.replicas.mu.Unlock()
	close(release)
	wg.Wait() // the storm's insert releases the parked lookup
}

// TestProviderRowsLiveInTheIndexPackage keeps the next handler from growing
// its own provider set again: internal/index is the only place that holds
// provider rows or searches them by address.
func TestProviderRowsLiveInTheIndexPackage(t *testing.T) {
	providerRows := regexp.MustCompile(`\.providers\b|\[\]index\.Row|[eE]nt\.Addr ==`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if m := providerRows.Find(src); m != nil {
			t.Errorf("%s contains %q: provider rows belong to index.Table", name, m)
		}
	}
}

// TestRangeChangeBatchIsSentEvenEmpty: ceding a range calls the new owner
// whether or not an entry moved — the call is what finds out that a member
// announcing itself cannot actually be reached — and the empty batch leaves
// the new owner holding nothing for the sender.
func TestRangeChangeBatchIsSentEvenEmpty(t *testing.T) {
	s := testSwarm(t, SwarmSpec{N: 2, Base: fastConfig()})
	a, b := s.Nodes[0], s.Nodes[1]
	a.onKernRangeChanged(dht.Member{ID: b.ID(), Addr: b.Addr()})
	// Neither node runs maintenance: the one batch a delivered is this one.
	waitFor(t, 5*time.Second, "the empty batch to be acknowledged", func() bool { return a.lm.ReplicateBatches.Value() == 1 })
	if owners, _ := b.ReplicaCounts(); owners != 0 || replicaSlice(b, a.Addr()) != nil {
		t.Fatalf("the empty batch left %d replica slices at the new owner", owners)
	}

	// To a member that cannot be reached, the call fails — which is the
	// evidence the breaker and the kernel's purge act on.
	a.onKernRangeChanged(dht.Member{ID: 1, Addr: "mem://unreachable"})
	waitFor(t, 5*time.Second, "the batch to the unreachable owner to be tried and retried", func() bool {
		return a.Stats().CallRetries > 0
	})
}
