package live

import (
	"net/http/httptest"
	"testing"
	"time"

	"dco/internal/telemetry"
)

// TestKademliaSwarmScrapeMidStream is the Kademlia twin of
// TestSwarmScrapeMidStream: a live swarm streams end-to-end with the
// Kademlia backend pinned (regardless of DCO_DHT), and a mid-stream
// scrape of a viewer's registry shows the backend-specific telemetry —
// the lookup-hop histogram, the alpha-parallelism in-flight gauge, and
// the k-bucket occupancy gauges — alongside the backend-neutral live
// metrics. This is the golden-output check for the PR 7 telemetry
// satellite: if a metric is renamed or silently stops moving, this
// fails, not a dashboard.
func TestKademliaSwarmScrapeMidStream(t *testing.T) {
	cfg := fastConfig()
	cfg.DHT = "kademlia"
	cfg.Channel.Count = 40
	vtr := telemetry.NewTrace(1024)
	s := upSwarm(t, SwarmSpec{N: 2, Base: cfg, Tune: func(i int, cfg *Config) {
		if i == 1 {
			cfg.Trace = vtr
		}
	}})
	src, viewer := s.Nodes[0], s.Nodes[1]
	if got := src.DHTName(); got != "kademlia" {
		t.Fatalf("DHTName() = %q, want kademlia", got)
	}

	srv := httptest.NewServer(telemetry.Handler(s.Registry(1), vtr))
	defer srv.Close()

	waitFor(t, 30*time.Second, "kademlia viewer to buffer a few chunks", func() bool {
		return viewer.ChunkCount() >= 5
	})

	m := scrape(t, srv.URL+"/metrics")

	// Backend-neutral lookup telemetry: the hop histogram must exist and
	// must have recorded the viewer's provider lookups.
	if n := m["dco_dht_lookup_hops_count"]; n <= 0 {
		t.Fatalf("dco_dht_lookup_hops_count = %g, want > 0", n)
	}
	if _, ok := m[`dco_dht_lookup_hops_bucket{le="+Inf"}`]; !ok {
		t.Fatal("scrape missing dco_dht_lookup_hops buckets")
	}
	if n := m["dco_dht_lookups_total"]; n <= 0 {
		t.Fatalf("dco_dht_lookups_total = %g, want > 0", n)
	}

	// Kademlia-specific gauges: the in-flight gauge must be present (it
	// is 0 between lookups — presence is the contract), and the routing
	// table must show live contacts.
	if _, ok := m["dco_kad_inflight"]; !ok {
		t.Fatal("scrape missing dco_kad_inflight gauge")
	}
	if n := m["dco_kad_bucket_contacts"]; n <= 0 {
		t.Fatalf("dco_kad_bucket_contacts = %g, want > 0 (the viewer knows the source)", n)
	}
	if n := m["dco_kad_table_inserts_total"]; n <= 0 {
		t.Fatalf("dco_kad_table_inserts_total = %g, want > 0", n)
	}

	// The live plane's own metrics keep working under the swapped kernel.
	if n := m["dco_live_chunks_fetched_total"]; n < 5 {
		t.Fatalf("dco_live_chunks_fetched_total = %g, want >= 5", n)
	}
	if r := m["dco_transport_overhead_ratio"]; r <= 0 {
		t.Fatalf("overhead ratio = %g, want > 0", r)
	}

	// The trace recorded the kernel's routing decisions.
	if vtr.Count("lookup.route") == 0 {
		t.Fatal("trace has no lookup.route events from the kademlia kernel")
	}
}
