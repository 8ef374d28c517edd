package live

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"dco/internal/telemetry"
)

// scrape fetches and parses a Prometheus text page into name -> value
// (labeled series keep their label string in the name).
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metric line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSwarmScrapeMidStream is the tentpole acceptance scenario: a live
// swarm streams over the fabric while an HTTP scrape of one viewer's
// registry — mid-stream — shows the paper's metrics with sane values.
func TestSwarmScrapeMidStream(t *testing.T) {
	// The harness wires each node's registry to its transport's metrics —
	// the in-process equivalent of dconode's -metrics-addr plumbing.
	cfg := fastConfig()
	cfg.Channel.Count = 40
	vtr := telemetry.NewTrace(1024)
	s := upSwarm(t, SwarmSpec{N: 2, Base: cfg, Tune: func(i int, cfg *Config) {
		if i == 1 {
			cfg.Trace = vtr
		}
	}})
	viewer, vreg := s.Nodes[1], s.Registry(1)

	srv := httptest.NewServer(telemetry.Handler(vreg, vtr))
	defer srv.Close()

	// Mid-stream: some chunks buffered, stream not finished.
	waitFor(t, 30*time.Second, "viewer to buffer a few chunks", func() bool {
		return viewer.ChunkCount() >= 5
	})

	m := scrape(t, srv.URL+"/metrics")

	fill, ok := m["dco_live_fill_ratio"]
	if !ok {
		t.Fatal("scrape missing dco_live_fill_ratio")
	}
	if fill <= 0 || fill > 1 {
		t.Fatalf("fill ratio = %g, want (0, 1]", fill)
	}
	if n := m["dco_live_chunk_fetch_seconds_count"]; n < 5 {
		t.Fatalf("chunk fetch histogram count = %g, want >= 5", n)
	}
	if _, ok := m[`dco_live_chunk_fetch_seconds_bucket{le="+Inf"}`]; !ok {
		t.Fatal("scrape missing chunk fetch histogram buckets")
	}
	if r := m["dco_transport_overhead_ratio"]; r <= 0 {
		t.Fatalf("overhead ratio = %g, want > 0 (lookups and inserts are control traffic)", r)
	}
	if p := m["dco_live_delivered_percent"]; p <= 0 || p > 100 {
		t.Fatalf("delivered percent = %g, want (0, 100]", p)
	}
	if m["dco_live_chunks_fetched_total"] < 5 {
		t.Fatalf("chunks fetched = %g, want >= 5", m["dco_live_chunks_fetched_total"])
	}
	if m["dco_transport_calls_total"] <= 0 {
		t.Fatal("transport call counter never moved")
	}

	// The trace recorded protocol events for the same activity.
	if vtr.Count("chunk.fetch") == 0 {
		t.Fatal("trace has no chunk.fetch events")
	}
	if vtr.Count("lookup.route") == 0 {
		t.Fatal("trace has no lookup.route events")
	}

	// The JSON snapshot endpoint agrees with the text endpoint.
	resp, err := http.Get(srv.URL + "/debug/vars.json")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap telemetry.Snapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatalf("vars.json invalid: %v", err)
	}
	if snap.Counters["dco_live_chunks_fetched_total"] < 5 {
		t.Fatalf("vars.json chunks fetched = %d", snap.Counters["dco_live_chunks_fetched_total"])
	}

	// Uninstrumented path still works: Stats() reads the same counters.
	st := viewer.Stats()
	if st.ChunksFetched != snap.Counters["dco_live_chunks_fetched_total"] &&
		st.ChunksFetched < 5 {
		t.Fatalf("Stats() snapshot diverged: %+v", st)
	}
}
