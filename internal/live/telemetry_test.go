package live

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
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

// TestDesignMetricTableIsRegistered: every name in DESIGN.md's "Metric
// names" table is registered by a node on one backend or the other. A
// representative is written relative to its row's prefix (`dco_live_*` +
// `chunks_served_total`) or, when it repeats the prefix's layer word, to
// `dco_` (`retry_attempts_total`); a brace form expands to each variant.
func TestDesignMetricTableIsRegistered(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "**Metric names**")
	if !ok {
		t.Fatal("DESIGN.md has no metric-name table")
	}
	// The table runs from the blank line after the heading to the next.
	_, table, _ = strings.Cut(table, "\n\n")
	table, _, _ = strings.Cut(table, "\n\n")

	scraped := map[string]bool{}
	for _, backend := range []string{"chord", "kademlia"} {
		cfg := fastConfig()
		cfg.DHT = backend
		s := testSwarm(t, SwarmSpec{N: 2, Base: cfg})
		srv := httptest.NewServer(telemetry.Handler(s.Registry(1), nil))
		for series := range scrape(t, srv.URL+"/metrics") {
			name, _, _ := strings.Cut(series, "{")
			scraped[name] = true
		}
		srv.Close()
	}

	backticked := regexp.MustCompile("`([^`]+)`")
	parens := regexp.MustCompile(`\([^()]*\)`)
	rows := 0
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 5 || !strings.Contains(cells[1], "dco_") {
			continue
		}
		rows++
		var prefixes []string
		for _, m := range backticked.FindAllStringSubmatch(cells[1], -1) {
			prefixes = append(prefixes, strings.TrimSuffix(m[1], "*"))
		}
		reps := cells[3]
		for parens.MatchString(reps) {
			reps = parens.ReplaceAllString(reps, "")
		}
		for _, m := range backticked.FindAllStringSubmatch(reps, -1) {
			for _, rep := range expandBraces(m[1]) {
				if !registered(scraped, prefixes, rep) {
					t.Errorf("DESIGN.md lists %s under %v; no node registers it", rep, prefixes)
				}
			}
		}
	}
	if rows < 6 {
		t.Fatalf("parsed %d rows of the metric-name table, want at least 6", rows)
	}
}

// registered reports whether rep, read against one of prefixes, names a
// scraped series; a histogram shows as its _count series.
func registered(scraped map[string]bool, prefixes []string, rep string) bool {
	for _, p := range prefixes {
		for _, name := range []string{p + rep, "dco_" + rep} {
			if strings.HasPrefix(name, p) && (scraped[name] || scraped[name+"_count"]) {
				return true
			}
		}
	}
	return false
}

// expandBraces turns `a_{x,y}_b` into a_x_b and a_y_b.
func expandBraces(s string) []string {
	open, close := strings.IndexByte(s, '{'), strings.IndexByte(s, '}')
	if open < 0 || close < open {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[open+1:close], ",") {
		out = append(out, expandBraces(s[:open]+alt+s[close+1:])...)
	}
	return out
}

// TestStatsReadsTheRegistry: every Stats field but the two peer-table
// counts is backed by the liveMetrics counter of the same name, and a
// count added through the registry under that counter's metric name reads
// back through Stats() and SumStats.
func TestStatsReadsTheRegistry(t *testing.T) {
	lm, st := reflect.TypeOf(liveMetrics{}), reflect.TypeOf(Stats{})
	names := map[string]string{} // Stats field -> metric name
	for i := 0; i < st.NumField(); i++ {
		field := st.Field(i).Name
		if field == "SuspectedPeers" || field == "QuarantinedPeers" {
			continue
		}
		f, ok := lm.FieldByName(field)
		if !ok || f.Type != reflect.TypeOf((*telemetry.Counter)(nil)) || f.Tag.Get("metric") == "" {
			t.Errorf("Stats.%s has no tagged liveMetrics counter of the same name", field)
			continue
		}
		names[field] = f.Tag.Get("metric")
	}

	cfg := fastConfig()
	cfg.Telemetry = telemetry.NewRegistry()
	n := soloNode(t, cfg)
	before := n.Stats()
	for i := 0; i < st.NumField(); i++ {
		if name, ok := names[st.Field(i).Name]; ok {
			cfg.Telemetry.Counter(name).Add(uint64(i + 1))
		}
	}
	after, sum := reflect.ValueOf(n.Stats()), reflect.ValueOf(SumStats([]*Node{n, n}))
	for i := 0; i < st.NumField(); i++ {
		field := st.Field(i).Name
		if _, ok := names[field]; !ok {
			continue
		}
		was := reflect.ValueOf(before).Field(i).Uint()
		if got := after.Field(i).Uint() - was; got != uint64(i+1) {
			t.Errorf("Stats().%s moved by %d after the registry counter %s moved by %d", field, got, names[field], i+1)
		}
		if got := sum.Field(i).Uint(); got != 2*after.Field(i).Uint() {
			t.Errorf("SumStats of the node twice: %s = %d, want %d", field, got, 2*after.Field(i).Uint())
		}
	}
}
