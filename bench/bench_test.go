package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		tail float64
	}{
		{n: 100000, want: 99.9, tail: 99.9},
		{n: 100000, want: 99, tail: 99}, // never above what was asked for
		{n: 1000, want: 99, tail: 99},   // exactly ten beyond
		{n: 999, want: 99, tail: 95},
		{n: 200, want: 99, tail: 95},
		{n: 199, want: 99, tail: 90},
		{n: 40, want: 99, tail: 75},
		{n: 39, want: 99, tail: 50},
		{n: 0, want: 99, tail: 50},
	} {
		if got := supportedTail(c.n, c.want); got != c.tail {
			t.Errorf("supportedTail(%d, %g) = %g, want %g", c.n, c.want, got, c.tail)
		}
	}
}

func TestMissedOperationsRankAboveEverySample(t *testing.T) {
	var l latencySample
	for i := 98; i >= 1; i-- {
		l.ok = append(l.ok, float64(i))
	}
	l.missed = 2
	const ceiling = 2000
	if got := l.percentile(50, ceiling); got != 50 {
		t.Errorf("p50 = %g, want 50", got)
	}
	if got := l.percentile(98, ceiling); got != 98 {
		t.Errorf("p98 = %g, want 98 (the slowest completed)", got)
	}
	if got := l.percentile(99, ceiling); got != ceiling {
		t.Errorf("p99 = %g, want the ceiling %d: rank 99 of 100 is a miss", got, ceiling)
	}
}

// The acceptance driver computes spreads with Python's
// statistics.quantiles(v, n=4); these are its results for the same data.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{30, 10, 20})
	if q1 != 10 || q2 != 20 || q3 != 30 {
		t.Errorf("quartiles(10,20,30) = %g %g %g, want 10 20 30", q1, q2, q3)
	}
	if got := spread([]float64{100, 101, 99, 100, 102, 98, 100, 100, 101, 99}); math.Abs(got-0.02) > 1e-12 {
		t.Errorf("spread = %g, want 0.02", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"nested counts once", []interval{{110, 160}, {120, 130}}, 50},
		{"overlapping counts the union", []interval{{110, 150}, {140, 180}}, 30},
		{"clipped to the parent", []interval{{50, 120}, {190, 400}}, 70},
		{"outside the parent", []interval{{0, 100}, {200, 300}}, 100},
		{"unordered input", []interval{{150, 170}, {110, 120}}, 70},
		{"covering", []interval{{0, 1000}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// A host that runs a third slower makes the reference kernel and the
// program a third dearer alike; in reference time the program costs the same.
func TestReferenceTimeCancelsHostSpeed(t *testing.T) {
	start := time.Unix(1000, 0)
	at := func(tenths int) time.Time { return start.Add(time.Duration(tenths) * 100 * time.Millisecond) }
	w := &windowSampler{}
	for i := 0; i <= 40; i++ {
		slow := time.Duration(1)
		if i > 20 {
			slow = 2 // the host halves its speed after two seconds
		}
		cpu := time.Duration(i) * 10 * time.Millisecond
		if i > 20 {
			cpu = 200*time.Millisecond + time.Duration(i-20)*20*time.Millisecond
		}
		w.ticks = append(w.ticks, tick{at: at(i), cpu: cpu, ref: slow * refNominal})
	}
	rates := w.refRates()
	if len(rates) != 4 {
		t.Fatalf("%d slices, want 4", len(rates))
	}
	// Slice 2 straddles the change: its 11 ticks hold one fast reading.
	for i, r := range rates {
		if math.Abs(r-0.1) > 1e-9 {
			t.Errorf("slice %d: %g reference CPU-seconds per second, want 0.1", i, r)
		}
	}
	if got := w.inRef(400*time.Millisecond, at(25), at(35)); got != 200*time.Millisecond {
		t.Errorf("inRef on the slow stretch = %v, want 200ms", got)
	}
	// 21 of the run's 41 readings are fast ones.
	if got := w.inRef(time.Millisecond, at(3).Add(time.Millisecond), at(3).Add(2*time.Millisecond)); got != time.Millisecond {
		t.Errorf("inRef on a stretch that holds no tick = %v, want 1ms by the whole run's median kernel cost", got)
	}
}

func TestJudge(t *testing.T) {
	steady := func(center float64) []float64 { return []float64{center * 0.995, center, center * 1.005} }
	for _, c := range []struct {
		name       string
		base, cand []float64
		better     string
		want       string
	}{
		{"within the bound", steady(100), steady(103), "lower", verdictSame},
		{"lower is better and it rose", steady(100), steady(110), "lower", verdictWorse},
		{"lower is better and it fell", steady(100), steady(90), "lower", verdictBetter},
		{"higher is better and it fell", steady(100), steady(90), "higher", verdictWorse},
		{"higher is better and it rose", steady(100), steady(110), "higher", verdictBetter},
		{"noisy baseline", []float64{80, 100, 120}, steady(130), "lower", verdictUnresolved},
		{"noisy candidate", steady(100), []float64{80, 100, 125}, "lower", verdictUnresolved},
		{"one run a side shows no spread", []float64{100}, []float64{200}, "lower", verdictUnresolved},
		{"two runs on one side", steady(100), []float64{100, 100}, "lower", verdictUnresolved},
	} {
		if _, got := judge(c.base, c.cand, c.better, 0.05); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestBoundFollowsMeasuredNoise(t *testing.T) {
	for _, c := range []struct {
		noise, bound float64
		judged       bool
	}{
		{0.002, 0.03, true}, // never tighter than 3%
		{0.04, 0.08, true},  // twice the noise
		{0.10, 0.20, true},
		{0.11, 0, false}, // too unsteady on that workload to judge there
	} {
		if bound, judged := boundFor(c.noise); math.Abs(bound-c.bound) > 1e-12 || judged != c.judged {
			t.Errorf("boundFor(%g) = %g, %v; want %g, %v", c.noise, bound, judged, c.bound, c.judged)
		}
	}
}

func TestCompareReportsCountsVerdicts(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	noise, err := loadNoise()
	if err != nil {
		t.Fatal(err)
	}
	// One metric -compare judges on this workload and one it only reports.
	const workload, judged, unjudged = "steady_bulk_tcp", "alloc_bytes_per_chunk", "delivery_p99_ms"
	if _, ok := boundFor(noise[workload][judged]); !ok {
		t.Fatalf("%s is not judged on %s", judged, workload)
	}
	if _, ok := boundFor(noise[workload][unjudged]); ok {
		t.Fatalf("%s is judged on %s", unjudged, workload)
	}
	mk := func(alloc float64) *reportFile {
		var runs []RunResult
		for _, f := range []float64{0.999, 1, 1.001} {
			m := Metrics{}
			m.set(judged, alloc*f, 1)
			m.set(unjudged, 5*f, 1)
			m.set("startup_p50_ms", 100, 1) // no such metric on this workload: not compared at all
			runs = append(runs, RunResult{Metrics: m})
		}
		return &reportFile{Workloads: map[string]*workloadReport{workload: {Runs: runs}}}
	}
	var out bytes.Buffer
	if code := compareReports(&out, spec, mk(200), mk(200)); code != 0 {
		t.Errorf("A/A compare exited %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "same=1 better=0 worse=0 unresolved=0") || strings.Contains(out.String(), "startup_p50_ms") {
		t.Errorf("A/A summary wrong:\n%s", out.String())
	}
	out.Reset()
	if code := compareReports(&out, spec, mk(200), mk(400)); code != 1 {
		t.Errorf("a doubled %s exited %d, want 1:\n%s", judged, code, out.String())
	}
	if !strings.Contains(out.String(), "same=0 better=0 worse=1 unresolved=0") {
		t.Errorf("doubled allocation not reported worse:\n%s", out.String())
	}
}

func TestBenchmarkSpecLint(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	noise, err := loadNoise()
	if err != nil {
		t.Fatal(err)
	}
	for _, problem := range spec.lint(noise) {
		t.Error(problem)
	}
	if b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json")); err != nil || len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json: %d bytes (limit 64 KiB), err %v", len(b), err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	// The contract line of a run lists exactly the spec's metrics, so a
	// workload that cannot produce one still reports it.
	line := fill(Metrics{}, spec.PerLayer)
	if len(line) != len(spec.PerLayer) {
		t.Errorf("fill produced %d metrics, want %d", len(line), len(spec.PerLayer))
	}
}

func TestGoldensParse(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for seed, phases := range g {
		for _, p := range simPhases {
			if phases[p].Events == 0 {
				t.Errorf("golden for seed %s lacks phase %s", seed, p)
			}
		}
	}
}

// TestSmokeFourNodes runs a four-node, one-second in-memory stream through
// the whole pipeline, traced: stand-up, window, gates, span metrics, probes
// that need no network, trace file.
func TestSmokeFourNodes(t *testing.T) {
	spec := liveSpec{name: "smoke", nodes: 4, chunkBytes: 1024, period: 20 * time.Millisecond,
		settle: 300 * time.Millisecond, horizon: 2 * time.Second, failGate: 0.01}
	traceOut := filepath.Join(t.TempDir(), "trace.json")
	res := runLive(spec, 7, 1, true, traceOut)
	if len(res.Invalid) != 0 {
		t.Fatalf("run invalid: %v", res.Invalid)
	}
	if res.Attempted != 3*50 || res.Failed != 0 {
		t.Errorf("attempted %d failed %d, want 150 and 0", res.Attempted, res.Failed)
	}
	for _, name := range []string{"setup_s", "cpu_us_per_chunk", "alloc_bytes_per_chunk", "allocs_per_chunk", "peak_rss_mb",
		"delivery_p50_ms", "control_bytes_per_data_byte", "transport.calls_per_chunk", "dht.routing_calls_per_chunk",
		"live.lookup.calls_per_chunk", "live.getchunk.calls_per_chunk", "live.fetch.p50_ms", "dht.find_owner_p50_us"} {
		if v, ok := res.Metrics[name]; !ok || v.Value <= 0 || math.IsNaN(v.Value) {
			t.Errorf("%s = %+v, want a positive value", name, v)
		}
	}
	if got := res.Metrics["live.getchunk.calls_per_chunk"].Value; got < 0.99 || got > 1.5 {
		t.Errorf("getchunk calls per delivered chunk = %g, want about 1", got)
	}
	share := res.Metrics["live.fetch.lookup_share"].Value + res.Metrics["live.fetch.other_share"].Value
	if share <= 0 || share > 1.0001 {
		t.Errorf("lookup_share + other_share = %g, want within (0, 1]", share)
	}
	b, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]bool)
	for _, e := range tr.TraceEvents {
		if id, ok := e.Args["id"].(string); ok {
			ids[id] = true
		}
	}
	roots, serves := 0, 0
	for _, e := range tr.TraceEvents {
		if e.Name == "live.fetch" {
			roots++
		}
		if seq, _ := e.Args["seq"].(float64); seq < 0 {
			continue // routing and maintenance hang off per-node lanes
		}
		if parent, _ := e.Args["parent"].(string); e.Name != "live.fetch" && parent != "" && !ids[parent] {
			t.Errorf("%s (seq %v) has parent %q, which no span in the trace carries", e.Name, e.Args["seq"], parent)
		}
		if strings.HasSuffix(e.Name, ".serve") {
			if parent, _ := e.Args["parent"].(string); parent == "" {
				t.Errorf("%s (seq %v) found no call that encloses it", e.Name, e.Args["seq"])
			}
			serves++
		}
	}
	if roots == 0 || serves == 0 {
		t.Errorf("trace has %d fetch roots and %d serve spans, want both", roots, serves)
	}

	defer func(d time.Duration) { probeFor = d }(probeFor)
	probeFor = 5 * time.Millisecond
	m := Metrics{}
	if err := probeWire(m); err != nil {
		t.Fatal(err)
	}
	probeBufferMap(m)
	for _, name := range []string{"wire.chunkresp_64k.roundtrip_ns", "wire.insert.allocs", "stream.buffermap.missing_ns"} {
		if m[name].Value <= 0 {
			t.Errorf("%s = %g, want positive", name, m[name].Value)
		}
	}
}
