package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"text/tabwriter"
)

// environment records what a result file's numbers depend on besides the
// code: they compare only against files made under the same conditions.
type environment struct {
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Reps       int    `json:"reps"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// Link says what "TCP" meant: every byte crossed the host's loopback
	// interface, never a real link, so wire latency and link rate are not
	// in any number here.
	Link string `json:"link"`
}

// workloadReport is every run made of one workload, plus the medians.
type workloadReport struct {
	Runs     []RunResult `json:"runs"`             // untraced, one per rep
	Traced   *RunResult  `json:"traced,omitempty"` // the traced run, when made
	Medians  Metrics     `json:"medians"`          // user-visible metrics: medians over Runs
	PerLayer Metrics     `json:"per_layer,omitempty"`
}

// reportFile is what -out writes and -compare reads.
type reportFile struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadReport `json:"workloads"`
	// Probes are the workload-independent per-layer figures, measured once
	// per report (with -trace 1), alone in the reporting process.
	Probes Metrics `json:"probes,omitempty"`
	// Claim is null: this harness is the instrument later claims are read
	// from and makes none itself.
	Claim *string `json:"claim"`
}

func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

// medians reduces a workload's untraced runs to one value per user-visible
// metric.
func medians(runs []RunResult) Metrics {
	m := Metrics{}
	for _, d := range catalog {
		if v := values(runs, d.name); d.tier == tierUser && len(v) > 0 {
			m.set(d.name, median(v), runs[len(runs)-1].Metrics[d.name].N)
		}
	}
	return m
}

// report runs each workload -reps times untraced (and once traced with
// -trace 1), every run a fresh child process, and prints medians. The
// probes run once, at the end, in this process, which has done nothing else.
func report(stdout io.Writer, workloads []string, o options) int {
	rf := reportFile{
		Env: environment{Seed: o.seed, Seconds: o.seconds, Reps: o.reps, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Commit: commit(), Link: "loopback"},
		Workloads: make(map[string]*workloadReport),
	}
	ok := true
	for _, w := range workloads {
		wr := &workloadReport{}
		rf.Workloads[w] = wr
		for rep := 0; rep < o.reps; rep++ {
			res, err := spawn(w, o, 0)
			if err != nil {
				fmt.Fprintf(errOut, "bench: %v\n", err)
				return 1
			}
			wr.Runs = append(wr.Runs, res)
		}
		wr.Medians = medians(wr.Runs)
		fmt.Fprintf(stdout, "== %s (seed %d, %d s, median of %d)\n", w, o.seed, o.seconds, len(wr.Runs))
		printMetrics(stdout, wr.Medians, tierUser)
		ok = allCorrect(w, wr.Runs...) && ok
		if o.trace == 0 {
			continue
		}
		if _, live := liveSpecs[w]; live {
			res, err := spawn(w, o, 1)
			if err != nil {
				fmt.Fprintf(errOut, "bench: %v\n", err)
				return 1
			}
			wr.Traced = &res
			ok = allCorrect(w, res) && ok
		}
		wr.PerLayer = perLayer(wr.Runs, wr.Traced)
		printMetrics(stdout, wr.PerLayer, tierLayer)
	}
	if o.trace == 1 {
		rf.Probes = Metrics{}
		if err := runProbes(rf.Probes, o.seed); err != nil {
			fmt.Fprintf(errOut, "bench: probes: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, "== probes (workload-independent)")
		printMetrics(stdout, rf.Probes, tierLayer)
	}
	fmt.Fprintf(stdout, "env: nproc=%d GOMAXPROCS=%d %s commit=%s link=%s\n", rf.Env.NumCPU, rf.Env.GOMAXPROCS, rf.Env.GoVersion, rf.Env.Commit, rf.Env.Link)
	fmt.Fprintln(stdout, `"claim": null`)
	if o.out != "" {
		if err := writeJSONFile(o.out, rf); err != nil {
			fmt.Fprintf(errOut, "bench: %v\n", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*reportFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf reportFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// Verdicts of a comparison.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// minRuns is the fewest runs per side a verdict can rest on: the quartiles
// of fewer collapse onto the values themselves and say nothing of noise.
const minRuns = 3

// judge compares the runs of one metric on one workload. A difference
// counts only beyond the bound; when either side has too few runs to show
// its own run-to-run spread, or shows one wider than the bound, the runs
// cannot tell, and the verdict says so instead of reporting "same".
func judge(base, cand []float64, better string, bound float64) (delta float64, verdict string) {
	mb, mc := median(base), median(cand)
	if mb != 0 {
		delta = (mc - mb) / mb
	}
	if len(base) < minRuns || len(cand) < minRuns || spread(base) > bound || spread(cand) > bound {
		return delta, verdictUnresolved
	}
	worse := delta
	if better == "higher" {
		worse = -delta
	}
	switch {
	case worse > bound:
		return delta, verdictWorse
	case worse < -bound:
		return delta, verdictBetter
	}
	return delta, verdictSame
}

// noiseJSON is the one table of regression bounds: per workload and
// user-visible metric, the run-to-run noise measured at the commit that
// defined the benchmark (the wider of the inter-quartile spread of ten
// seeds and the drift between two such sets, as a share of the median).
// -compare derives its bounds from it by the rule in boundFor; the bounds
// in BENCHMARK.json, one per metric for all workloads, must cover it (the
// lint test checks that). A pair absent here does not exist on that
// workload or reads 0 on a healthy run.
//
//go:embed noise.json
var noiseJSON []byte

func loadNoise() (map[string]map[string]float64, error) {
	var n map[string]map[string]float64
	if err := json.Unmarshal(noiseJSON, &n); err != nil {
		return nil, fmt.Errorf("noise.json: %w", err)
	}
	return n, nil
}

// maxSteadyNoise is the noise above which a metric is too unsteady on a
// workload to be judged there: it is reported, without a verdict.
const maxSteadyNoise = 0.10

// boundFor turns measured noise into the bound -compare judges by.
func boundFor(noise float64) (bound float64, judged bool) {
	if noise > maxSteadyNoise {
		return 0, false
	}
	return math.Max(0.03, 2*noise), true
}

func values(runs []RunResult, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if x, ok := r.Metrics[name]; ok {
			v = append(v, x.Value)
		}
	}
	return v
}

// compareFiles prints, per workload and metric, both sides' medians and
// quartiles, the relative change, the bound and the verdict. It returns 1
// if anything is worse or unresolved.
func compareFiles(stdout io.Writer, spec *benchSpec, basePath, candPath string) int {
	base, err := readReport(basePath)
	if err != nil {
		fmt.Fprintf(errOut, "bench: %v\n", err)
		return 2
	}
	cand, err := readReport(candPath)
	if err != nil {
		fmt.Fprintf(errOut, "bench: %v\n", err)
		return 2
	}
	return compareReports(stdout, spec, base, cand)
}

func compareReports(stdout io.Writer, spec *benchSpec, base, cand *reportFile) int {
	if base.Env.Seconds != cand.Env.Seconds || base.Env.GOMAXPROCS != cand.Env.GOMAXPROCS {
		fmt.Fprintf(errOut, "bench: warning: runs differ in seconds (%d vs %d) or GOMAXPROCS (%d vs %d)\n",
			base.Env.Seconds, cand.Env.Seconds, base.Env.GOMAXPROCS, cand.Env.GOMAXPROCS)
	}
	noise, err := loadNoise()
	if err != nil {
		fmt.Fprintf(errOut, "bench: %v\n", err)
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase q1/med/q3\tnew q1/med/q3\tdelta\tbound\tverdict")
	counts := map[string]int{}
	for _, w := range spec.Workloads {
		b, c := base.Workloads[w.Name], cand.Workloads[w.Name]
		if b == nil || c == nil {
			continue
		}
		for _, d := range catalog {
			pairNoise, measured := noise[w.Name][d.name]
			vb, vc := values(b.Runs, d.name), values(c.Runs, d.name)
			if !measured || len(vb) == 0 || len(vc) == 0 {
				continue
			}
			bound, bounded := boundFor(pairNoise)
			b1, b2, b3 := quartiles(vb)
			c1, c2, c3 := quartiles(vc)
			delta, verdict := 0.0, "-"
			boundText := "-"
			if bounded {
				delta, verdict = judge(vb, vc, d.better, bound)
				boundText = fmt.Sprintf("%.3f", bound)
				counts[verdict]++
			} else if b2 != 0 {
				delta = (c2 - b2) / b2
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g/%.5g/%.5g\t%.5g/%.5g/%.5g\t%+.3f\t%s\t%s\n",
				w.Name, d.name, b1, b2, b3, c1, c2, c3, delta, boundText, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(errOut, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "same=%d better=%d worse=%d unresolved=%d\n",
		counts[verdictSame], counts[verdictBetter], counts[verdictWorse], counts[verdictUnresolved])
	if counts[verdictWorse] > 0 || counts[verdictUnresolved] > 0 {
		return 1
	}
	return 0
}
