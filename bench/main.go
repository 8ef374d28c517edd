// Command bench is the one performance harness for this repository: it
// stands up the real live stack (and the simulator) through exported seams
// only, runs one of four seeded workloads, and prints every metric by name
// with its unit. See README.md in this directory.
//
// One run (what BENCHMARK.json's command invokes):
//
//	bench -workload steady_small_mem -seed 42 -seconds 20 -trace 0
//
// prints, as the last line of standard output, one JSON object with the
// end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1).
//
// A full report, medians over fresh child processes:
//
//	bench -all -seed 42 -reps 3 -trace 1 -out bench/out/run.json
//	bench -compare base.json new.json
//
// It runs from the repository root: BENCHMARK.json is read from, and trace
// files are written under, the working directory (bench.sh sees to that).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// errOut is where diagnostics go; standard output carries results only.
var errOut io.Writer = os.Stderr

const (
	specPath = "BENCHMARK.json"
	traceDir = "bench/out"
)

// RunResult is one measured run of one workload in one process.
type RunResult struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Seconds   int                 `json:"seconds"`
	Traced    bool                `json:"traced"`
	Invalid   []string            `json:"invalid,omitempty"` // correctness gates that failed
	Notes     []string            `json:"notes,omitempty"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   Metrics             `json:"metrics"`
	Sim       map[string]simStats `json:"sim,omitempty"` // simulated results, for goldens
}

// contractLine is the last line of a single run's standard output.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type options struct {
	workload string
	all      bool
	seed     int64
	seconds  int
	trace    int
	reps     int
	out      string
	child    bool
	compare  bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	// The load is sized for at most four cores' worth of scheduler; more
	// would only add idle Ps whose wake-ups show up as noise.
	if runtime.GOMAXPROCS(0) > 4 {
		runtime.GOMAXPROCS(4)
	}
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.StringVar(&o.workload, "workload", "", "workload to run: steady_small_mem | steady_bulk_tcp | flashcrowd_tcp | sim_paper512")
	fs.BoolVar(&o.all, "all", false, "run every workload in BENCHMARK.json")
	fs.Int64Var(&o.seed, "seed", 42, "seed for every generated input")
	fs.IntVar(&o.seconds, "seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	fs.IntVar(&o.trace, "trace", 0, "1 = also make the traced run and report per-layer metrics")
	fs.IntVar(&o.reps, "reps", 3, "with -all or -out: untraced repeats per workload, each a fresh child process; medians are reported")
	fs.StringVar(&o.out, "out", "", "write every run's full result to this JSON file (input to -compare)")
	fs.BoolVar(&o.child, "child", false, "internal: make exactly one run in this process and print its full result")
	fs.BoolVar(&o.compare, "compare", false, "compare two -out files: bench -compare base.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(errOut, "bench: %v\n", err)
		return 2
	}
	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(errOut, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(stdout, spec, fs.Arg(0), fs.Arg(1))
	}
	if o.reps < 1 {
		fmt.Fprintln(errOut, "bench: -reps is at least 1")
		return 2
	}
	if o.seconds <= 0 {
		o.seconds = spec.RunSeconds
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(errOut, "bench: -trace is 0 or 1")
		return 2
	}
	var workloads []string
	switch {
	case o.all:
		for _, w := range spec.Workloads {
			workloads = append(workloads, w.Name)
		}
	case spec.workload(o.workload):
		workloads = []string{o.workload}
	default:
		fmt.Fprintf(errOut, "bench: unknown workload %q\n", o.workload)
		return 2
	}

	if o.child {
		res := runOne(workloads[0], o)
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			fmt.Fprintf(errOut, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	if o.all || o.out != "" {
		return report(stdout, workloads, o)
	}
	return single(stdout, spec, workloads[0], o)
}

// runOne makes one run of one workload in this process.
func runOne(workload string, o options) RunResult {
	traced := o.trace == 1
	if ls, ok := liveSpecs[workload]; ok {
		traceOut := ""
		if traced {
			traceOut = fmt.Sprintf("%s/trace-%s-seed%d.json", traceDir, workload, o.seed)
		}
		return runLive(ls, o.seed, o.seconds, traced, traceOut)
	}
	return runSim(o.seed, o.seconds)
}

// spawn makes one run in a fresh child process, so peak RSS, heap state and
// leaked goroutines never carry over from one run to the next.
func spawn(workload string, o options, trace int) (RunResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return RunResult{}, err
	}
	cmd := exec.Command(exe, "-child", "-workload", workload, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = errOut
	out, err := cmd.Output()
	if err != nil {
		return RunResult{}, fmt.Errorf("child run of %s: %w", workload, err)
	}
	var res RunResult
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return RunResult{}, fmt.Errorf("child run of %s: %w", workload, err)
	}
	return res, nil
}

// perLayer folds one workload's runs into its per-layer metric set: the
// user-visible figures from the untraced runs (their median), so tracing
// never perturbs them; span and registry figures from the traced run; and
// the tracing overhead itself. The simulator has no transport to decorate,
// so it has no traced run (nil) and its layer figures come from the
// untraced runs too.
func perLayer(untraced []RunResult, traced *RunResult) Metrics {
	m := medians(untraced)
	layers := untraced[len(untraced)-1].Metrics
	if traced != nil {
		layers = traced.Metrics
		if cpu := m["cpu_us_per_chunk"].Value; cpu > 0 {
			m.set("trace.overhead_ratio", traced.Metrics["cpu_us_per_chunk"].Value/cpu-1, len(untraced))
		}
	}
	for name, x := range layers {
		if catalogByName[name].tier == tierLayer {
			m[name] = x
		}
	}
	return m
}

// fill gives every listed metric a value: what a workload cannot produce
// reads 0 in the spec's unit.
func fill(m Metrics, list []specMetric) map[string]contractMetric {
	out := make(map[string]contractMetric, len(list))
	for _, sm := range list {
		out[sm.Name] = contractMetric{Value: m[sm.Name].Value, Unit: sm.Unit}
	}
	return out
}

// single is the contract mode: one workload, one seed, one line of JSON.
// With -trace 0 the run happens in this (fresh) process. With -trace 1 an
// untraced child, a traced child and the probes run one after the other,
// each for the full length, so a traced invocation costs a little over two
// untraced ones.
func single(stdout io.Writer, spec *benchSpec, workload string, o options) int {
	var line contractLine
	var results []RunResult
	if o.trace == 0 {
		res := runOne(workload, o)
		results = append(results, res)
		printMetrics(stdout, res.Metrics, tierUser)
		line.Metrics = fill(res.Metrics, spec.EndToEnd)
	} else {
		untraced, err := spawn(workload, o, 0)
		if err != nil {
			fmt.Fprintf(errOut, "bench: %v\n", err)
			return 1
		}
		results = append(results, untraced)
		var traced *RunResult
		if _, live := liveSpecs[workload]; live {
			res, err := spawn(workload, o, 1)
			if err != nil {
				fmt.Fprintf(errOut, "bench: %v\n", err)
				return 1
			}
			results = append(results, res)
			traced = &res
		}
		m := perLayer(results[:1], traced)
		if err := runProbes(m, o.seed); err != nil {
			fmt.Fprintf(errOut, "bench: probes: %v\n", err)
			return 1
		}
		printMetrics(stdout, m, tierUser, tierLayer)
		line.Metrics = fill(m, spec.PerLayer)
	}
	line.Correct = allCorrect(workload, results...)
	seen := make(map[string]bool)
	for _, r := range results {
		for _, note := range r.Notes {
			if !seen[note] {
				fmt.Fprintf(stdout, "# %s\n", note)
			}
			seen[note] = true
		}
	}
	line.Attempted, line.Failed = results[0].Attempted, results[0].Failed
	if line.Attempted < 1 {
		line.Attempted = 1
	}
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		fmt.Fprintf(errOut, "bench: %v\n", err)
		return 1
	}
	if !line.Correct {
		return 1
	}
	return 0
}

// allCorrect reports whether every run passed its correctness gates,
// saying on standard error why any did not.
func allCorrect(workload string, runs ...RunResult) bool {
	ok := true
	for _, r := range runs {
		for _, why := range r.Invalid {
			fmt.Fprintf(errOut, "bench: %s: INVALID: %s\n", workload, why)
			ok = false
		}
	}
	return ok
}

// printMetrics lists the metrics of the given tiers, one per line.
func printMetrics(w io.Writer, m Metrics, tiers ...tier) {
	for _, name := range m.names() {
		d := catalogByName[name]
		show := false
		for _, t := range tiers {
			show = show || d.tier == t
		}
		if !show {
			continue
		}
		x := m[name]
		if x.N > 0 {
			fmt.Fprintf(w, "%-44s %16.6g %-6s n=%d\n", name, x.Value, x.Unit, x.N)
		} else {
			fmt.Fprintf(w, "%-44s %16.6g %-6s\n", name, x.Value, x.Unit)
		}
	}
}
