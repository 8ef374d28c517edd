package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestLiveMethodsGateAndSchema runs the two quick live methods at n=8 and
// checks that each passes its own gate and emits exactly its -json key set
// (external tooling parses those names). The four heavier methods run
// nightly.
func TestLiveMethodsGateAndSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("live-stack scenarios skipped in -short mode")
	}
	for _, tc := range []struct {
		method string
		args   liveArgs
		keys   []string
	}{
		{"flashcrowd", liveArgs{n: 8, chunks: 20, srcUpBps: 120_000}, []string{
			"busy_nacks", "busy_nacks_hintless", "chunks", "chunks_abandoned", "delivered_percent",
			"join_seconds", "lookups_held", "method", "n", "paced_serves", "sheds", "source_budget_bytes",
			"source_served_bytes", "source_served_chunks", "source_up_bps", "wall_seconds",
		}},
		{"live", liveArgs{n: 8, chunks: 30, kill: true}, []string{
			"chunks", "delivered_percent", "digest_bytes", "digest_repairs", "index_insert_bytes",
			"insert_amplification", "killed_coordinator", "lookup_failures", "method", "n",
			"replica_ops_applied", "replicas", "replicate_bytes", "takeovers", "wall_seconds",
		}},
	} {
		t.Run(tc.method, func(t *testing.T) {
			res, err := liveMethods[tc.method](tc.args)
			if err != nil {
				t.Fatalf("gate: %v", err)
			}
			blob, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var fields map[string]any
			if err := json.Unmarshal(blob, &fields); err != nil {
				t.Fatal(err)
			}
			var got []string
			for k := range fields {
				got = append(got, k)
			}
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(tc.keys, " ") {
				t.Errorf("-json keys\n got %v\nwant %v", got, tc.keys)
			}
			if fields["method"] != tc.method {
				t.Errorf("method = %v, want %s", fields["method"], tc.method)
			}
		})
	}
}

// TestScenariosUseTheSwarmHarness keeps the next scenario from bringing
// back its own builder: live.Swarm is the only way this command stands up
// nodes, attaches them to a network, or polls them.
func TestScenariosUseTheSwarmHarness(t *testing.T) {
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
		for _, banned := range []string{"live.NewNode(", "transport.NewFabric(", "time.Sleep(20 * time.Millisecond)"} {
			if strings.Contains(string(src), banned) {
				t.Errorf("%s contains %q: build on live.NewSwarm / Swarm.WaitUntil instead", name, banned)
			}
		}
	}
}

// TestSimulationsUseTheRunner keeps dcosim's simulated methods and the
// quickstart and churnstorm examples on experiment.Run: none of them builds
// a simulated system or a churn driver of its own.
func TestSimulationsUseTheRunner(t *testing.T) {
	var files []string
	for _, pattern := range []string{"*.go", "../../examples/quickstart/*.go", "../../examples/churnstorm/*.go"} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) == 0 {
			t.Fatalf("no files match %s", pattern)
		}
		files = append(files, matches...)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, banned := range []string{"core.NewSystem(", "overlay.NewSystem(", "churn.NewDriver("} {
			if strings.Contains(string(src), banned) {
				t.Errorf("%s contains %q: run the simulation through experiment.Run instead", name, banned)
			}
		}
	}
}
