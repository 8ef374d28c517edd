// Command dcosim runs one live-streaming simulation — DCO or a baseline —
// and prints the paper's four metrics.
//
// Usage:
//
//	dcosim -method dco -n 512 -neighbors 32 -chunks 100
//	dcosim -method pull -n 256 -neighbors 16
//	dcosim -method dco -hierarchy -coordinators 16
//	dcosim -method dco -churn -life 60s -horizon 300s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"dco/internal/core"
	"dco/internal/experiment"
	"dco/internal/telemetry"
)

func main() {
	var (
		method    = flag.String("method", "dco", "dco | pull | push | tree | live | flashcrowd | splitbrain | dhtcompare | graychaos | byzantine")
		n         = flag.Int("n", 512, "network size (server + viewers)")
		neighbors = flag.Int("neighbors", 32, "neighbors per node (tree: out-degree)")
		chunks    = flag.Int64("chunks", 100, "stream length in chunks")
		seed      = flag.Int64("seed", 42, "simulation seed")
		horizon   = flag.Duration("horizon", 400*time.Second, "simulation cutoff")
		doChurn   = flag.Bool("churn", false, "enable exponential churn")
		life      = flag.Duration("life", 60*time.Second, "mean node lifetime under churn")
		hier      = flag.Bool("hierarchy", false, "DCO only: two-tier mode")
		coords    = flag.Int("coordinators", 8, "DCO hierarchy: initial coordinators")
		fingers   = flag.Bool("fingers", false, "DCO only: Chord finger routing")
		showTrace = flag.Bool("trace", false, "DCO only: print a protocol-event summary")
		jsonOut   = flag.String("json", "", "also write machine-readable results to this file ('-' = stdout)")
		replicas  = flag.Int("replicas", 0, "live only: index replication factor (0 disables)")
		kill      = flag.Bool("kill", false, "live only: kill one coordinator mid-stream")
		srcUpBps  = flag.Int64("src-upbps", 120_000, "flashcrowd only: source upload budget (bits/sec)")
	)
	flag.Parse()

	// The live methods run the real node stack (a live.Swarm), not the event
	// kernel; each reports its own metrics and judges its own gate.
	if run, ok := liveMethods[*method]; ok {
		res, err := run(liveArgs{n: *n, chunks: *chunks, seed: *seed, replicas: *replicas, kill: *kill, srcUpBps: *srcUpBps})
		if res != nil && *jsonOut != "" {
			if jerr := writeJSON(*jsonOut, res); jerr != nil {
				fmt.Fprintf(os.Stderr, "dcosim: json: %v\n", jerr)
				os.Exit(1)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcosim: %s: %v\n", *method, err)
			os.Exit(1)
		}
		return
	}

	m, ok := simMethods[*method]
	if !ok {
		fmt.Fprintf(os.Stderr, "dcosim: unknown method %q\n", *method)
		os.Exit(2)
	}
	spec := experiment.Spec{Method: m, N: *n, Neighbors: *neighbors, Chunks: *chunks, Seed: *seed, Horizon: *horizon}
	if *doChurn {
		spec.ChurnLife = *life
	}
	spec.Tune = func(c *core.Config) {
		c.UseFingers = *fingers
		c.Hierarchy.Enabled = *hier
		c.Hierarchy.InitialCoordinators = *coords
	}
	if *showTrace {
		spec.Trace = telemetry.NewTrace(4096)
	}
	o := experiment.Run(spec)
	if s := o.Core; s != nil {
		fmt.Printf("coordinators: %d  dropped-routes: %d\n", len(s.Coordinators()), s.DroppedRoutes())
		if s.Trace != nil {
			fmt.Println("protocol events:")
			counts := s.Trace.Counts()
			for _, kind := range telemetry.KindsByCount(counts) {
				fmt.Printf("%10d  %s\n", counts[kind], kind)
			}
		}
	} else {
		fmt.Printf("duplicate chunks: %d\n", o.Overlay.Duplicates())
	}

	mean, complete, total := o.Log.MeshDelay()
	dataMsgs, dataBits := o.Net.DataStats()
	fmt.Printf("method=%s n=%d neighbors=%d chunks=%d churn=%v\n", *method, *n, *neighbors, *chunks, *doChurn)
	fmt.Printf("virtual end time:        %v\n", o.End)
	fmt.Printf("chunk deliveries:        %d\n", o.Received)
	fmt.Printf("mesh delay (complete):   %v over %d/%d chunks\n", mean, complete, total)
	fmt.Printf("fill ratio @2s:          %.3f\n", o.Log.MeanFillRatioAfter(2*time.Second))
	fmt.Printf("fill ratio @10s:         %.3f\n", o.Log.MeanFillRatioAfter(10*time.Second))
	fmt.Printf("extra overhead:          %d messages\n", o.Net.Overhead())
	fmt.Printf("chunk traffic:           %d transfers, %.1f Mbit\n", dataMsgs, float64(dataBits)/1e6)
	fmt.Printf("%% received (at horizon): %.2f%%\n", o.Log.ReceivedPercent(*horizon))

	if *jsonOut != "" {
		res := simResult{
			Method:          *method,
			N:               *n,
			Neighbors:       *neighbors,
			Chunks:          *chunks,
			Seed:            *seed,
			Churn:           *doChurn,
			EndSeconds:      o.End.Seconds(),
			Deliveries:      o.Received,
			MeshDelaySec:    mean.Seconds(),
			CompleteChunks:  complete,
			TotalChunks:     total,
			FillRatio2s:     o.Log.MeanFillRatioAfter(2 * time.Second),
			FillRatio10s:    o.Log.MeanFillRatioAfter(10 * time.Second),
			OverheadMsgs:    o.Net.Overhead(),
			DataTransfers:   dataMsgs,
			DataMbit:        float64(dataBits) / 1e6,
			ReceivedPercent: o.Log.ReceivedPercent(*horizon),
		}
		if err := writeJSON(*jsonOut, res); err != nil {
			fmt.Fprintf(os.Stderr, "dcosim: json: %v\n", err)
			os.Exit(1)
		}
	}
}

// simResult is the -json output schema: the paper's four metrics plus the
// run parameters that produced them. Field names are stable — external
// tooling (consumers of -json reports, CI trend checks) parses them.
type simResult struct {
	Method          string  `json:"method"`
	N               int     `json:"n"`
	Neighbors       int     `json:"neighbors"`
	Chunks          int64   `json:"chunks"`
	Seed            int64   `json:"seed"`
	Churn           bool    `json:"churn"`
	EndSeconds      float64 `json:"end_seconds"`
	Deliveries      int64   `json:"deliveries"`
	MeshDelaySec    float64 `json:"mesh_delay_seconds"`
	CompleteChunks  int64   `json:"complete_chunks"`
	TotalChunks     int64   `json:"total_chunks"`
	FillRatio2s     float64 `json:"fill_ratio_2s"`
	FillRatio10s    float64 `json:"fill_ratio_10s"`
	OverheadMsgs    uint64  `json:"overhead_messages"`
	DataTransfers   uint64  `json:"data_transfers"`
	DataMbit        float64 `json:"data_mbit"`
	ReceivedPercent float64 `json:"received_percent"`
}

func writeJSON(path string, res any) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// simMethods maps -method to the simulated series it runs. dcosim's tree
// gives every internal node the full -neighbors as its out-degree: the
// figures' tree*.
var simMethods = map[string]experiment.Method{
	"dco":  experiment.MethodDCO,
	"pull": experiment.MethodPull,
	"push": experiment.MethodPush,
	"tree": experiment.MethodTreeX,
}

// liveArgs are the flags the live methods read.
type liveArgs struct {
	n        int
	chunks   int64
	seed     int64
	replicas int
	kill     bool
	srcUpBps int64
}

// liveMethods maps -method to its scenario. A scenario returns its -json
// result (nil if the swarm could not be stood up) and an error when the
// run or its gate failed; only main exits.
var liveMethods = map[string]func(liveArgs) (any, error){
	"live":       runLive,
	"flashcrowd": runFlashCrowd,
	"splitbrain": runSplitBrain,
	"dhtcompare": runDHTCompare,
	"graychaos":  runGrayChaos,
	"byzantine":  runByzantine,
}
