// Quickstart: simulate a small live-streaming session with DCO and with the
// pull-mesh baseline, then print the paper's four metrics side by side.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"dco/internal/experiment"
)

const (
	nodes     = 64
	chunks    = 30
	neighbors = 16
	horizon   = 200 * time.Second
)

func main() {
	fmt.Printf("DCO quickstart: %d nodes watch a %d-chunk live channel (%d neighbors)\n\n",
		nodes, chunks, neighbors)

	fmt.Printf("%-6s %14s %12s %12s %14s\n", "method", "mesh delay", "fill@2s", "fill@10s", "overhead msgs")
	// DCO: every node joins the Chord ring; lookups find providers
	// system-wide. Pull mesh: the strongest baseline.
	for _, m := range []experiment.Method{experiment.MethodDCO, experiment.MethodPull} {
		o := experiment.Run(experiment.Spec{Method: m, N: nodes, Neighbors: neighbors, Chunks: chunks, Seed: 1, Horizon: horizon})
		delay, complete, total := o.Log.MeshDelay()
		fmt.Printf("%-6s %14v %12.3f %12.3f %14d   (%d/%d chunks complete, done at t=%v)\n",
			m, delay.Round(10*time.Millisecond),
			o.Log.MeanFillRatioAfter(2*time.Second),
			o.Log.MeanFillRatioAfter(10*time.Second),
			o.Net.Overhead(), complete, total, o.End.Round(time.Second))
	}
	fmt.Println("\nDCO reaches full dissemination with a fraction of the control traffic:")
	fmt.Println("the DHT lookup replaces per-neighbor buffer-map gossip (paper §IV).")
}
