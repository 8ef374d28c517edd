// Churnstorm: reproduce the paper's §IV-D stress scenario — nodes arrive
// and depart with exponential lifetimes while a 200-chunk channel streams —
// and compare how much of the stream each overlay actually delivers.
//
// Run with:
//
//	go run ./examples/churnstorm
package main

import (
	"fmt"
	"time"

	"dco/internal/experiment"
)

const (
	nodes    = 128
	chunks   = 100
	meanLife = 60 * time.Second
	horizon  = 200 * time.Second
)

func main() {
	fmt.Printf("churn storm: %d nodes, mean lifetime %v, %d chunks, horizon %v\n\n",
		nodes, meanLife, chunks, horizon)
	fmt.Printf("%-6s %12s %12s %14s\n", "method", "%received", "departures", "arrivals")

	// Arrivals balance departures so the population stays stable; DCO runs
	// its DHT maintenance, and the tree's out-degree is 16/8 = 2.
	for _, m := range experiment.AllMethods {
		o := experiment.Run(experiment.Spec{Method: m, N: nodes, Neighbors: 16, Chunks: chunks, Seed: 11, Horizon: horizon, ChurnLife: meanLife})
		dep, arr := o.Churn.Stats()
		fmt.Printf("%-6s %11.2f%% %12d %14d\n", m, o.Log.ReceivedPercent(horizon), dep, arr)
	}

	fmt.Println("\nThe tree loses whole subtrees when an interior node dies; DCO keeps")
	fmt.Println("delivering because any surviving holder is discoverable through the DHT.")
}
