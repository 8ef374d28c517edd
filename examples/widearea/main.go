// Widearea: run DCO on two physical substrates — the paper's flat
// broadband model and a four-zone wide-area topology with 80 ms
// inter-region links — and on a heterogeneous DSL/cable/fiber population,
// showing how the overlay's latency and QoS respond to the underlay.
//
// Run with:
//
//	go run ./examples/widearea
package main

import (
	"fmt"
	"time"

	"dco"
	"dco/internal/core"
	"dco/internal/simnet"
)

const (
	nodes  = 96
	chunks = 40
)

func run(name string, mutate func(*dco.Config)) {
	cfg := dco.DefaultConfig()
	cfg.Stream.Count = chunks
	cfg.Neighbors = 16
	cfg.Playback = true
	if mutate != nil {
		mutate(&cfg)
	}
	k := dco.NewKernel(99)
	s := dco.NewDCO(k, cfg, nodes)
	s.DisableCompletionStop()
	s.Run(200 * time.Second)

	delay, complete, total := s.Log.MeshDelay()
	q := s.QoS()
	fmt.Printf("%-22s meshDelay=%8v  (%d/%d chunks)  overhead=%7d  startup=%7v  continuity=%.3f\n",
		name, delay.Round(10*time.Millisecond), complete, total, s.Net.Overhead(),
		q.MeanStartup.Round(10*time.Millisecond), q.MeanContinuity)
}

func main() {
	fmt.Printf("DCO on different substrates: %d nodes, %d chunks, 16 neighbors\n\n", nodes, chunks)

	run("flat broadband", nil)

	run("4-zone wide area", func(c *dco.Config) {
		c.Net = simnet.WideAreaConfig()
	})

	run("heterogeneous peers", func(c *dco.Config) {
		c.PeerClasses = core.HeterogeneousClasses()
	})

	run("wide area + hetero", func(c *dco.Config) {
		c.Net = simnet.WideAreaConfig()
		c.PeerClasses = core.HeterogeneousClasses()
	})

	fmt.Println("\nInter-zone latency stretches DHT routing and chunk fetches alike;")
	fmt.Println("bandwidth heterogeneity shifts load toward fiber uplinks via the")
	fmt.Println("coordinators' bandwidth-aware provider selection (§III-B2).")
}
