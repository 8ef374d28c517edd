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

	"dco/internal/churn"
	"dco/internal/core"
	"dco/internal/metrics"
	"dco/internal/overlay"
	"dco/internal/sim"
	"dco/internal/simnet"
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

	k := sim.NewKernel(*seed)
	var (
		log      *metrics.DeliveryLog
		net      *simnet.Network
		end      time.Duration
		received int64
	)

	switch *method {
	case "dco":
		cfg := core.DefaultConfig()
		cfg.Neighbors = *neighbors
		cfg.Stream.Count = *chunks
		cfg.UseFingers = *fingers
		cfg.Maintenance = *doChurn
		cfg.Hierarchy.Enabled = *hier
		cfg.Hierarchy.InitialCoordinators = *coords
		s := core.NewSystem(k, cfg, *n)
		if *showTrace {
			s.Trace = telemetry.NewTrace(4096)
			s.Trace.SetClock(func() time.Time { return time.Unix(0, 0).Add(k.Now()) })
		}
		if *doChurn {
			s.DisableCompletionStop()
			d := churn.NewDriver(k, churn.Config{MeanLife: *life, MeanJoin: *life / time.Duration(*n-1), GracefulFrac: 0.5},
				func() churn.Peer { return s.SpawnPeer() })
			for _, p := range s.Peers() {
				if p.Alive() && p.ID() != s.Server().ID() {
					d.Track(p)
				}
			}
			d.StartArrivals()
		}
		end = s.Run(*horizon)
		log, net, received = s.Log, s.Net, s.ReceivedTotal()
		fmt.Printf("coordinators: %d  dropped-routes: %d\n", len(s.Coordinators()), s.DroppedRoutes())
		if s.Trace != nil {
			fmt.Println("protocol events:")
			counts := s.Trace.Counts()
			for _, kind := range telemetry.KindsByCount(counts) {
				fmt.Printf("%10d  %s\n", counts[kind], kind)
			}
		}
	case "pull", "push", "tree":
		kind := overlay.Pull
		switch *method {
		case "push":
			kind = overlay.Push
		case "tree":
			kind = overlay.Tree
		}
		cfg := overlay.DefaultConfig(kind)
		cfg.Neighbors = *neighbors
		cfg.Stream.Count = *chunks
		s := overlay.NewSystem(k, cfg, *n)
		if *doChurn {
			s.DisableCompletionStop()
			d := churn.NewDriver(k, churn.Config{MeanLife: *life, MeanJoin: *life / time.Duration(*n-1), GracefulFrac: 0.5},
				func() churn.Peer { return s.SpawnPeer() })
			for _, nd := range s.ViewerPeers() {
				d.Track(nd)
			}
			d.StartArrivals()
		}
		end = s.Run(*horizon)
		log, net, received = s.Log, s.Net, s.ReceivedTotal()
		fmt.Printf("duplicate chunks: %d\n", s.Duplicates())
	default:
		fmt.Fprintf(os.Stderr, "dcosim: unknown method %q\n", *method)
		os.Exit(2)
	}

	mean, complete, total := log.MeshDelay()
	dataMsgs, dataBits := net.DataStats()
	fmt.Printf("method=%s n=%d neighbors=%d chunks=%d churn=%v\n", *method, *n, *neighbors, *chunks, *doChurn)
	fmt.Printf("virtual end time:        %v\n", end)
	fmt.Printf("chunk deliveries:        %d\n", received)
	fmt.Printf("mesh delay (complete):   %v over %d/%d chunks\n", mean, complete, total)
	fmt.Printf("fill ratio @2s:          %.3f\n", log.MeanFillRatioAfter(2*time.Second))
	fmt.Printf("fill ratio @10s:         %.3f\n", log.MeanFillRatioAfter(10*time.Second))
	fmt.Printf("extra overhead:          %d messages\n", net.Overhead())
	fmt.Printf("chunk traffic:           %d transfers, %.1f Mbit\n", dataMsgs, float64(dataBits)/1e6)
	fmt.Printf("%% received (at horizon): %.2f%%\n", log.ReceivedPercent(*horizon))

	if *jsonOut != "" {
		res := simResult{
			Method:          *method,
			N:               *n,
			Neighbors:       *neighbors,
			Chunks:          *chunks,
			Seed:            *seed,
			Churn:           *doChurn,
			EndSeconds:      end.Seconds(),
			Deliveries:      received,
			MeshDelaySec:    mean.Seconds(),
			CompleteChunks:  complete,
			TotalChunks:     total,
			FillRatio2s:     log.MeanFillRatioAfter(2 * time.Second),
			FillRatio10s:    log.MeanFillRatioAfter(10 * time.Second),
			OverheadMsgs:    net.Overhead(),
			DataTransfers:   dataMsgs,
			DataMbit:        float64(dataBits) / 1e6,
			ReceivedPercent: log.ReceivedPercent(*horizon),
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
