// Tests of the public facade: everything a downstream user touches should
// be reachable through package dco alone.
package dco_test

import (
	"testing"
	"time"

	"dco"
	"dco/internal/transport"
)

func TestPublicSimulationAPI(t *testing.T) {
	k := dco.NewKernel(42)
	cfg := dco.DefaultConfig()
	cfg.Stream.Count = 8
	cfg.Neighbors = 8
	sys := dco.NewDCO(k, cfg, 24)
	end := sys.Run(120 * time.Second)
	if end <= 0 {
		t.Fatal("simulation did not advance")
	}
	delay, complete, total := sys.Log.MeshDelay()
	if complete != total || total != 8 {
		t.Fatalf("delivery incomplete: %d/%d", complete, total)
	}
	if delay <= 0 {
		t.Fatal("zero mesh delay is impossible")
	}
	if sys.Net.Overhead() == 0 {
		t.Fatal("DCO must spend control messages")
	}
}

func TestPublicBaselineAPI(t *testing.T) {
	for _, kind := range []dco.BaselineKind{dco.Pull, dco.Push, dco.Tree} {
		k := dco.NewKernel(42)
		cfg := dco.DefaultBaselineConfig(kind)
		cfg.Stream.Count = 8
		cfg.Neighbors = 4
		if kind == dco.Tree {
			cfg.Neighbors = 2
		}
		sys := dco.NewBaseline(k, cfg, 24)
		sys.Run(200 * time.Second)
		if sys.ReceivedTotal() != 23*8 {
			t.Fatalf("%v incomplete: %d", kind, sys.ReceivedTotal())
		}
	}
}

func TestPublicFigureAPI(t *testing.T) {
	ids := dco.FigureIDs()
	if len(ids) != 8 {
		t.Fatalf("figure ids = %v", ids)
	}
	if _, ok := dco.RunFigure("nope", dco.FigureParams{}); ok {
		t.Fatal("unknown figure accepted")
	}
	r, ok := dco.RunFigure("10", dco.FigureParams{N: 24, Chunks: 8, Seed: 1, Horizon: 120 * time.Second})
	if !ok || len(r.Rows) == 0 {
		t.Fatal("figure 10 produced nothing")
	}
}

func TestPublicChunkNaming(t *testing.T) {
	ref := dco.ChunkRef{Channel: "CNN", Seq: 240}
	if dco.HashChunkName(ref.Name()) != ref.ID() {
		t.Fatal("facade hash disagrees with ChunkRef.ID")
	}
}

func TestPublicLiveAPI(t *testing.T) {
	fabric := transport.NewFabric()
	cfg := dco.DefaultLiveConfig()
	cfg.Source = true
	cfg.Channel.Count = 5
	cfg.Channel.Period = 30 * time.Millisecond
	cfg.Channel.ChunkBits = 8 * 1024
	src, err := dco.NewLiveNode(cfg, func(h dco.TransportHandler) (dco.Transport, error) {
		return fabric.Attach(h), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	vcfg := cfg
	vcfg.Source = false
	viewer, err := dco.NewLiveNode(vcfg, func(h dco.TransportHandler) (dco.Transport, error) {
		return fabric.Attach(h), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := viewer.Join(src.Addr()); err != nil {
		t.Fatal(err)
	}
	src.Start()
	viewer.Start()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) && viewer.ChunkCount() < 5 {
		time.Sleep(20 * time.Millisecond)
	}
	src.Close()
	viewer.Close()
	if viewer.ChunkCount() < 5 {
		t.Fatalf("viewer got %d of 5 chunks through the public API", viewer.ChunkCount())
	}
}

func TestPublicChurnAPI(t *testing.T) {
	k := dco.NewKernel(7)
	cfg := dco.DefaultConfig()
	cfg.Stream.Count = 20
	cfg.Neighbors = 8
	cfg.Maintenance = true
	sys := dco.NewDCO(k, cfg, 32)
	sys.DisableCompletionStop()
	d := dco.NewChurnDriver(k, dco.ChurnConfig{
		MeanLife: 60 * time.Second,
		MeanJoin: 60 * time.Second / 31,
	}, func() dco.ChurnPeer { return sys.SpawnPeer() })
	for _, p := range sys.ViewerPeers() {
		d.Track(p)
	}
	d.StartArrivals()
	sys.Run(80 * time.Second)
	if pct := sys.Log.ReceivedPercent(80 * time.Second); pct < 50 {
		t.Fatalf("churn delivery %.1f%%", pct)
	}
}
