// Package churn drives node arrivals and departures with the model of the
// paper's §IV-D: node life spans drawn from an exponential distribution
// (mean 60–120 s) and join intervals from the same distribution, so the
// network scale stays roughly stationary while membership turns over.
package churn

import (
	"time"

	"dco/internal/sim"
)

// Peer is whatever the overlay under test uses to represent a member that
// churn can remove.
type Peer interface {
	// Depart removes the peer. graceful=true is an announced leave;
	// graceful=false is an abrupt failure detected only by timeouts.
	Depart(graceful bool)
}

// Config parameterizes the churn process.
type Config struct {
	MeanLife     time.Duration // exponential mean session length
	MeanJoin     time.Duration // exponential mean inter-arrival gap
	GracefulFrac float64       // fraction of departures that are graceful (rest fail abruptly)
}

// Driver schedules departures for existing peers and arrivals of new ones.
type Driver struct {
	K     *sim.Kernel
	Cfg   Config
	Spawn func() Peer // creates and joins a fresh peer; nil return = skip

	departures uint64
	arrivals   uint64
	stopped    bool
}

// NewDriver returns a driver; call Seed for the initial population and
// StartArrivals to begin the arrival process.
func NewDriver(k *sim.Kernel, cfg Config, spawn func() Peer) *Driver {
	if cfg.GracefulFrac < 0 || cfg.GracefulFrac > 1 {
		panic("churn: GracefulFrac outside [0,1]")
	}
	return &Driver{K: k, Cfg: cfg, Spawn: spawn}
}

// Seed assigns an exponential residual lifetime to each existing peer. The
// memorylessness of the exponential makes residual and full lifetimes
// identically distributed, so this matches the paper's stationary regime.
func (d *Driver) Seed(peers []Peer) {
	for _, p := range peers {
		d.scheduleDeparture(p)
	}
}

// Track schedules a departure for one peer joined outside the driver.
func (d *Driver) Track(p Peer) { d.scheduleDeparture(p) }

func (d *Driver) scheduleDeparture(p Peer) {
	d.K.After(d.K.Exponential(d.Cfg.MeanLife), func() {
		if d.stopped {
			return
		}
		graceful := d.K.Rand().Float64() < d.Cfg.GracefulFrac
		d.departures++
		p.Depart(graceful)
	})
}

// StartArrivals begins the exponential arrival process; the first arrival
// comes one exponential gap after virtual time zero.
func (d *Driver) StartArrivals() {
	if d.Spawn == nil {
		return
	}
	var arrive func()
	arrive = func() {
		if d.stopped {
			return
		}
		if p := d.Spawn(); p != nil {
			d.arrivals++
			d.scheduleDeparture(p)
		}
		d.K.After(d.K.Exponential(d.Cfg.MeanJoin), arrive)
	}
	d.K.At(d.K.Exponential(d.Cfg.MeanJoin), arrive)
}

// Stop halts all future churn events; k.At(t, d.Stop) ends churn at t.
func (d *Driver) Stop() { d.stopped = true }

// Stats reports how many departures and arrivals the driver has executed.
func (d *Driver) Stats() (departures, arrivals uint64) { return d.departures, d.arrivals }
