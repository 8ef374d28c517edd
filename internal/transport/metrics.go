package transport

import (
	"time"

	"dco/internal/telemetry"
	"dco/internal/wire"
)

// Metrics meters a transport: call counts and latency on the client side,
// frame and byte counts in both directions, and the paper's control-vs-data
// split (chunk-bearing frames are data; everything else — routing,
// stabilization, index maintenance — is the overlay's "extra overhead").
// A nil *Metrics is a valid no-op, so transports meter unconditionally.
type Metrics struct {
	Calls      *telemetry.Counter
	CallErrors *telemetry.Counter
	Dials      *telemetry.Counter
	PoolHits   *telemetry.Counter

	FramesOut *telemetry.Counter
	FramesIn  *telemetry.Counter
	BytesOut  *telemetry.Counter
	BytesIn   *telemetry.Counter

	// DataBytes* counts bytes of chunk-bearing frames (wire.KindChunkResp)
	// only; control bytes are the total minus these.
	DataBytesOut *telemetry.Counter
	DataBytesIn  *telemetry.Counter

	CallSeconds *telemetry.Histogram
}

// NewMetrics registers the transport metric set on reg (nil reg returns a
// no-op Metrics) and a derived `dco_transport_overhead_ratio` gauge:
// control bytes over data bytes across both directions — the live
// analogue of the paper's extra-overhead metric, as a byte ratio.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	m := &Metrics{
		Calls:        reg.Counter("dco_transport_calls_total"),
		CallErrors:   reg.Counter("dco_transport_call_errors_total"),
		Dials:        reg.Counter("dco_transport_dials_total"),
		PoolHits:     reg.Counter("dco_transport_pool_hits_total"),
		FramesOut:    reg.Counter("dco_transport_frames_out_total"),
		FramesIn:     reg.Counter("dco_transport_frames_in_total"),
		BytesOut:     reg.Counter("dco_transport_bytes_out_total"),
		BytesIn:      reg.Counter("dco_transport_bytes_in_total"),
		DataBytesOut: reg.Counter("dco_transport_data_bytes_out_total"),
		DataBytesIn:  reg.Counter("dco_transport_data_bytes_in_total"),
		CallSeconds:  reg.Histogram("dco_transport_call_seconds", telemetry.DefLatencyBuckets),
	}
	if reg != nil {
		reg.GaugeFunc("dco_transport_overhead_ratio", m.OverheadRatio)
	}
	return m
}

// OverheadRatio returns control bytes / data bytes over both directions
// (0 until any data byte moves).
func (m *Metrics) OverheadRatio() float64 {
	if m == nil {
		return 0
	}
	total := m.BytesOut.Value() + m.BytesIn.Value()
	data := m.DataBytesOut.Value() + m.DataBytesIn.Value()
	if data == 0 {
		return 0
	}
	return float64(total-data) / float64(data)
}

// noteOut records one outbound frame of n bytes carrying kind.
func (m *Metrics) noteOut(kind wire.Kind, n int) {
	if m == nil || n <= 0 {
		return
	}
	m.FramesOut.Inc()
	m.BytesOut.Add(uint64(n))
	if kind == wire.KindChunkResp {
		m.DataBytesOut.Add(uint64(n))
	}
}

// noteIn records one inbound frame of n bytes carrying kind (KindInvalid
// when the frame failed to decode — still bytes on the wire).
func (m *Metrics) noteIn(kind wire.Kind, n int) {
	if m == nil || n <= 0 {
		return
	}
	m.FramesIn.Inc()
	m.BytesIn.Add(uint64(n))
	if kind == wire.KindChunkResp {
		m.DataBytesIn.Add(uint64(n))
	}
}

func (m *Metrics) notePoolHit() {
	if m != nil {
		m.PoolHits.Inc()
	}
}

func (m *Metrics) noteDial() {
	if m != nil {
		m.Dials.Inc()
	}
}

// noteCall records one client-side call outcome and its latency.
func (m *Metrics) noteCall(start time.Time, err error) {
	if m == nil {
		return
	}
	m.Calls.Inc()
	if err != nil {
		m.CallErrors.Inc()
	}
	m.CallSeconds.Observe(time.Since(start).Seconds())
}
