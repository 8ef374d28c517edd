package stream

// PrefetchConfig parameterizes the adaptive prefetching window of §III-B2.
type PrefetchConfig struct {
	// BaseWindow is W in Eq. (2): the system-wide predefined prefetching
	// window, sized to cover the DHT's log n lookup delay. UUSee's typical
	// value is 20 s (≈60 chunks of 1/3 s); with the paper's 1-second chunks
	// we default to 20 chunks.
	BaseWindow int
	// AvgBandwidthBps is B in Eq. (2): the network-wide average download
	// bandwidth.
	AvgBandwidthBps int64
	// MinWindow / MaxWindow clamp the adapted size so a node with pathological
	// failure rates cannot demand the entire stream at once.
	MinWindow, MaxWindow int
}

// DefaultPrefetchConfig matches the paper's simulation: 600 kbps peers.
func DefaultPrefetchConfig() PrefetchConfig {
	return PrefetchConfig{BaseWindow: 20, AvgBandwidthBps: 600_000, MinWindow: 4, MaxWindow: 120}
}

// Window computes Eq. (2):
//
//	W_pf = W * B / (b * (1 - p_f))
//
// where b is this node's download bandwidth and p_f the chunk-fetch failure
// probability it has observed. Slower or failure-prone nodes prefetch
// further ahead. The result is clamped to [MinWindow, MaxWindow].
func (c PrefetchConfig) Window(downloadBps int64, failureProb float64) int {
	if downloadBps <= 0 {
		return c.MaxWindow
	}
	if failureProb < 0 {
		failureProb = 0
	}
	if failureProb > 0.99 {
		failureProb = 0.99
	}
	w := float64(c.BaseWindow) * float64(c.AvgBandwidthBps) /
		(float64(downloadBps) * (1 - failureProb))
	n := int(w + 0.5)
	if n < c.MinWindow {
		n = c.MinWindow
	}
	if c.MaxWindow > 0 && n > c.MaxWindow {
		n = c.MaxWindow
	}
	return n
}

// FailureTracker keeps a node's running estimate of p_f, the probability of
// chunk-fetch failure, over an exponentially weighted window.
type FailureTracker struct {
	alpha float64 // EWMA weight for new samples
	p     float64
	n     int
}

// NewFailureTracker returns a tracker; alpha in (0,1] weights recent
// fetches (0.1 ≈ remember the last ~10 fetches).
func NewFailureTracker(alpha float64) *FailureTracker {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.1
	}
	return &FailureTracker{alpha: alpha}
}

// Record notes the outcome of one fetch attempt.
func (f *FailureTracker) Record(failed bool) {
	x := 0.0
	if failed {
		x = 1.0
	}
	if f.n == 0 {
		f.p = x
	} else {
		f.p = f.alpha*x + (1-f.alpha)*f.p
	}
	f.n++
}

// Prob returns the current failure-probability estimate.
func (f *FailureTracker) Prob() float64 { return f.p }

// Samples returns how many fetches have been recorded.
func (f *FailureTracker) Samples() int { return f.n }
