//go:build race

// Package israce reports whether the race detector is compiled in. Tests
// that hold code to an allocation budget skip under it: a sync.Pool drops
// a share of what it is given when the detector is on, so pooled buffers
// are allocated afresh at random.
package israce

// Enabled is true when the build has -race.
const Enabled = true
