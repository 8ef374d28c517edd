package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
)

// benchSpec mirrors BENCHMARK.json, the contract between this harness and
// whatever drives it: which workloads exist, which metrics are end-to-end
// (with the share of the baseline median each may worsen by) and which are
// per-layer.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) workload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// maxBound is the widest regression bound the contract lets a metric carry.
const maxBound = 0.25

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// lint checks the spec against the limits its consumers impose, against
// the harness's own catalog, and against the measured noise table its
// bounds must cover; it returns every problem found.
func (s *benchSpec) lint(noise map[string]map[string]float64) []string {
	var bad []string
	add := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 {
		add("%d workloads, want 2..8", len(s.Workloads))
	}
	if len(s.EndToEnd) < 1 || len(s.EndToEnd) > 16 {
		add("%d end-to-end metrics, want 1..16", len(s.EndToEnd))
	}
	if len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		add("%d per-layer metrics, want 1..128", len(s.PerLayer))
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		add("run_seconds %d, want 1..60", s.RunSeconds)
	}
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			add("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
		}
		if seen[n] {
			add("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range s.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			add("workload %s: why must be one line of 1..200 characters", w.Name)
		}
		if _, live := liveSpecs[w.Name]; !live && w.Name != "sim_paper512" {
			add("workload %s is not one the harness runs", w.Name)
		}
	}
	metric := func(m specMetric, endToEnd bool) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			add("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			add("metric %s: better %q", m.Name, m.Better)
		}
		switch {
		case endToEnd && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > maxBound):
			add("metric %s: bound must be in (0, %g]", m.Name, maxBound)
		case !endToEnd && m.Bound != nil:
			add("metric %s: per-layer metrics carry no bound", m.Name)
		}
		d, ok := catalogByName[m.Name]
		switch {
		case !ok:
			add("metric %s is not in the harness catalog", m.Name)
		case d.unit != m.Unit || d.better != m.Better:
			add("metric %s: spec says %s/%s, catalog %s/%s", m.Name, m.Unit, m.Better, d.unit, d.better)
		case endToEnd && d.tier != tierUser:
			add("metric %s comes from the traced run and cannot be end-to-end", m.Name)
		}
	}
	for _, m := range s.EndToEnd {
		metric(m, true)
		// An end-to-end metric is judged by one bound on every workload: it
		// must have been measured on each, and the bound must stand three
		// noise widths off the noisiest, or at the cap.
		for _, w := range s.Workloads {
			n, measured := noise[w.Name][m.Name]
			switch {
			case !measured:
				add("end-to-end metric %s has no measured noise on %s", m.Name, w.Name)
			case m.Bound != nil && *m.Bound < math.Min(maxBound, 3*n):
				add("end-to-end metric %s: bound %g is under 3 x its noise %g on %s", m.Name, *m.Bound, n, w.Name)
			}
		}
	}
	for _, m := range s.PerLayer {
		metric(m, false)
	}
	for _, d := range catalog {
		if !seen[d.name] {
			add("catalog metric %s is missing from the spec", d.name)
		}
	}
	for w, metrics := range noise {
		if !s.workload(w) {
			add("noise table names workload %s, which the spec lacks", w)
		}
		for name := range metrics {
			if d, ok := catalogByName[name]; !ok || d.tier != tierUser {
				add("noise table names %s on %s, which is not a user-visible metric", name, w)
			}
		}
	}
	return bad
}
