package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted by linear interpolation
// between order statistics. Empty input gives 0.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// quartiles returns Q1, median and Q3 of v by the exclusive method, the
// one Python's statistics.quantiles(v, n=4) uses, so spreads computed here
// read the same as the ones the acceptance driver computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	m := len(s)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), quantile(s, 0.5), cut(3)
}

// spread is the inter-quartile distance as a share of the median: the
// run-to-run noise figure every bound in BENCHMARK.json is judged against.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// supportedTail returns the highest candidate percentile not above want
// that still has at least ten of n samples beyond it (a p99 of 200 samples
// is two outliers, not a percentile). With too few samples for any
// candidate it falls back to the median.
func supportedTail(n int, want float64) float64 {
	for _, p := range tailPercentiles {
		if p <= want && float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// tailOf is the want-th percentile of sorted, or the highest candidate below
// it that the sample supports.
func tailOf(sorted []float64, want float64) float64 {
	return quantile(sorted, supportedTail(len(sorted), want)/100)
}

// latencySample is a set of per-operation latencies in which operations
// that never completed (or completed past the horizon) rank above every
// measured value.
type latencySample struct {
	ok     []float64 // completed, any order
	missed int       // never completed: +Inf for ranking purposes
}

func (l *latencySample) n() int { return len(l.ok) + l.missed }

// percentile returns the p-th percentile (0..100) by nearest rank over
// completed and missed operations together; a rank that lands among the
// missed ones reports ceiling, the value a miss is charged.
func (l *latencySample) percentile(p, ceiling float64) float64 {
	n := l.n()
	if n == 0 {
		return 0
	}
	s := sortedCopy(l.ok)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		return ceiling
	}
	return s[rank-1]
}
