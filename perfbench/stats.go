package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// percentile returns the p-th percentile (0..100) of sorted samples by
// nearest rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps float rounding from pushing an exact rank up one.
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercentile is the percentile reported as a run's tail: 99, or,
// when fewer than 100·minBeyond samples exist, the highest percentile
// that still has minBeyond samples beyond it.
func tailPercentile(n int) float64 {
	if n <= minBeyond {
		return 50
	}
	p := 100 * (1 - float64(minBeyond)/float64(n))
	if p > 99 {
		p = 99
	}
	if p < 50 {
		p = 50
	}
	return p
}

// latencies collects per-request latencies in milliseconds.
type latencies struct{ ms []float64 }

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, float64(d)/float64(time.Millisecond)) }

// summary returns the median, the reported tail, the tail's percentile
// and the sample count.
func (l *latencies) summary() (p50, tail, tailP float64, n int) {
	s := append([]float64(nil), l.ms...)
	sort.Float64s(s)
	tailP = tailPercentile(len(s))
	return percentile(s, 50), percentile(s, tailP), tailP, len(s)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
