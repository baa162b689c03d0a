package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile. A tail resting on fewer is one or two unlucky requests, not
// a property of the system, and swings from run to run.
const minBeyond = 10

// rank is the 1-based nearest-rank index of percentile p in n samples.
func rank(p float64, n int) int {
	k := int(math.Ceil(p * float64(n)))
	if k < 1 {
		k = 1
	}
	return k
}

// minSamples is the smallest sample count whose p-th percentile leaves
// beyond samples above it.
func minSamples(p float64, beyond int) int {
	n := beyond + 1
	for n-rank(p, n) < beyond {
		n++
	}
	return n
}

// quantile is the nearest-rank p-th percentile of xs. It refuses a
// percentile that leaves fewer than beyond samples above it; a median
// (beyond 0) needs only one sample.
func quantile(xs []time.Duration, p float64, beyond int) (time.Duration, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p*100)
	}
	k := rank(p, n)
	if n-k < beyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, want at least %d", p*100, n, n-k, beyond)
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[k-1], nil
}

// median is the nearest-rank median, or 0 for no samples.
func median(xs []time.Duration) time.Duration {
	m, err := quantile(xs, 0.5, 0)
	if err != nil {
		return 0
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pctName renders a percentile for the output, e.g. 0.95 -> "p95".
func pctName(p float64) string { return fmt.Sprintf("p%g", p*100) }
