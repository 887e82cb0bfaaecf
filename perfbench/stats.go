package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a timing's tail may be reported at.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// Tail is a percentile of a sample together with the evidence behind it.
type Tail struct {
	P     float64 // the percentile reported
	Value float64 // the sample value at P
	N     int     // sample count
}

// rank returns the 1-based nearest-rank index of percentile p in n samples.
func rank(p float64, n int) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	return k
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// tail picks the highest percentile of tailLadder, at most max, that still
// has at least ten samples beyond it. With fewer than eleven samples no
// percentile qualifies and the median is reported.
func tail(sorted []float64, max float64) Tail {
	t := Tail{P: 50, N: len(sorted)}
	for _, p := range tailLadder {
		if p > max {
			break
		}
		if len(sorted)-rank(p, len(sorted)) >= 10 {
			t.P = p
		}
	}
	t.Value = percentile(sorted, t.P)
	return t
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// overhead is the relative cost tracing added to a metric: traced over
// untraced, minus one. For a higher-is-better metric the ratio is inverted,
// so a positive result always means tracing made things worse.
func overhead(untraced, traced float64, higherIsBetter bool) float64 {
	if untraced == 0 || traced == 0 {
		return 0
	}
	if higherIsBetter {
		return untraced/traced - 1
	}
	return traced/untraced - 1
}
