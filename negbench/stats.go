package main

import (
	"fmt"
	"sort"
)

// minBeyond is how many samples must lie beyond a distribution percentile
// before the benchmark reports it. A p99 therefore needs 1,000 samples and a
// p50 needs 20.
const minBeyond = 10

// rank returns the 1-based nearest-rank index of percentile p (0 < p ≤ 100)
// in n sorted samples: ⌈p·n/100⌉, computed in integers so that, say, p99 of
// 1,000 samples is exactly rank 990.
func rank(p, n int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// percentile is the benchmark's single quantile definition: the nearest-rank
// p-th percentile of xs (which it sorts in place). ok is false when fewer
// than minBeyond samples lie beyond the rank, in which case the percentile
// must not be reported.
func percentile(xs []float64, p int) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	r := rank(p, n)
	return xs[r-1], n-r >= minBeyond
}

// median summarizes a handful of repeated runs (mine times, set-up times)
// with the same nearest-rank rule. Run summaries are exempt from the
// minBeyond rule: they are medians of repeats, not tails of a distribution,
// and are always printed with their n.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := percentile(xs, 50)
	return v
}

// dist is a named sample set whose percentiles are printed with their n.
type dist struct {
	name string
	xs   []float64
}

// pct returns percentile p of d, or an error naming the shortfall.
func (d dist) pct(p int) (float64, error) {
	xs := append([]float64(nil), d.xs...)
	v, ok := percentile(xs, p)
	if !ok {
		return 0, fmt.Errorf("%s: p%d needs %d samples beyond it, have n=%d", d.name, p, minBeyond, len(d.xs))
	}
	return v, nil
}
