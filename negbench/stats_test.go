package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so percentile must sort
	}
	return xs
}

func TestRankIsCeiling(t *testing.T) {
	for _, c := range []struct{ p, n, want int }{
		{50, 20, 10}, {50, 21, 11}, {99, 1000, 990}, {99, 1001, 991},
		{99, 100, 99}, {50, 1, 1}, {1, 10, 1}, {100, 7, 7},
	} {
		if got := rank(c.p, c.n); got != c.want {
			t.Errorf("rank(%d, %d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v, ok := percentile(seq(1000), 99)
	if v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	v, ok = percentile(seq(20), 50)
	if v != 10 || !ok {
		t.Errorf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	if _, ok := percentile(seq(999), 99); ok {
		t.Error("p99 of 999 samples has 9 beyond it and must not be reported")
	}
	if _, ok := percentile(seq(19), 50); ok {
		t.Error("p50 of 19 samples has 9 beyond it and must not be reported")
	}
	if _, err := (dist{name: "x", xs: seq(999)}).pct(99); err == nil {
		t.Error("dist.pct must refuse a p99 of 999 samples")
	}
}

func TestMedianOfRuns(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{[]float64{3}, 3}, {[]float64{5, 1}, 1}, {[]float64{2, 9, 4}, 4}, {nil, 0}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
