package main

import (
	"math"
	"testing"
)

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuantileMatchesPythonExclusiveMethod(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ q, want float64 }{{0.25, 2.75}, {0.5, 5.5}, {0.75, 8.25}, {0.01, 1}, {0.99, 10}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{4}, 0.99); got != 4 {
		t.Errorf("single sample: %v", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty sample should have no quantile")
	}
}

// A tail is reported at the highest percentile that still has at least ten
// samples beyond it.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n     int
		label string
		ok    bool
	}{
		{0, "", false},
		{19, "", false},
		{20, "p50", true},
		{99, "p50", true},
		{100, "p90", true},
		{999, "p90", true},
		{1000, "p99", true},
		{9999, "p99", true},
		{10000, "p99.9", true},
		{100000, "p99.99", true},
	} {
		_, label, ok := tailRule(c.n)
		if label != c.label || ok != c.ok {
			t.Errorf("tailRule(%d) = %q %v, want %q %v", c.n, label, ok, c.label, c.ok)
		}
	}
}

func TestTailSummaryReportsSampleCount(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got, want := tailSummary(xs), "p50=500.5 n=1000 p99=991"; got != want {
		t.Errorf("tailSummary = %q, want %q", got, want)
	}
	if got, want := tailSummary(xs[:5]), "p50=3 n=5"; got != want {
		t.Errorf("tailSummary of 5 = %q, want %q", got, want)
	}
}
