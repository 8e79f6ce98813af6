package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by the exclusive method — position
// q·(n+1), linearly interpolated and clamped to the sample range — the
// method Python's statistics.quantiles uses by default, so quartiles printed
// here match the ones a reader computes from the same values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	h := q * float64(n+1)
	j := int(math.Floor(h))
	switch {
	case j < 1:
		return s[0]
	case j >= n:
		return s[n-1]
	}
	return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLevels are the percentiles a tail may be reported at, highest first.
var tailLevels = []struct {
	q     float64
	label string
}{
	{0.9999, "p99.99"}, {0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}, {0.5, "p50"},
}

// tailRule picks the highest percentile that still has at least ten samples
// beyond it among n samples; ok is false when not even the median does.
func tailRule(n int) (q float64, label string, ok bool) {
	for _, l := range tailLevels {
		if float64(n)*(1-l.q) >= 10-1e-9 {
			return l.q, l.label, true
		}
	}
	return 0, "", false
}

// tailSummary renders a sample's median and its rule-chosen tail with the
// sample count, for the human-readable report.
func tailSummary(xs []float64) string {
	if len(xs) == 0 {
		return "n=0"
	}
	s := fmt.Sprintf("p50=%.4g n=%d", median(xs), len(xs))
	if q, label, ok := tailRule(len(xs)); ok && q > 0.5 {
		s += fmt.Sprintf(" %s=%.4g", label, quantile(xs, q))
	}
	return s
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// unattributedFrac adds the per-layer busy times of one fit and returns the
// share of the wall time no layer accounts for. A negative share means the
// layers overlap or double-count.
func unattributedFrac(wall float64, layers ...float64) float64 {
	if wall <= 0 {
		return 0
	}
	sum := 0.0
	for _, l := range layers {
		sum += l
	}
	return 1 - sum/wall
}
