package main

import (
	"math"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{5000, 0.99, 4950, true},
		{0, 0.50, 0, false},
	} {
		got, ok := percentile(ramp(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(xs, n=4) in CPython.
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{ramp(10), 2.75, 8.25},
		{ramp(4), 1.25, 3.75},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2, 9}, 0.25, 10.75}, // the exclusive method extrapolates
		{[]float64{10.2, 9.8, 10.0, 10.4, 9.9, 10.1, 10.3}, 9.9, 10.3},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestMedianDoesNotReorder(t *testing.T) {
	xs := []float64{3, 1, 2, 4}
	if m := median(xs); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
	if xs[0] != 3 {
		t.Error("median sorted its input")
	}
}
