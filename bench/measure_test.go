package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{7}, 7, 7},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedianAndSummarize(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
	d := summarize([]float64{10, 12, 11, 9, 8})
	if d.N != 5 || d.Min != 8 || d.Max != 12 || d.Median != 10 {
		t.Errorf("summarize = %+v", d)
	}
	if got, want := d.relIQR(), (d.Q3-d.Q1)/10; got != want {
		t.Errorf("relIQR = %v, want %v", got, want)
	}
	if d.Samples[0] != 10 {
		t.Errorf("samples must keep rep order, got %v", d.Samples)
	}
}

func TestPercentileSampleCountRule(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{10_000, 99.9, true},
		{9_999, 99.9, false},
		{100, 90, true},
		{99, 90, false},
		{20, 50, true},
		{19, 50, false},
	}
	for _, c := range cases {
		if got := percentileReportable(c.n, c.p); got != c.want {
			t.Errorf("percentileReportable(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for p, want := range map[float64]int64{0: 1, 50: 50, 99: 99, 99.9: 100, 100: 100} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", p, got, want)
		}
	}
}
