package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndQuartiles(t *testing.T) {
	// Expected quartiles are what Python's statistics.quantiles(xs, n=4)
	// returns for the same data.
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{2, 1}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{10, 1, 4, 2, 8}, 4, 1.5, 9},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{2.7, 2.6, 3.1, 2.65, 2.72, 2.9, 2.61, 2.8, 2.75, 2.68}, 2.71, 2.64, 2.825},
	}
	for _, c := range cases {
		orig := append([]float64(nil), c.xs...)
		if got := median(c.xs); !near(got, c.med) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
		for i := range orig {
			if orig[i] != c.xs[i] {
				t.Fatalf("input reordered: %v -> %v", orig, c.xs)
			}
		}
	}
	if median(nil) != 0 {
		t.Error("median of nothing must be 0")
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99},
		{10000, 99.9}, {100000, 99.99},
	}
	for _, c := range cases {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// 2000 samples 1..2000: p99 is supported (20 beyond) and is the 1980th.
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(2000 - i)
	}
	if v, used := tailValue(xs, 99); v != 1980 || used != 99 {
		t.Errorf("tailValue(2000 samples, 99) = %v at p%v, want 1980 at p99", v, used)
	}
	// 200 samples cannot support p99; the value falls back to p90.
	if v, used := tailValue(xs[:200], 99); used != 90 || v != 1980 {
		t.Errorf("tailValue(200 samples, 99) = %v at p%v, want 1980 at p90", v, used)
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(a, b int) interval {
		return interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
	}
	cases := []struct {
		name     string
		parent   interval
		children []interval
		want     int // ms
	}{
		{"no children", ms(0, 100), nil, 100},
		{"disjoint children", ms(0, 100), []interval{ms(10, 20), ms(50, 70)}, 70},
		{"overlapping children count once", ms(0, 100), []interval{ms(10, 40), ms(30, 60)}, 50},
		{"nested child adds nothing", ms(0, 100), []interval{ms(10, 60), ms(20, 30)}, 50},
		{"children clipped to the parent", ms(50, 100), []interval{ms(0, 60), ms(90, 150)}, 30},
		{"child outside the parent", ms(50, 100), []interval{ms(0, 10)}, 50},
		{"unsorted input", ms(0, 100), []interval{ms(80, 90), ms(0, 10)}, 80},
		{"fully covered", ms(0, 100), []interval{ms(0, 50), ms(50, 100)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(c.parent, c.children); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: self time %v, want %dms", c.name, got, c.want)
		}
	}
}

func TestBoundRule(t *testing.T) {
	wall, _ := lookupMetric("wall_s")     // lower is better, 10 %
	work, _ := lookupMetric("work_per_s") // higher is better, 10 %
	setup, _ := lookupMetric("setup_s")   // lower is better, 25 % and 50 ms
	cases := []struct {
		m         metricDef
		base, cur float64
		want      bool
	}{
		{wall, 3.0, 3.74, false},
		{wall, 3.0, 3.76, true},
		{wall, 3.0, 2.0, false},
		{work, 1000, 755, false},
		{work, 1000, 745, true},
		{work, 1000, 2000, false},
		// 30 % worse but only 30 ms: inside the absolute slack.
		{setup, 0.100, 0.130, false},
		// 60 % worse and 60 ms: beyond both.
		{setup, 0.100, 0.160, true},
		// 100 ms worse but only 5 %: inside the relative bound.
		{setup, 2.0, 2.1, false},
		{setup, 2.0, 2.6, true},
	}
	for _, c := range cases {
		if got := regressed(c.m, c.base, c.cur); got != c.want {
			t.Errorf("regressed(%s, %v -> %v) = %v, want %v", c.m.Name, c.base, c.cur, got, c.want)
		}
	}
	if w := worsening(work, 1000, 900); !near(w, 0.1) {
		t.Errorf("worsening of a higher-is-better metric falling 10%% = %v, want 0.1", w)
	}
}

func TestBestTenth(t *testing.T) {
	var xs []float64
	for i := 40; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	cases := []struct {
		xs     []float64
		better string
		want   float64
	}{
		{nil, "lower", 0},
		{[]float64{3, 1, 2}, "lower", 1},
		{[]float64{3, 1, 2}, "higher", 3},
		{xs[:10], "lower", 31},
		{xs[:11], "lower", 31},
		{xs, "lower", 4},
		{xs, "higher", 37},
	}
	for _, c := range cases {
		if got := bestTenth(c.xs, c.better); got != c.want {
			t.Errorf("bestTenth(%d samples, %s) = %v, want %v", len(c.xs), c.better, got, c.want)
		}
	}
}

func TestJudgeReportsUnresolvedWhenSpreadExceedsBound(t *testing.T) {
	wall, _ := lookupMetric("wall_s")
	mk := func(xs ...float64) samples {
		q1, q3 := quartiles(xs)
		return samples{Value: bestTenth(xs, wall.Better), Median: median(xs), Q1: q1, Q3: q3, N: len(xs), Samples: xs}
	}
	steady := mk(3.0, 3.01, 2.99, 3.02, 2.98)
	if got := judge(wall, steady, mk(3.05, 3.04, 3.06, 3.03, 3.07)); got != verdictOK {
		t.Errorf("steady pair within the bound: %s", got)
	}
	if got := judge(wall, steady, mk(3.9, 3.91, 3.89, 3.92, 3.88)); got != verdictRegressed {
		t.Errorf("30%% slower: %s", got)
	}
	if got := judge(wall, steady, mk(2.2, 3.0, 4.2, 2.4, 3.8)); got != verdictUnresolved {
		t.Errorf("inter-quartile range wider than the bound: %s", got)
	}
}
