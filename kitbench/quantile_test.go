package main

import (
	"testing"
	"time"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		limit float64
		want  float64
	}{
		{100000, 0.999, 0.999}, // 100 beyond p99.9
		{9999, 0.999, 0.99},    // p99.9 would leave 9.999
		{2500, 0.99, 0.99},
		{1000, 0.99, 0.99}, // exactly 10 beyond
		{999, 0.99, 0.9},
		{1000000, 0.9, 0.9}, // capped by the workload's limit
		{100, 0.99, 0.9},
		{99, 0.99, 0.5},
		{19, 0.99, 1}, // not even a median: report the maximum
	} {
		if got := tailQuantile(c.n, c.limit); got != c.want {
			t.Errorf("tailQuantile(%d, %v) = %v, want %v", c.n, c.limit, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var v []time.Duration
	for i := 100; i >= 1; i-- {
		v = append(v, time.Duration(i))
	}
	v = sortDurations(v)
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := quantile(v, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}
