package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int64
		want string
		ok   bool
	}{
		{19, "", false},
		{20, "p50", true},
		{99, "p50", true},
		{100, "p90", true},
		{999, "p90", true},
		{1000, "p99", true},
		{9999, "p99", true},
		{10000, "p99.9", true},
		{100000, "p99.99", true},
		{1000000, "p99.999", true},
	}
	for _, c := range cases {
		var h hist
		for i := int64(1); i <= c.n; i++ {
			h.record(i)
		}
		name, _, ok := h.tailPercentile()
		if name != c.want || ok != c.ok {
			t.Errorf("n=%d: got (%q, %v), want (%q, %v)", c.n, name, ok, c.want, c.ok)
		}
	}
}

func TestQuantileWithinBucketResolution(t *testing.T) {
	var h hist
	for i := int64(1); i <= 100000; i++ {
		h.record(i * 10)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := q * 1e6
		if got := h.quantile(q); math.Abs(got-want)/want > 0.02 {
			t.Errorf("quantile(%v) = %.0f, want %.0f within 2%%", q, got, want)
		}
	}
	var empty hist
	if got := empty.quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

func TestBucketsTileTheRange(t *testing.T) {
	next := int64(0)
	for b := 0; b < histBuckets; b++ {
		lo, w := bucketRange(b)
		if lo != next {
			t.Fatalf("bucket %d starts at %d, want %d", b, lo, next)
		}
		if got := bucketOf(lo); got != b {
			t.Fatalf("bucketOf(%d) = %d, want %d", lo, got, b)
		}
		if got := bucketOf(lo + w - 1); got != b {
			t.Fatalf("bucketOf(%d) = %d, want %d", lo+w-1, got, b)
		}
		next = lo + w
	}
}
