package main

import (
	"fmt"
	"math/bits"
)

// subBits sets the histogram's resolution: 2^subBits sub-buckets per
// octave, so a bucket is at most 1/64 (1.6%) of its value wide.
const subBits = 6

// histBuckets covers 0 ns to 2^41 ns (about 36 minutes).
const histBuckets = (41 - subBits + 1) << subBits

// hist is a fixed-size log-linear latency histogram in nanoseconds. It
// never allocates after creation, so recording into it adds nothing to
// the heap the benchmark measures. Not safe for concurrent use: each
// worker owns one and the results are merged after the workers stop.
type hist struct {
	n       int64
	buckets [histBuckets]int64
}

func bucketOf(v int64) int {
	if v < 1<<subBits {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - subBits - 1
	b := (e+1)<<subBits + int(v>>e) - 1<<subBits
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// bucketRange returns the lowest value of bucket b and its width.
func bucketRange(b int) (lo, width int64) {
	if b < 1<<subBits {
		return int64(b), 1
	}
	e := b>>subBits - 1
	m := int64(b&(1<<subBits-1) + 1<<subBits)
	return m << e, 1 << e
}

func (h *hist) record(ns int64) {
	h.buckets[bucketOf(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.n += o.n
}

// quantile estimates the q-quantile in nanoseconds, interpolating
// linearly inside the covering bucket. 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for b, c := range h.buckets {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := bucketRange(b)
			return float64(lo) + (rank-cum)/float64(c)*float64(w)
		}
		cum += float64(c)
	}
	lo, w := bucketRange(histBuckets - 1)
	return float64(lo + w)
}

// tailLadder lists the percentiles tailPercentile chooses from, each as
// the share of samples beyond it (1 in den).
var tailLadder = []struct {
	name string
	den  int64
}{
	{"p99.999", 100000}, {"p99.99", 10000}, {"p99.9", 1000},
	{"p99", 100}, {"p90", 10}, {"p50", 2},
}

// tailPercentile returns the highest percentile of the ladder that has at
// least ten samples beyond it, and its value in nanoseconds. ok is false
// when even the median lacks ten samples beyond it (fewer than 20).
func (h *hist) tailPercentile() (name string, ns float64, ok bool) {
	for _, p := range tailLadder {
		if h.n >= 10*p.den {
			return p.name, h.quantile(1 - 1/float64(p.den)), true
		}
	}
	return "", 0, false
}

// describe renders the median, p90, p99 and the deepest trustworthy tail with
// the sample count, for the human-readable lines before the result.
func (h *hist) describe() string {
	s := fmt.Sprintf("n=%d p50=%.1fus p90=%.1fus p99=%.1fus", h.n, h.quantile(0.5)/1e3, h.quantile(0.9)/1e3, h.quantile(0.99)/1e3)
	if name, ns, ok := h.tailPercentile(); ok {
		s += fmt.Sprintf(" tail %s=%.1fus", name, ns/1e3)
	}
	return s
}
