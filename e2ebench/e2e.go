package main

import (
	"runtime"
	"slices"
	"time"
)

// roundStats is what one round of a workload measured.
type roundStats struct {
	setup, recover time.Duration
	opsPerSec      float64
	heapBytes      int64
	replayedOps    int64 // served-durable: ops the reopen replayed
	// Latency percentiles of the round, in nanoseconds.
	updP50, updP90, updP99, readP50, readP90, readP99 float64
}

// e2eRun is a whole run: per-round figures, latencies pooled over all
// rounds, and the op counts.
type e2eRun struct {
	rounds            []roundStats
	readLat, updLat   hist
	attempted, failed int64
	// lats are the workers' histograms (read, update), cur the round's;
	// both are allocated with the run, before any heap baseline.
	lats [][2]hist
	cur  [2]hist
}

func newE2ERun(workers int) *e2eRun { return &e2eRun{lats: make([][2]hist, workers)} }

// closeRound turns the workers' latency histograms into the round's
// percentiles, pools them into the run's, and clears them for the next
// round.
func (r *e2eRun) closeRound(rs *roundStats) {
	r.cur = [2]hist{}
	for i := range r.lats {
		r.cur[0].merge(&r.lats[i][0])
		r.cur[1].merge(&r.lats[i][1])
		r.lats[i] = [2]hist{}
	}
	rd, up := &r.cur[0], &r.cur[1]
	rs.readP50, rs.readP90, rs.readP99 = rd.quantile(0.50), rd.quantile(0.90), rd.quantile(0.99)
	rs.updP50, rs.updP90, rs.updP99 = up.quantile(0.50), up.quantile(0.90), up.quantile(0.99)
	r.readLat.merge(&r.cur[0])
	r.updLat.merge(&r.cur[1])
}

// metrics reduces a run to the end-to-end metrics: medians over rounds.
// A latency percentile is the median of the rounds' percentiles, so one
// round that met a slow disk or a busy neighbour does not set it. The
// tail metric is p90, not p99: over five 20 s runs the median-of-rounds
// p99 spread (IQR over median) up to 0.24 on embed-read and 0.45–0.54 on
// served-durable as the host slowed and recovered, while p90 stayed
// within 0.03–0.14 in process. Each run still prints p99 and its deepest
// trustworthy tail.
func (r *e2eRun) metrics() map[string]metric {
	pick := func(f func(roundStats) float64) float64 {
		vs := make([]float64, len(r.rounds))
		for i, rs := range r.rounds {
			vs[i] = f(rs)
		}
		return median(vs)
	}
	return map[string]metric{
		"setup_s":       {pick(func(rs roundStats) float64 { return rs.setup.Seconds() }), "s"},
		"ops_per_s":     {pick(func(rs roundStats) float64 { return rs.opsPerSec }), "1/s"},
		"heap_mb":       {pick(func(rs roundStats) float64 { return float64(rs.heapBytes) / (1 << 20) }), "MB"},
		"recover_s":     {pick(func(rs roundStats) float64 { return rs.recover.Seconds() }), "s"},
		"update_p50_us": {pick(func(rs roundStats) float64 { return rs.updP50 / 1e3 }), "us"},
		"update_p90_us": {pick(func(rs roundStats) float64 { return rs.updP90 / 1e3 }), "us"},
		"read_p50_us":   {pick(func(rs roundStats) float64 { return rs.readP50 / 1e3 }), "us"},
		"read_p90_us":   {pick(func(rs roundStats) float64 { return rs.readP90 / 1e3 }), "us"},
	}
}

// heapInuse collects garbage and reads HeapInuse. Two cycles, so pooled
// objects dropped at the first one are freed at the second.
func heapInuse() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}

// rounds splits a run of the given length into rounds of about one
// second, at least three. Other tenants of a shared host slow some
// seconds and not others: round throughput swung 290k–400k ops/s within
// one embed-read run, while the median of many short rounds moves far
// less between runs. Set-up and recovery are measured once per round.
func rounds(seconds int) (n int, window time.Duration) {
	n = max(3, seconds)
	return n, time.Duration(seconds) * time.Second / time.Duration(n)
}

// median of vs (the mean of the middle two for an even count); 0 when
// empty.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
