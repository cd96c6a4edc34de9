package main

// --- SV1: the batched network front-end vs per-op service ----------------------

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"time"

	lockfreetrie "repro"
	"repro/internal/harness"
	"repro/internal/server"
	"repro/internal/workload"
)

// sv1 fixed shape: enough connections to keep the batcher fed, the
// server's default window, a half-full universe.
const (
	sv1Conns  = 8
	sv1Window = 256
)

// sv1Side is one ingest mode's measurement: a closed-loop phase (each
// worker issues the next update when the previous returns) and an
// open-loop phase (Poisson arrivals at a rate shared by BOTH modes —
// 8× the faster mode's closed rate, firmly past saturation — so the
// achieved completion rate measures each server's capacity under an
// identical offered load; deriving each mode's rate from its own
// closed phase would hand the slower mode a lighter test). The margin
// is 8× because the closed rate is a serial per-round-trip measure
// while the pipelined servers complete several times that; the window
// bound keeps an over-offered client from unbounded queueing either
// way. Latency quantiles come from the server's own update histogram over
// the open-loop window, read through the interpolated obs Quantile — the
// p999 is a quarter-octave estimate, not a ≤2× bound.
type sv1Side struct {
	ClosedOpsPerSec    float64 `json:"closed_ops_per_sec"`
	OpenOfferedPerSec  float64 `json:"open_offered_per_sec"`
	OpenAchievedPerSec float64 `json:"open_achieved_per_sec"`
	P50Ns              int64   `json:"p50_ns"`
	P99Ns              int64   `json:"p99_ns"`
	P999Ns             int64   `json:"p999_ns"`
	Sweeps             int64   `json:"sweeps"`
	MeanBatch          float64 `json:"mean_batch"`
}

// sv1ProcPoint is one GOMAXPROCS setting's batched-vs-per-op pair.
type sv1ProcPoint struct {
	hostTopology
	Batched sv1Side `json:"batched"`
	PerOp   sv1Side `json:"per_op"`
	// Gates are medians of per-repetition back-to-back ratios
	// batched/per-op. The open-loop one is the acceptance gate: coalescing
	// has to buy capacity to earn its queueing delay.
	GateOpenBatchedVsPerOp   float64 `json:"gate_open_batched_vs_per_op"`
	GateClosedBatchedVsPerOp float64 `json:"gate_closed_batched_vs_per_op"`
}

// sv1Report is the BENCH_sv1.json artifact.
type sv1Report struct {
	reportHead
	Universe                 int64          `json:"universe"`
	Conns                    int            `json:"conns"`
	Window                   int            `json:"window"`
	ClosedOps                int            `json:"closed_ops"`
	OpenDurMS                int64          `json:"open_duration_ms"`
	Reps                     int            `json:"reps_median_of"`
	Mix                      string         `json:"mix"`
	Batched                  sv1Side        `json:"batched"`
	PerOp                    sv1Side        `json:"per_op"`
	Points                   []sv1ProcPoint `json:"proc_points"`
	GateOpenBatchedVsPerOp   float64        `json:"gate_open_batched_vs_per_op"`
	GateClosedBatchedVsPerOp float64        `json:"gate_closed_batched_vs_per_op"`
}

// sv1Exp: the server's request-coalescing claim, measured over real
// sockets. Two identical servers — one batching updates into shared
// ApplyBatch sweeps (variant 0), one applying per-op on each connection's
// reader — each driven closed-loop (throughput when clients wait), then
// open-loop (Poisson arrivals past saturation: capacity and latency under
// load, the regime Malek's methodology report argues closed loops cannot
// measure). Update-heavy mix; -ops is the closed-loop budget.
var sv1Exp = &experiment[string, sv1Side, sv1ProcPoint]{
	spec: spec{
		id: "sv1", artifact: "BENCH_sv1.json", reps: 3,
		// At least 1000 closed-loop updates per connection.
		minOps: 8000,
		gates:  []gate{{field: "gate_open_batched_vs_per_op", op: ">=", bound: 1.2}},
	},
	variants: []string{"batched", "per-op"},
	// Pass 0 is the closed loop of both modes, pass 1 the open loop at the
	// rate pass 0 calibrated.
	passes:  2,
	configs: []string{"update-heavy"},
	measure: func(p params, _ string, t trial[sv1Side]) (sv1Side, error) {
		coalesce := t.variant == 0
		seed := p.seed + int64(t.rep)
		if t.pass == 0 {
			closed, err := sv1Closed(coalesce, p.ops, seed)
			return sv1Side{ClosedOpsPerSec: closed}, err
		}
		// One shared offered rate: 8× the FASTER mode's closed rate, so
		// both modes saturate under the same load.
		rate := 8 * max(t.cur[0].ClosedOpsPerSec, t.cur[1].ClosedOpsPerSec)
		side, err := sv1Open(coalesce, rate, p.sv1dur, seed)
		side.ClosedOpsPerSec = t.cur[t.variant].ClosedOpsPerSec
		return side, err
	},
	point: func(_ params, topo hostTopology, cells []cell[string, sv1Side]) sv1ProcPoint {
		c := cells[0]
		pt := sv1ProcPoint{
			hostTopology:             topo,
			Batched:                  c.med(0),
			PerOp:                    c.med(1),
			GateOpenBatchedVsPerOp:   c.ratio(0, 1, func(s sv1Side) float64 { return s.OpenAchievedPerSec }),
			GateClosedBatchedVsPerOp: c.ratio(0, 1, func(s sv1Side) float64 { return s.ClosedOpsPerSec }),
		}
		tab := harness.NewTable("ingest", "closed ops/s", "open achieved/s", "p50 µs", "p99 µs", "p999 µs", "mean batch")
		for v, s := range []sv1Side{pt.Batched, pt.PerOp} {
			tab.AddRow([]string{"batched", "per-op"}[v], s.ClosedOpsPerSec, s.OpenAchievedPerSec,
				float64(s.P50Ns)/1e3, float64(s.P99Ns)/1e3, float64(s.P999Ns)/1e3, s.MeanBatch)
		}
		fmt.Println(tab)
		fmt.Printf("batched vs per-op, open-loop capacity (median of per-rep ratios): %.3f\n", pt.GateOpenBatchedVsPerOp)
		fmt.Printf("batched vs per-op, closed-loop throughput (median of per-rep ratios): %.3f\n\n", pt.GateClosedBatchedVsPerOp)
		return pt
	},
	header: func(p params) any {
		fmt.Printf("== SV1: batched vs per-op server ingest (update-heavy, %d conns, open-loop %v) ==\n",
			sv1Conns, p.sv1dur)
		return &sv1Report{reportHead: reportHead{Experiment: "sv1-server"},
			Universe: universe, Conns: sv1Conns, Window: sv1Window, ClosedOps: p.ops,
			OpenDurMS: p.sv1dur.Milliseconds(), Reps: p.reps, Mix: "update-heavy"}
	},
}

// sv1NewSession starts one live server + client set: fresh half-full trie,
// real TCP listener, sv1Conns dialed clients. teardown closes it by a
// graceful drain.
func sv1NewSession(coalesce bool) (srv *server.Server, clients []*server.Client, teardown func(), err error) {
	// Each phase builds (and abandons) a fully-populated trie; collect the
	// previous phase's garbage NOW so a phase's GC debt is its own, not a
	// tax on whichever phase happens to run after it — on small hosts that
	// carryover is big enough to bias the back-to-back ratios.
	runtime.GC()
	tr, err := lockfreetrie.New(universe)
	if err != nil {
		return nil, nil, nil, err
	}
	for k := int64(0); k < universe; k += 2 {
		if err := tr.Insert(k); err != nil {
			return nil, nil, nil, err
		}
	}
	srv = server.New(tr, server.Config{CoalesceUpdates: coalesce, Window: sv1Window})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	clients = make([]*server.Client, sv1Conns)
	teardown = func() {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveErr
	}
	for i := range clients {
		c, err := server.Dial(ln.Addr().String())
		if err != nil {
			teardown()
			return nil, nil, nil, err
		}
		clients[i] = c
	}
	return srv, clients, teardown, nil
}

// sv1Closed measures one mode's closed-loop throughput: each connection
// issues its next update when the previous one returns — the system
// sets its own pace.
func sv1Closed(coalesce bool, closedOps int, seed int64) (float64, error) {
	_, clients, teardown, err := sv1NewSession(coalesce)
	if err != nil {
		return 0, err
	}
	defer teardown()
	perWorker := closedOps / sv1Conns
	streams := make([][]workload.Op, sv1Conns)
	for w := range streams {
		gen, err := workload.NewGenerator(workload.MixUpdateOnly, workload.Uniform{U: universe}, seed+int64(w))
		if err != nil {
			return 0, err
		}
		streams[w] = gen.Fill(perWorker)
	}
	elapsed, err := barrier(sv1Conns, func(w int) error {
		c := clients[w]
		for _, op := range streams[w] {
			var err error
			if op.Kind == workload.OpInsert {
				err = c.Insert(op.Key)
			} else {
				err = c.Delete(op.Key)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return float64(perWorker*sv1Conns) / elapsed.Seconds(), nil
}

// sv1Open measures one mode's open-loop capacity at the caller-fixed
// offered rate (Poisson arrivals fire on schedule regardless of
// service speed): completions/sec is the capacity, and the latency
// histogram shows queueing, not idling.
func sv1Open(coalesce bool, rate float64, dur time.Duration, seed int64) (sv1Side, error) {
	var side sv1Side
	srv, clients, teardown, err := sv1NewSession(coalesce)
	if err != nil {
		return side, err
	}
	defer teardown()
	pre := srv.MetricsSnapshot()
	res, err := harness.RunOpenLoop(harness.OpenLoopConfig{
		Workers:     sv1Conns,
		Duration:    dur,
		RatePerSec:  rate,
		Mix:         workload.MixUpdateOnly,
		Dist:        workload.Uniform{U: universe},
		Seed:        seed,
		MaxInFlight: sv1Window,
	}, func(worker int, op workload.Op, done func()) {
		clients[worker].UpdateAsync(op.Kind == workload.OpInsert, op.Key, func(error) { done() })
	})
	if err != nil {
		return side, err
	}
	post := srv.MetricsSnapshot()
	side.OpenOfferedPerSec = res.OfferedPerSec
	side.OpenAchievedPerSec = res.AchievedPerSec
	lat := post.Hists["server.latency.update_ns"].Delta(pre.Hists["server.latency.update_ns"])
	side.P50Ns = lat.Quantile(0.50)
	side.P99Ns = lat.Quantile(0.99)
	side.P999Ns = lat.Quantile(0.999)
	side.Sweeps = post.Counters["server.batch.sweeps"] - pre.Counters["server.batch.sweeps"]
	if side.Sweeps > 0 {
		batched := post.Counters["server.ops.update.batched"] - pre.Counters["server.ops.update.batched"]
		side.MeanBatch = float64(batched) / float64(side.Sweeps)
	}
	return side, nil
}
