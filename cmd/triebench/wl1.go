package main

// --- WL1: the write-ahead-log durability tax -----------------------------------

import (
	"fmt"
	"os"
	"runtime"
	"time"

	lockfreetrie "repro"
	"repro/internal/harness"
	"repro/internal/workload"
)

// wl1Batch sizes batches to the server's sweep scale, so one ApplyBatch
// is one group-committed WAL record run.
const wl1Batch = 256

var wl1Names = []string{"nondurable", "buffered", "every4096", "every1024", "interval100ms"}

// wl1Policies is the sync-policy ladder named by wl1Names; a nil entry
// is the non-durable baseline every ratio divides by. "buffered" appends
// without ever fsyncing inside a run (the OS flushes), the every-N rungs
// group-commit at decreasing granularity, and interval100ms trades the
// count trigger for a wall-clock one. every1 is deliberately absent: a
// synchronous fsync per op measures the disk, not the log.
var wl1Policies = [][]lockfreetrie.DurabilityOption{
	nil,
	{lockfreetrie.WithSyncEvery(1 << 20)},
	{lockfreetrie.WithSyncEvery(4096)},
	{lockfreetrie.WithSyncEvery(1024)},
	{lockfreetrie.WithSyncInterval(100 * time.Millisecond)},
}

// wl1Side is one policy's measurement at one P.
type wl1Side struct {
	Name      string  `json:"name"`
	OpsPerSec float64 `json:"ops_per_sec"`
	// RatioVsNonDurable is the median of per-rep back-to-back ratios
	// against the same rep's non-durable run (1.0 for the baseline row).
	RatioVsNonDurable float64 `json:"ratio_vs_nondurable"`
	Fsyncs            int64   `json:"fsyncs"`
	WalBytes          int64   `json:"wal_bytes"`
	// OpsPerRecord is the realized group-commit width: logged ops per WAL
	// record. A value near wl1Batch means one ApplyBatch sweep really did
	// land as one contiguous record run.
	OpsPerRecord float64 `json:"ops_per_record"`
}

// wl1ProcPoint is one GOMAXPROCS setting's policy ladder.
type wl1ProcPoint struct {
	hostTopology
	Policies []wl1Side `json:"policies"`
	// GateEvery1024VsNonDurable is the acceptance gate: group-committed
	// durability at WithSyncEvery(1024) must keep most of the in-memory
	// batched update throughput, or the WAL is in the hot path rather
	// than riding the sweeps.
	GateEvery1024VsNonDurable float64 `json:"gate_every1024_vs_nondurable"`
}

// wl1Report is the BENCH_wal.json artifact.
type wl1Report struct {
	reportHead
	Universe                  int64          `json:"universe"`
	Workers                   int            `json:"workers"`
	Batch                     int            `json:"batch"`
	Ops                       int            `json:"ops"`
	Reps                      int            `json:"reps_median_of"`
	Policies                  []wl1Side      `json:"policies"`
	Points                    []wl1ProcPoint `json:"proc_points"`
	GateEvery1024VsNonDurable float64        `json:"gate_every1024_vs_nondurable"`
}

// wl1Exp: what durability costs. The same closed-loop batched update
// workload — workers applying sorted wl1Batch-sized ApplyBatch sweeps —
// runs against an in-memory trie and against WithDurability under the
// sync-policy ladder, each durable run in a fresh directory, every ratio
// taken against the same rep's non-durable run. The interesting number is
// the every1024 ratio: with the WAL riding the existing sweeps (one append
// lock acquisition and one record run per sweep, fsync amortized over
// 1024 ops) the tax should be bounded, which is exactly what the gate
// pins.
var wl1Exp = &experiment[string, wl1Side, wl1ProcPoint]{
	spec: spec{
		id: "wl1", artifact: "BENCH_wal.json", reps: 3,
		minOps: 20000, minWorkers: 1,
		gates: []gate{{field: "gate_every1024_vs_nondurable", op: ">=", bound: 0.7}},
	},
	variants: wl1Names,
	configs:  []string{"batched-update-only"},
	measure: func(p params, _ string, t trial[wl1Side]) (wl1Side, error) {
		side, err := wl1Measure(wl1Policies[t.variant], p.ops, p.workers, p.seed+int64(t.rep))
		side.Name = wl1Names[t.variant]
		return side, err
	},
	point: func(_ params, topo hostTopology, cells []cell[string, wl1Side]) wl1ProcPoint {
		c := cells[0]
		pt := wl1ProcPoint{hostTopology: topo}
		tab := harness.NewTable("policy", "ops/s", "vs nondurable", "fsyncs", "wal MiB", "ops/record")
		for v := range c.s {
			side := c.med(v)
			side.RatioVsNonDurable = c.ratio(v, 0, func(s wl1Side) float64 { return s.OpsPerSec })
			pt.Policies = append(pt.Policies, side)
			if side.Name == "every1024" {
				pt.GateEvery1024VsNonDurable = side.RatioVsNonDurable
			}
			tab.AddRow(side.Name, side.OpsPerSec, side.RatioVsNonDurable,
				float64(side.Fsyncs), float64(side.WalBytes)/float64(1<<20), side.OpsPerRecord)
		}
		fmt.Println(tab)
		return pt
	},
	header: func(p params) any {
		fmt.Printf("== WL1: WAL durability tax (batched updates, %d workers, %d ops, median of %d) ==\n",
			p.workers, p.ops, p.reps)
		return &wl1Report{reportHead: reportHead{Experiment: "wl1-wal"},
			Universe: universe, Workers: p.workers, Batch: wl1Batch, Ops: p.ops, Reps: p.reps}
	},
}

// wl1Measure runs the batched update workload against one policy's
// trie, returning ops/sec and the run's WAL counters. Durable runs get
// a fresh directory, removed afterward — each measurement logs from a
// cold, empty WAL.
func wl1Measure(durability []lockfreetrie.DurabilityOption, ops, workers int, seed int64) (wl1Side, error) {
	var side wl1Side
	// The previous policy's abandoned trie (and WAL buffers) are its own
	// GC debt, not a tax on this measurement.
	runtime.GC()
	var opts []lockfreetrie.Option
	if durability != nil {
		dir, err := os.MkdirTemp("", "triebench-wl1-")
		if err != nil {
			return side, err
		}
		defer os.RemoveAll(dir)
		opts = append(opts, lockfreetrie.WithDurability(dir, durability...))
	}
	tr, err := lockfreetrie.New(universe, opts...)
	if err != nil {
		return side, err
	}
	defer tr.Close()
	perWorker := ops / workers
	batches := make([][][]lockfreetrie.Op, workers)
	for w := range batches {
		gen, err := workload.NewGenerator(workload.MixUpdateOnly, workload.Uniform{U: universe}, seed+int64(w))
		if err != nil {
			return side, err
		}
		stream := gen.Fill(perWorker)
		for off := 0; off < len(stream); off += wl1Batch {
			end := min(off+wl1Batch, len(stream))
			batch := make([]lockfreetrie.Op, 0, end-off)
			for _, op := range stream[off:end] {
				kind := lockfreetrie.OpInsert
				if op.Kind == workload.OpDelete {
					kind = lockfreetrie.OpDelete
				}
				batch = append(batch, lockfreetrie.Op{Kind: kind, Key: op.Key})
			}
			batches[w] = append(batches[w], batch)
		}
	}
	elapsed, err := barrier(workers, func(w int) error {
		for _, b := range batches[w] {
			for _, e := range tr.ApplyBatch(b) {
				if e != nil {
					return e
				}
			}
		}
		return nil
	})
	if err != nil {
		return side, err
	}
	side.OpsPerSec = float64(perWorker*workers) / elapsed.Seconds()
	if durability != nil {
		snap := tr.MetricsSnapshot()
		side.Fsyncs = snap.Counters["wal.fsyncs"]
		side.WalBytes = snap.Counters["wal.append.bytes"]
		if recs := snap.Counters["wal.append.records"]; recs > 0 {
			side.OpsPerRecord = float64(snap.Counters["wal.append.ops"]) / float64(recs)
		}
	}
	return side, nil
}
