// Package harness runs concurrent workloads against any dynamic-set
// implementation and reports throughput and derived metrics. It powers the
// trajectory experiments of DESIGN.md §Experiment index (cmd/triebench) and
// the root-level benchmarks.
//
// The harness pre-generates one deterministic operation stream per worker,
// starts all workers on a barrier, runs for a fixed operation count, and
// reports wall-clock throughput. A stall injector can suspend a subset of
// workers mid-run to demonstrate lock-free progress (experiment C4).
package harness

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/workload"
)

// Set is the common dynamic-set interface the harness drives.
type Set interface {
	Search(x int64) bool
	Insert(x int64)
	Delete(x int64)
	Predecessor(y int64) int64
}

// Config describes one measurement run.
type Config struct {
	// Workers is the number of concurrent goroutines.
	Workers int
	// OpsPerWorker is the number of operations each worker executes.
	OpsPerWorker int
	// Mix is the operation mix.
	Mix workload.Mix
	// Dist generates keys.
	Dist workload.KeyDist
	// DistFor, when non-nil, overrides Dist with a per-worker distribution
	// (e.g. disjoint workload.Bands for the sharding experiment S1).
	DistFor func(worker int) workload.KeyDist
	// Seed makes streams deterministic; worker i uses Seed+i.
	Seed int64
	// StallEvery, when > 0, makes worker 0 sleep StallDuration after every
	// StallEvery operations — the stalled-process experiment (C4). With a
	// lock-free structure other workers keep committing; with a lock-based
	// one they stall behind the sleeper if it parks holding the lock.
	StallEvery    int
	StallDuration time.Duration
}

// Result is one measurement.
type Result struct {
	// Ops is the total number of operations executed.
	Ops int
	// Elapsed is the wall-clock duration of the measured phase.
	Elapsed time.Duration
	// Throughput is operations per second.
	Throughput float64
	// GoMaxProcs is runtime.GOMAXPROCS(0) captured during the measured
	// phase, so a result carries the parallelism it was taken under even
	// after a multi-P sweep has moved on to the next setting.
	GoMaxProcs int
}

// String renders the result for reports.
func (r Result) String() string {
	return fmt.Sprintf("%d ops in %v (%.0f ops/s)", r.Ops, r.Elapsed.Round(time.Microsecond), r.Throughput)
}

// Run executes the configured workload against s and returns the
// measurement.
func Run(s Set, cfg Config) (Result, error) {
	if cfg.Workers <= 0 || cfg.OpsPerWorker <= 0 {
		return Result{}, fmt.Errorf("harness: workers=%d opsPerWorker=%d must be positive",
			cfg.Workers, cfg.OpsPerWorker)
	}
	if err := cfg.Mix.Validate(); err != nil {
		return Result{}, err
	}
	// Pre-generate streams outside the measured region.
	streams := make([][]workload.Op, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		dist := cfg.Dist
		if cfg.DistFor != nil {
			dist = cfg.DistFor(w)
		}
		gen, err := workload.NewGenerator(cfg.Mix, dist, cfg.Seed+int64(w))
		if err != nil {
			return Result{}, err
		}
		streams[w] = gen.Fill(cfg.OpsPerWorker)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(id int, ops []workload.Op) {
			defer wg.Done()
			<-start
			for i, op := range ops {
				if cfg.StallEvery > 0 && id == 0 && i > 0 && i%cfg.StallEvery == 0 {
					time.Sleep(cfg.StallDuration)
				}
				ApplyOp(s, op)
			}
		}(w, streams[w])
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)

	total := cfg.Workers * cfg.OpsPerWorker
	return Result{
		Ops:        total,
		Elapsed:    elapsed,
		Throughput: float64(total) / elapsed.Seconds(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}, nil
}

// ApplyOp dispatches one generated operation to the set. Shared by the
// harness itself, the root-level benchmarks and cmd/triebench so a new
// workload.Op kind cannot be wired into one measurement path but not the
// others.
func ApplyOp(s Set, op workload.Op) {
	switch op.Kind {
	case workload.OpInsert:
		s.Insert(op.Key)
	case workload.OpDelete:
		s.Delete(op.Key)
	case workload.OpSearch:
		s.Search(op.Key)
	case workload.OpPredecessor:
		s.Predecessor(op.Key)
	}
}

// AbstainingSet is a dynamic set whose Predecessor may abstain — the
// relaxed trie's §4.1 contract.
type AbstainingSet interface {
	Search(x int64) bool
	Insert(x int64)
	Delete(x int64)
	Predecessor(y int64) (int64, bool)
}

// Collapse adapts an AbstainingSet to Set by dropping the abstention flag;
// measurements only time the call, they do not interpret the answer.
func Collapse(s AbstainingSet) Set { return collapsed{s} }

type collapsed struct{ AbstainingSet }

func (c collapsed) Predecessor(y int64) int64 {
	p, _ := c.AbstainingSet.Predecessor(y)
	return p
}

// Table is a minimal aligned-column printer for experiment output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	out := ""
	line := func(cells []string) string {
		s := ""
		for i, c := range cells {
			s += fmt.Sprintf("%-*s", widths[i]+2, c)
		}
		return s + "\n"
	}
	out += line(t.header)
	for i, w := range widths {
		_ = i
		for j := 0; j < w; j++ {
			out += "-"
		}
		out += "  "
	}
	out += "\n"
	for _, row := range t.rows {
		out += line(row)
	}
	return out
}
