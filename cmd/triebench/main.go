// Command triebench runs the trajectory experiments of DESIGN.md
// §Experiment index. Each one sweeps its configurations across a
// GOMAXPROCS list with a fixed op budget, prints one table per P and a
// PASS/MISS line per declared gate, and writes its committed BENCH_*.json
// artifact. The paper-claim microbenchmarks (C1–C7, A1–A2) live in
// bench_test.go.
//
// Usage:
//
//	triebench -experiment cb1 -gomaxprocs 1,2
//	triebench -experiment ad1 -ops 60000 -reps 1 -json /tmp/BENCH_adaptive.json
//	triebench -experiment s1 -shards 16 -json ""
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// experiments is the registry: -experiment ids, artifacts, protocols and
// gates all come from these entries.
var experiments = []runner{s1Exp, a3Exp, cb1Exp, ad1Exp, rs1Exp, cc1Exp, mp1Exp, ob1Exp, sv1Exp, wl1Exp}

func ids() []string {
	var out []string
	for _, x := range experiments {
		out = append(out, x.meta().id)
	}
	return out
}

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment id: "+strings.Join(ids(), ", "))
		ops        = flag.Int("ops", 100000, "operations per measurement (raised to the experiment's floor)")
		workers    = flag.Int("workers", 4, "worker goroutines (raised to the experiment's floor)")
		seed       = flag.Int64("seed", 1, "workload seed")
		shards     = flag.Int("shards", 16, "high shard count for s1, a3's sharded variant and mp1")
		gomaxprocs = flag.String("gomaxprocs", "", "comma-separated GOMAXPROCS sweep (e.g. 1,4,8); empty keeps the current setting (mp1 defaults to 1,4,8)")
		reps       = flag.Int("reps", 0, "repetitions per configuration (0 means the experiment's declared count; CI smokes use 1)")
		sv1dur     = flag.Duration("sv1dur", 1500*time.Millisecond, "sv1 open-loop measurement window per side per rep")
	)
	var jsonPath *string
	flag.Func("json", "artifact output path (default the experiment's committed BENCH_*.json; an explicit empty string disables the write)",
		func(s string) error {
			jsonPath = &s
			return nil
		})
	flag.Parse()
	p := params{
		ops: *ops, workers: *workers, seed: *seed, shards: *shards,
		gomaxprocs: *gomaxprocs, json: jsonPath, reps: *reps, sv1dur: *sv1dur,
	}
	if err := run(*experiment, p); err != nil {
		fmt.Fprintln(os.Stderr, "triebench:", err)
		os.Exit(1)
	}
}

// params carries one triebench run's knobs. The raw flag values come in;
// spec.resolve applies the experiment's floors and declared repetition
// count before any measurement sees them.
type params struct {
	ops, workers, shards int
	seed                 int64
	// gomaxprocs is the raw -gomaxprocs list every experiment re-measures
	// its configurations under; empty means the current setting, or the
	// experiment's own default sweep.
	gomaxprocs string
	// json is the -json value when the flag was given: nil writes the
	// experiment's committed artifact, "" writes nothing.
	json   *string
	reps   int // 0: the experiment's declared count
	sv1dur time.Duration
}

func run(id string, p params) error {
	// A malformed -gomaxprocs must fail before any experiment burns time.
	if _, err := parseGomaxprocs(p.gomaxprocs); err != nil {
		return err
	}
	for _, x := range experiments {
		if x.meta().id == id {
			return runExperiment(x, p)
		}
	}
	// A typo'd id in a CI step must fail the step loudly, not record nothing.
	return fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(ids(), ", "))
}

// resolve applies the experiment's protocol to the invocation: -reps 0
// means the declared count, the floors apply, and an empty -gomaxprocs
// means the experiment's default sweep.
func (e *spec) resolve(p params) (params, []int, error) {
	if p.reps <= 0 {
		p.reps = e.reps
	}
	if p.workers < e.minWorkers {
		fmt.Printf("%s: raising -workers to %d\n", e.id, e.minWorkers)
		p.workers = e.minWorkers
	}
	switch {
	case p.ops >= e.minOps:
	case e.smokeOps && p.reps == 1:
		fmt.Printf("%s: one-rep run at %d ops — smoke only, NOT comparable to the committed artifact (%d reps, %d ops)\n",
			e.id, p.ops, e.reps, e.minOps)
	default:
		fmt.Printf("%s: raising -ops to %d\n", e.id, e.minOps)
		p.ops = e.minOps
	}
	if strings.TrimSpace(p.gomaxprocs) == "" && e.procs != nil {
		return p, e.procs, nil
	}
	procs, err := parseGomaxprocs(p.gomaxprocs)
	return p, procs, err
}

// parseGomaxprocs parses a comma-separated GOMAXPROCS list. Entries must
// be positive integers; duplicates collapse (re-measuring the same P
// twice would only double the runtime, not the information). An empty
// string resolves to the process's current setting.
func parseGomaxprocs(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return []int{runtime.GOMAXPROCS(0)}, nil
	}
	var procs []int
	seen := map[int]bool{}
	for _, field := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || p <= 0 {
			return nil, fmt.Errorf("-gomaxprocs %q: %q is not a positive integer", s, field)
		}
		if seen[p] {
			continue
		}
		seen[p] = true
		procs = append(procs, p)
	}
	return procs, nil
}

// hostTopology is the per-point parallelism metadata every trajectory
// point carries: the GOMAXPROCS it was measured under plus what the host
// actually offers, so a reader (or the CI host-shape guard) can tell a
// true 8-core measurement from 8-way timeslicing on one core.
// Oversubscribed flags the latter: P above NumCPU is a legal and useful
// setting — it exercises the preemption-driven interleavings single-P
// runs cannot reach — but its throughput numbers measure scheduler
// pressure, not parallel speedup.
type hostTopology struct {
	GoMaxProcs     int    `json:"gomaxprocs"`
	NumCPU         int    `json:"num_cpu"`
	GOOS           string `json:"goos"`
	GOARCH         string `json:"goarch"`
	Oversubscribed bool   `json:"oversubscribed"`
}

func topologyAt(p int) hostTopology {
	return hostTopology{
		GoMaxProcs:     p,
		NumCPU:         runtime.NumCPU(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		Oversubscribed: p > runtime.NumCPU(),
	}
}

// perP runs f once per requested GOMAXPROCS setting and restores the
// original value afterwards. The setting applies process-wide, so the
// sweep is strictly sequential — each point must finish (and its worker
// goroutines exit) before the next setting takes effect.
func perP(procs []int, f func(p int) error) error {
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		if len(procs) > 1 {
			fmt.Printf("-- GOMAXPROCS=%d (NumCPU=%d) --\n", p, runtime.NumCPU())
		}
		if err := f(p); err != nil {
			return err
		}
	}
	return nil
}
