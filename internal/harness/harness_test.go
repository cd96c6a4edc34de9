package harness

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/locktrie"
	"repro/internal/workload"
)

func TestRunValidation(t *testing.T) {
	tr, err := core.New(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(tr, Config{Workers: 0, OpsPerWorker: 1, Mix: workload.MixReadHeavy,
		Dist: workload.Uniform{U: 64}}); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := Run(tr, Config{Workers: 1, OpsPerWorker: 1, Mix: workload.Mix{},
		Dist: workload.Uniform{U: 64}}); err == nil {
		t.Error("invalid mix accepted")
	}
}

func TestRunCore(t *testing.T) {
	tr, err := core.New(256)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tr, Config{
		Workers:      4,
		OpsPerWorker: 2000,
		Mix:          workload.MixUpdateHeavy,
		Dist:         workload.Uniform{U: 256},
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 8000 {
		t.Errorf("Ops = %d, want 8000", res.Ops)
	}
	if res.Throughput <= 0 {
		t.Error("non-positive throughput")
	}
	if !strings.Contains(res.String(), "ops/s") {
		t.Error("String() missing throughput")
	}
	if res.GoMaxProcs != runtime.GOMAXPROCS(0) {
		t.Errorf("GoMaxProcs = %d, want %d", res.GoMaxProcs, runtime.GOMAXPROCS(0))
	}
}

func TestRunWithStalls(t *testing.T) {
	tr, err := locktrie.New(128)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tr, Config{
		Workers:       2,
		OpsPerWorker:  50,
		Mix:           workload.MixUpdateOnly,
		Dist:          workload.Uniform{U: 128},
		Seed:          2,
		StallEvery:    10,
		StallDuration: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed < 4*time.Millisecond {
		t.Errorf("stalls not applied: elapsed %v", res.Elapsed)
	}
}

func TestTable(t *testing.T) {
	tab := NewTable("col1", "column2")
	tab.AddRow("a", 1.5)
	tab.AddRow("longer", 42)
	out := tab.String()
	if !strings.Contains(out, "col1") || !strings.Contains(out, "1.50") ||
		!strings.Contains(out, "longer") || !strings.Contains(out, "42") {
		t.Errorf("table output malformed:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4", len(lines))
	}
}

// TestRunOpenLoopAccounting: with an instant synchronous submit, every
// offered arrival completes and the offered rate tracks the configured
// rate (loosely — short window, coarse sleeps).
func TestRunOpenLoopAccounting(t *testing.T) {
	var applied atomic.Int64
	res, err := RunOpenLoop(OpenLoopConfig{
		Workers:     4,
		Duration:    200 * time.Millisecond,
		RatePerSec:  2000,
		Mix:         workload.MixUpdateOnly,
		Dist:        workload.Uniform{U: 1 << 10},
		Seed:        1,
		MaxInFlight: 8,
	}, func(worker int, op workload.Op, done func()) {
		applied.Add(1)
		done()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered == 0 || res.Completed != res.Offered {
		t.Fatalf("offered %d completed %d, want equal and non-zero", res.Offered, res.Completed)
	}
	if applied.Load() != res.Offered {
		t.Fatalf("submit called %d times for %d arrivals", applied.Load(), res.Offered)
	}
	// ~400 expected; accept a wide band (CI hosts sleep coarsely).
	if res.Offered < 100 || res.Offered > 1600 {
		t.Fatalf("offered %d for 2000/s over 200ms, outside sanity band", res.Offered)
	}
}

// TestRunOpenLoopSaturation: a slow server saturates — achieved
// completions stay bounded by the service rate, not the arrival rate,
// and the in-flight tail still drains (Completed == Offered after the
// drain barrier).
func TestRunOpenLoopSaturation(t *testing.T) {
	const serviceNs = 2 * time.Millisecond // capacity ≈ 500/s per worker
	res, err := RunOpenLoop(OpenLoopConfig{
		Workers:     1,
		Duration:    200 * time.Millisecond,
		RatePerSec:  100000, // 200× capacity
		Mix:         workload.MixUpdateOnly,
		Dist:        workload.Uniform{U: 1 << 10},
		Seed:        2,
		MaxInFlight: 2,
	}, func(worker int, op workload.Op, done func()) {
		go func() {
			time.Sleep(serviceNs)
			done()
		}()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Offered {
		t.Fatalf("drain incomplete: offered %d completed %d", res.Offered, res.Completed)
	}
	// 200ms at ~2ms/op with window 2 → low hundreds; far below the
	// 20000 arrivals an unsaturated run would offer.
	if res.Offered > 2000 {
		t.Fatalf("offered %d — window did not throttle the arrival loop", res.Offered)
	}
	if res.AchievedPerSec > 5000 {
		t.Fatalf("achieved %.0f/s exceeds plausible service capacity", res.AchievedPerSec)
	}
}

// TestRunOpenLoopValidation: zero rate/duration/workers are rejected.
func TestRunOpenLoopValidation(t *testing.T) {
	nop := func(int, workload.Op, func()) {}
	for _, cfg := range []OpenLoopConfig{
		{Workers: 0, Duration: time.Second, RatePerSec: 1, Mix: workload.MixUpdateOnly, Dist: workload.Uniform{U: 2}},
		{Workers: 1, Duration: 0, RatePerSec: 1, Mix: workload.MixUpdateOnly, Dist: workload.Uniform{U: 2}},
		{Workers: 1, Duration: time.Second, RatePerSec: 0, Mix: workload.MixUpdateOnly, Dist: workload.Uniform{U: 2}},
	} {
		if _, err := RunOpenLoop(cfg, nop); err == nil {
			t.Fatalf("config %+v accepted, want error", cfg)
		}
	}
}
