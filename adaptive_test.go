package lockfreetrie_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	lockfreetrie "repro"
	"repro/internal/lincheck"
	"repro/internal/settest"
	"repro/internal/sharded"
)

// aggressive is a facade config that samples and flips fast enough for
// test-sized workloads, with thresholds pinned so the suite is
// independent of default re-tuning.
var aggressive = lockfreetrie.AdaptiveConfig{
	SampleEvery: 16, MinDwellSamples: 2,
	EnableThreshold: 2.5, DisableThreshold: 1.4, SmoothingAlpha: 0.5,
}

// TestWithAdaptiveCombiningValidation pins the option's error cases and
// the construction-time flags.
func TestWithAdaptiveCombiningValidation(t *testing.T) {
	if _, err := lockfreetrie.New(1<<10, lockfreetrie.WithAdaptiveCombining(
		lockfreetrie.AdaptiveConfig{}, lockfreetrie.AdaptiveConfig{})); err == nil {
		t.Fatal("two AdaptiveConfigs accepted")
	}
	if _, err := lockfreetrie.New(1<<10, lockfreetrie.WithAdaptiveCombining(
		lockfreetrie.AdaptiveConfig{EnableThreshold: 2, DisableThreshold: 3})); err == nil {
		t.Fatal("inverted hysteresis band accepted")
	}
	// One-sided settings are validated against the other side's default:
	// Enable 1.2 sits below the default Disable 1.4, and a Disable above
	// the default Enable 4.0 inverts the band just as silently.
	if _, err := lockfreetrie.New(1<<10, lockfreetrie.WithAdaptiveCombining(
		lockfreetrie.AdaptiveConfig{EnableThreshold: 1.2})); err == nil {
		t.Fatal("EnableThreshold below the default DisableThreshold accepted")
	}
	if _, err := lockfreetrie.New(1<<10, lockfreetrie.WithAdaptiveCombining(
		lockfreetrie.AdaptiveConfig{DisableThreshold: 5})); err == nil {
		t.Fatal("DisableThreshold above the default EnableThreshold accepted")
	}
	// Out-of-domain values error instead of silently taking defaults.
	if _, err := lockfreetrie.New(1<<10, lockfreetrie.WithAdaptiveCombining(
		lockfreetrie.AdaptiveConfig{SmoothingAlpha: 1.5})); err == nil {
		t.Fatal("SmoothingAlpha > 1 accepted")
	}
	if _, err := lockfreetrie.New(1<<10, lockfreetrie.WithAdaptiveCombining(
		lockfreetrie.AdaptiveConfig{SampleEvery: -8})); err == nil {
		t.Fatal("negative SampleEvery accepted")
	}
	if _, err := lockfreetrie.New(1<<10, lockfreetrie.WithAdaptiveCombining(
		lockfreetrie.AdaptiveConfig{RetractRateDisable: 1.5})); err == nil {
		t.Fatal("RetractRateDisable > 1 accepted (the guard would be unreachable)")
	}
	// NaN fails every ordered comparison, so naive x < 0 || x > 1 checks
	// would wave it through into a controller that can never flip.
	for _, cfg := range []lockfreetrie.AdaptiveConfig{
		{SmoothingAlpha: math.NaN()},
		{EnableThreshold: math.NaN()},
		{DisableThreshold: math.NaN()},
		{RetractRateDisable: math.NaN()},
		{EnableThreshold: math.Inf(1)}, // a never-enabling controller is pure tax
	} {
		if _, err := lockfreetrie.New(1<<10, lockfreetrie.WithAdaptiveCombining(cfg)); err == nil {
			t.Fatalf("non-finite config %+v accepted", cfg)
		}
	}
	tr, err := lockfreetrie.New(1<<10, lockfreetrie.WithAdaptiveCombining())
	if err != nil {
		t.Fatal(err)
	}
	if !tr.AdaptiveCombining() || !tr.Combining() {
		t.Fatalf("AdaptiveCombining = %v, Combining = %v, want true, true",
			tr.AdaptiveCombining(), tr.Combining())
	}
	plain, err := lockfreetrie.New(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if plain.AdaptiveCombining() {
		t.Fatal("plain trie reports AdaptiveCombining")
	}
	if e, d := plain.AdaptiveStats(); e != 0 || d != 0 {
		t.Fatalf("plain AdaptiveStats = (%d, %d)", e, d)
	}
}

// TestAdaptiveQuiescentState drives disjoint-range goroutines through the
// adaptive trie — flips may land anywhere in the run — and verifies the
// exact quiescent state, at every shard count of the suite matrix.
func TestAdaptiveQuiescentState(t *testing.T) {
	for _, k := range []int{1, 4, 16} {
		for _, start := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/startCombining=%v", k, start), func(t *testing.T) {
				cfg := aggressive
				cfg.StartCombining = start
				tr, err := lockfreetrie.New(1<<10,
					lockfreetrie.WithShards(k), lockfreetrie.WithAdaptiveCombining(cfg))
				if err != nil {
					t.Fatal(err)
				}
				const goroutines, per = 8, 400
				width := int64(1<<10) / goroutines
				var wg sync.WaitGroup
				finals := make([]map[int64]bool, goroutines)
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(id)*17 + 1))
						lo := int64(id) * width
						final := map[int64]bool{}
						for i := 0; i < per; i++ {
							x := lo + rng.Int63n(width)
							switch rng.Intn(4) {
							case 0, 1:
								tr.Insert(x)
								final[x] = true
							case 2:
								tr.Delete(x)
								delete(final, x)
							case 3:
								if p, err := tr.Predecessor(x); err != nil || p >= x {
									t.Errorf("Predecessor(%d) = %d, %v", x, p, err)
									return
								}
							}
						}
						finals[id] = final
					}(g)
				}
				wg.Wait()
				present := map[int64]bool{}
				var n int64
				for _, final := range finals {
					for x := range final {
						present[x] = true
						n++
					}
				}
				for x := int64(0); x < 1<<10; x++ {
					got, err := tr.Contains(x)
					if err != nil {
						t.Fatal(err)
					}
					if got != present[x] {
						t.Fatalf("quiescent Contains(%d) = %v, want %v", x, got, present[x])
					}
				}
				if got := tr.Len(); got != n {
					t.Fatalf("quiescent Len = %d, want %d", got, n)
				}
				e, d := tr.AdaptiveStats()
				t.Logf("k=%d start=%v enables=%d disables=%d", k, start, e, d)
			})
		}
	}
}

// TestAdaptiveSoloPublisherDisables is the facade-level thin-spread
// regression: a single publisher starting in combining mode drains only
// size-1 rounds, so the controller must flip it to direct within the
// dwell bound — max(MinDwellSamples, 2) samples of SampleEvery updates
// each (2 samples is the EWMA's decay from the optimistic start to the
// disable threshold at the default α).
func TestAdaptiveSoloPublisherDisables(t *testing.T) {
	cfg := lockfreetrie.AdaptiveConfig{
		SampleEvery: 16, MinDwellSamples: 3, StartCombining: true,
		EnableThreshold: 2.5, DisableThreshold: 1.4, SmoothingAlpha: 0.5,
	}
	tr, err := lockfreetrie.New(1<<12, lockfreetrie.WithAdaptiveCombining(cfg))
	if err != nil {
		t.Fatal(err)
	}
	// The dwell bound, in update ops, plus one sample of slack for the
	// cadence offset.
	bound := cfg.SampleEvery * (cfg.MinDwellSamples + 1)
	for i := 0; i < bound; i++ {
		if err := tr.Insert(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	e, d := tr.AdaptiveStats()
	if d != 1 {
		t.Fatalf("disables = %d after %d solo ops, want exactly 1 within the dwell bound", d, bound)
	}
	if e != 0 {
		t.Fatalf("enables = %d, want 0 (nothing should re-enable a solo publisher)", e)
	}
	// Re-enabling needs clustering; another solo stretch must not flip
	// back.
	for i := 0; i < bound; i++ {
		if err := tr.Delete(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if e, _ := tr.AdaptiveStats(); e != 0 {
		t.Fatalf("solo deletes re-enabled combining (enables = %d)", e)
	}
}

// TestAdaptiveApplyBatch: the explicit batch entrypoint bypasses the
// publication slots at every adaptive configuration, exactly as with
// WithCombining.
func TestAdaptiveApplyBatch(t *testing.T) {
	for _, k := range []int{1, 4} {
		tr, err := lockfreetrie.New(64,
			lockfreetrie.WithShards(k), lockfreetrie.WithAdaptiveCombining())
		if err != nil {
			t.Fatal(err)
		}
		errs := tr.ApplyBatch([]lockfreetrie.Op{
			{Kind: lockfreetrie.OpInsert, Key: 3},
			{Kind: lockfreetrie.OpInsert, Key: 40},
			{Kind: lockfreetrie.OpInsert, Key: 41},
			{Kind: lockfreetrie.OpDelete, Key: 40},
		})
		if errs != nil {
			t.Fatalf("k=%d: ApplyBatch errs = %v", k, errs)
		}
		for _, want := range []struct {
			key int64
			in  bool
		}{{3, true}, {40, false}, {41, true}} {
			got, err := tr.Contains(want.key)
			if err != nil {
				t.Fatal(err)
			}
			if got != want.in {
				t.Fatalf("k=%d: Contains(%d) = %v, want %v", k, want.key, got, want.in)
			}
		}
	}
}

// TestAdaptiveRelaxedFacade: NewRelaxed rejects WithAdaptiveCombining
// at every shard count, naming the option — the relaxed trie has no
// announcement lists for a combining round to amortize.
func TestAdaptiveRelaxedFacade(t *testing.T) {
	for _, k := range []int{1, 4} {
		_, err := lockfreetrie.NewRelaxed(256,
			lockfreetrie.WithShards(k), lockfreetrie.WithAdaptiveCombining(aggressive))
		if err == nil || !strings.Contains(err.Error(), "WithAdaptiveCombining") {
			t.Fatalf("k=%d: NewRelaxed with WithAdaptiveCombining: %v, want a rejection naming the option", k, err)
		}
	}
}

// adaptiveFactory builds facade tries under WithAdaptiveCombining for the
// settest suite.
func adaptiveFactory(k int, start bool) settest.Factory {
	return func(u int64) (settest.Set, error) {
		cfg := aggressive
		cfg.StartCombining = start
		tr, err := lockfreetrie.New(u,
			lockfreetrie.WithShards(k), lockfreetrie.WithAdaptiveCombining(cfg))
		if err != nil {
			return nil, err
		}
		return apiSet{tr}, nil
	}
}

// TestAdaptiveConformance runs the full settest suite against
// WithAdaptiveCombining at every shard geometry, from both starting
// modes (organic flips churn throughout under the aggressive config).
func TestAdaptiveConformance(t *testing.T) {
	for _, k := range []int{1, 4, 16} {
		for _, start := range []bool{false, true} {
			f := adaptiveFactory(k, start)
			t.Run(fmt.Sprintf("shards=%d/startCombining=%v", k, start), func(t *testing.T) {
				t.Run("sequential", func(t *testing.T) {
					settest.RunSequential(t, f, 64)
				})
				t.Run("edge", func(t *testing.T) {
					settest.RunEdgeCases(t, f, 64)
				})
				t.Run("concurrent", func(t *testing.T) {
					opsPerG := 1200
					if testing.Short() {
						opsPerG = 300
					}
					settest.RunConcurrent(t, f, 256, 8, opsPerG)
				})
			})
		}
	}
}

// runAdaptiveRecorded is runCombiningRecorded with WithAdaptiveCombining
// (combining at start, aggressive sampling, so rounds and organic flips
// both happen inside the tiny histories).
func runAdaptiveRecorded(t *testing.T, u int64, k, workers int, script func(id int, rng *rand.Rand, do combRunner)) {
	t.Helper()
	cfg := aggressive
	cfg.SampleEvery = 4
	cfg.MinDwellSamples = 1
	cfg.StartCombining = true
	tr, err := lockfreetrie.New(u,
		lockfreetrie.WithShards(k), lockfreetrie.WithAdaptiveCombining(cfg))
	if err != nil {
		t.Fatal(err)
	}
	rec := lincheck.NewRecorder()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)*104729 + 7))
			script(id, rng, combRunner{tr: tr, rec: rec})
		}(w)
	}
	wg.Wait()
	ok, msg, err := lincheck.CheckOrExplain(rec.History())
	if err != nil {
		t.Fatalf("checker error: %v", err)
	}
	if !ok {
		t.Fatalf("shards=%d adaptive: %s", k, msg)
	}
}

// TestAdaptiveLinearizableWithBatches mixes explicit ApplyBatch calls
// with per-op traffic under WithAdaptiveCombining — the facade-level
// mirror of the sharded suite's adaptive lincheck variants.
func TestAdaptiveLinearizableWithBatches(t *testing.T) {
	old := sharded.ScanRetries
	sharded.ScanRetries = 1 << 20
	t.Cleanup(func() { sharded.ScanRetries = old })
	ins := func(k int64) lockfreetrie.Op { return lockfreetrie.Op{Kind: lockfreetrie.OpInsert, Key: k} }
	del := func(k int64) lockfreetrie.Op { return lockfreetrie.Op{Kind: lockfreetrie.OpDelete, Key: k} }
	for _, k := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			rounds := 150
			if testing.Short() {
				rounds = 30
			}
			for round := 0; round < rounds; round++ {
				runAdaptiveRecorded(t, 64, k, 4, func(id int, rng *rand.Rand, do combRunner) {
					switch id {
					case 0:
						do.batch(ins(3), ins(17), ins(40))
						do.delete(17)
					case 1:
						do.batch(del(3), ins(22))
						do.search(22)
					case 2:
						do.predecessor(41)
						do.search(3)
						do.predecessor(23)
					case 3:
						do.insert(41)
						do.batch(del(40), del(41))
					}
				})
			}
		})
	}
}
