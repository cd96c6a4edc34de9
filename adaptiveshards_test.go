package lockfreetrie_test

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	lockfreetrie "repro"
	"repro/internal/adapt"
	"repro/internal/resize"
	"repro/internal/settest"
)

// TestWithAdaptiveShardsValidation: bound shapes and option interplay
// fail construction loudly.
func TestWithAdaptiveShardsValidation(t *testing.T) {
	bad := [][2]int{{0, 4}, {3, 8}, {2, 6}, {8, 4}, {-1, -1}}
	for _, b := range bad {
		if _, err := lockfreetrie.New(1<<10, lockfreetrie.WithAdaptiveShards(b[0], b[1])); err == nil {
			t.Errorf("WithAdaptiveShards(%d, %d) accepted", b[0], b[1])
		}
	}
	// WithShards must land inside the band.
	if _, err := lockfreetrie.New(1<<10,
		lockfreetrie.WithShards(32), lockfreetrie.WithAdaptiveShards(1, 16)); err == nil {
		t.Error("WithShards(32) outside [1, 16] accepted")
	}
	tr, err := lockfreetrie.New(1<<10,
		lockfreetrie.WithShards(8), lockfreetrie.WithAdaptiveShards(2, 16))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Shards() != 8 || !tr.AdaptiveShards() {
		t.Fatalf("Shards = %d, AdaptiveShards = %v; want 8, true", tr.Shards(), tr.AdaptiveShards())
	}
	// Without WithShards the trie starts at min.
	tr2, err := lockfreetrie.New(1<<10, lockfreetrie.WithAdaptiveShards(4, 16))
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Shards() != 4 {
		t.Fatalf("initial Shards = %d, want min = 4", tr2.Shards())
	}
}

// TestResizeStatsFacade: the counters move with forced transitions and
// stay static without the option.
func TestResizeStatsFacade(t *testing.T) {
	static, err := lockfreetrie.New(1<<10, lockfreetrie.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if st := static.ResizeStats(); st != (lockfreetrie.ResizeStats{Shards: 4}) {
		t.Fatalf("static ResizeStats = %+v", st)
	}
	tr, err := lockfreetrie.New(1<<10, lockfreetrie.WithAdaptiveShards(1, 16))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{4, 16, 4} {
		if err := lockfreetrie.ForceResize(tr, k); err != nil {
			t.Fatal(err)
		}
	}
	st := tr.ResizeStats()
	if st.Shards != 4 || st.Grows != 2 || st.Shrinks != 1 || st.Migrating {
		t.Fatalf("ResizeStats = %+v, want 4 shards, 2 grows, 1 shrink, idle", st)
	}
}

// facadeSet adapts the error-returning facade to the settest interface;
// keys are generated in range, so any error is a test bug.
type facadeSet struct{ t *lockfreetrie.Trie }

func (s facadeSet) Search(x int64) bool {
	ok, err := s.t.Contains(x)
	if err != nil {
		panic(err)
	}
	return ok
}
func (s facadeSet) Insert(x int64) {
	if err := s.t.Insert(x); err != nil {
		panic(err)
	}
}
func (s facadeSet) Delete(x int64) {
	if err := s.t.Delete(x); err != nil {
		panic(err)
	}
}
func (s facadeSet) Predecessor(y int64) int64 {
	p, err := s.t.Predecessor(y)
	if err != nil {
		panic(err)
	}
	return p
}

// TestAdaptiveShardsConformance: the settest concurrent suite against
// the facade while forced transitions cycle 1→4→16→4→1 underneath —
// with and without the combining layers composed in.
func TestAdaptiveShardsConformance(t *testing.T) {
	variants := []struct {
		name string
		opts []lockfreetrie.Option
	}{
		{"plain", nil},
		{"combining", []lockfreetrie.Option{lockfreetrie.WithCombining()}},
		{"adaptive-combining", []lockfreetrie.Option{lockfreetrie.WithAdaptiveTuning(
			adapt.Config{SampleEvery: 8, MinDwell: 1})}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			stop := make(chan struct{})
			var wg sync.WaitGroup
			t.Cleanup(func() {
				close(stop)
				wg.Wait()
			})
			f := func(u int64) (settest.Set, error) {
				opts := append([]lockfreetrie.Option{lockfreetrie.WithAdaptiveShards(1, 16)}, v.opts...)
				tr, err := lockfreetrie.New(u, opts...)
				if err != nil {
					return nil, err
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						for _, k := range []int{4, 16, 4, 1} {
							select {
							case <-stop:
								return
							default:
							}
							// The facade's own decision layer may have a
							// migration in flight (the workers' churn feeds
							// it); a busy collision just skips this hop.
							if err := lockfreetrie.ForceResize(tr, k); err != nil && !errors.Is(err, resize.ErrBusy) {
								t.Errorf("ForceResize(%d): %v", k, err)
								return
							}
						}
					}
				}()
				return facadeSet{tr}, nil
			}
			ops := 900
			if testing.Short() {
				ops = 300
			}
			settest.RunConcurrent(t, f, 256, 8, ops)
		})
	}
}

// TestAdaptiveShardsLen: the facade half of the migration-window Len
// regression — quiescent probes mid-replay are exact, concurrent ones
// stay inside the weak contract, and quiescence restores exactness.
// (The layer-level twin with stage-hook probes is
// internal/resize's len_test.go.)
func TestAdaptiveShardsLen(t *testing.T) {
	const u, n, w = int64(1 << 10), int64(150), 4
	tr, err := lockfreetrie.New(u, lockfreetrie.WithAdaptiveShards(1, 16))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		if err := tr.Insert(i); err != nil {
			t.Fatal(err)
		}
	}
	// Quiescent: exact at every point of a migration.
	if err := lockfreetrie.ForceResize(tr, 8); err != nil {
		t.Fatal(err)
	}
	if got := tr.Len(); got != n {
		t.Fatalf("post-migration quiescent Len = %d, want %d", got, n)
	}
	// Concurrent: togglers on private keys while migrations replay.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(key int64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					tr.Insert(key)
					tr.Delete(key)
					// Yield between pairs — unyielding same-range churn is
					// the adversarial schedule that can starve a single
					// core-trie op (and the migration drain waiting on it)
					// for tens of seconds on a single-P host; see
					// internal/resize's drain latency note.
					runtime.Gosched()
				}
			}
		}(n + int64(g))
	}
	for i := 0; i < 4; i++ {
		for _, k := range []int{16, 1, 8} {
			// Tolerate a busy collision with a decision-layer migration
			// the togglers' churn may have triggered; the Len contract
			// under test is independent of which migration is running.
			if err := lockfreetrie.ForceResize(tr, k); err != nil && !errors.Is(err, resize.ErrBusy) {
				t.Fatal(err)
			}
			if got := tr.Len(); got < n || got > n+2*w {
				t.Fatalf("mid-churn Len = %d outside [%d, %d]", got, n, n+2*w)
			}
		}
	}
	close(stop)
	wg.Wait()
	if got := tr.Len(); got != n {
		t.Fatalf("final quiescent Len = %d, want %d", got, n)
	}
}

// TestAdaptiveShardsBatchAndRange: ApplyBatch and the composed
// Range/Keys/Floor surface work across forced transitions.
func TestAdaptiveShardsBatchAndRange(t *testing.T) {
	const u = int64(1 << 10)
	tr, err := lockfreetrie.New(u, lockfreetrie.WithAdaptiveShards(1, 8))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	ref := map[int64]bool{}
	for round := 0; round < 6; round++ {
		var ops []lockfreetrie.Op
		for i := 0; i < 50; i++ {
			k := rng.Int63n(u)
			kind := lockfreetrie.OpInsert
			if rng.Intn(3) == 0 {
				kind = lockfreetrie.OpDelete
			}
			ops = append(ops, lockfreetrie.Op{Kind: kind, Key: k})
		}
		if errs := tr.ApplyBatch(ops); errs != nil {
			t.Fatalf("ApplyBatch: %v", errs)
		}
		for _, op := range ops { // last op per key wins
			ref[op.Key] = op.Kind == lockfreetrie.OpInsert
		}
		if err := lockfreetrie.ForceResize(tr, []int{4, 8, 2, 1, 8, 2}[round]); err != nil {
			t.Fatal(err)
		}
		var want []int64
		for k := int64(0); k < u; k++ {
			if ref[k] {
				want = append(want, k)
			}
		}
		got, err := tr.Keys(0, u-1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: Keys len %d, want %d", round, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d: Keys[%d] = %d, want %d", round, i, got[i], want[i])
			}
		}
	}
}
