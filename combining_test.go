package lockfreetrie_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	lockfreetrie "repro"
	"repro/internal/lincheck"
	"repro/internal/settest"
	"repro/internal/sharded"
)

// apiSet adapts the public facade to the settest interface (the facade's
// key-range errors cannot fire: settest stays inside [0, u)).
type apiSet struct{ tr *lockfreetrie.Trie }

func (s apiSet) Search(x int64) bool {
	ok, err := s.tr.Contains(x)
	if err != nil {
		panic(err)
	}
	return ok
}

func (s apiSet) Insert(x int64) {
	if err := s.tr.Insert(x); err != nil {
		panic(err)
	}
}

func (s apiSet) Delete(x int64) {
	if err := s.tr.Delete(x); err != nil {
		panic(err)
	}
}

func (s apiSet) Predecessor(y int64) int64 {
	p, err := s.tr.Predecessor(y)
	if err != nil {
		panic(err)
	}
	return p
}

func combiningFactory(k int) settest.Factory {
	return func(u int64) (settest.Set, error) {
		tr, err := lockfreetrie.New(u, lockfreetrie.WithShards(k), lockfreetrie.WithCombining())
		if err != nil {
			return nil, err
		}
		return apiSet{tr}, nil
	}
}

// TestCombiningConformance runs the full settest suite against
// WithCombining at every shard geometry of the matrix.
func TestCombiningConformance(t *testing.T) {
	for _, k := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			t.Run("sequential", func(t *testing.T) {
				settest.RunSequential(t, combiningFactory(k), 64)
			})
			t.Run("edge", func(t *testing.T) {
				settest.RunEdgeCases(t, combiningFactory(k), 64)
			})
			t.Run("concurrent", func(t *testing.T) {
				opsPerG := 1200
				if testing.Short() {
					opsPerG = 300
				}
				settest.RunConcurrent(t, combiningFactory(k), 256, 8, opsPerG)
			})
		})
	}
}

// combRunner wraps a combining facade trie with lincheck recording.
type combRunner struct {
	tr  *lockfreetrie.Trie
	rec *lincheck.Recorder
}

func (r combRunner) insert(k int64) {
	inv := r.rec.Begin()
	if err := r.tr.Insert(k); err != nil {
		panic(err)
	}
	r.rec.End(lincheck.OpInsert, k, 0, inv)
}

func (r combRunner) delete(k int64) {
	inv := r.rec.Begin()
	if err := r.tr.Delete(k); err != nil {
		panic(err)
	}
	r.rec.End(lincheck.OpDelete, k, 0, inv)
}

func (r combRunner) batch(ops ...lockfreetrie.Op) {
	// A batch is not atomic: record each op as its own history event
	// around the whole call, which is sound (every op's linearization
	// point lies inside the call).
	inv := r.rec.Begin()
	if errs := r.tr.ApplyBatch(ops); errs != nil {
		panic(fmt.Sprintf("ApplyBatch: %v", errs))
	}
	for _, op := range ops {
		kind := lincheck.OpInsert
		if op.Kind == lockfreetrie.OpDelete {
			kind = lincheck.OpDelete
		}
		r.rec.End(kind, op.Key, 0, inv)
	}
}

func (r combRunner) search(k int64) {
	inv := r.rec.Begin()
	got, err := r.tr.Contains(k)
	if err != nil {
		panic(err)
	}
	res := int64(0)
	if got {
		res = 1
	}
	r.rec.End(lincheck.OpSearch, k, res, inv)
}

func (r combRunner) predecessor(y int64) {
	inv := r.rec.Begin()
	got, err := r.tr.Predecessor(y)
	if err != nil {
		panic(err)
	}
	r.rec.End(lincheck.OpPredecessor, y, got, inv)
}

func runCombiningRecorded(t *testing.T, u int64, k, workers int, script func(id int, rng *rand.Rand, do combRunner)) {
	t.Helper()
	tr, err := lockfreetrie.New(u, lockfreetrie.WithShards(k), lockfreetrie.WithCombining())
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
		t.Fatalf("shards=%d combining: %s", k, msg)
	}
}

func combiningRounds(t *testing.T, n int) int {
	if testing.Short() {
		return n / 5
	}
	return n
}

// TestCombiningLinearizable checks recorded histories of combined updates,
// searches and predecessors — the histories are small enough that every op
// usually lands in one combining round, the regime where dedup and the
// round handoff must stay linearizable.
func TestCombiningLinearizable(t *testing.T) {
	// Raise the fallback budget as the sharded suite does, so the
	// weakly-consistent degradation path stays unreachable under test.
	old := sharded.ScanRetries
	sharded.ScanRetries = 1 << 20
	t.Cleanup(func() { sharded.ScanRetries = old })
	for _, k := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			for round := 0; round < combiningRounds(t, 150); round++ {
				runCombiningRecorded(t, 64, k, 4, func(id int, rng *rand.Rand, do combRunner) {
					for i := 0; i < 5; i++ {
						key := rng.Int63n(64)
						switch rng.Intn(4) {
						case 0:
							do.insert(key)
						case 1:
							do.delete(key)
						case 2:
							do.search(key)
						case 3:
							do.predecessor(key)
						}
					}
				})
			}
		})
	}
}

// TestCombiningLinearizableSameKeyChurn aims all goroutines at two keys so
// rounds constantly dedup conflicting Insert/Delete pairs — the last-wins
// merge must stay a valid linearization.
func TestCombiningLinearizableSameKeyChurn(t *testing.T) {
	old := sharded.ScanRetries
	sharded.ScanRetries = 1 << 20
	t.Cleanup(func() { sharded.ScanRetries = old })
	for _, k := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			for round := 0; round < combiningRounds(t, 150); round++ {
				runCombiningRecorded(t, 64, k, 4, func(id int, rng *rand.Rand, do combRunner) {
					switch id {
					case 0:
						do.insert(5)
						do.delete(5)
						do.insert(5)
					case 1:
						do.delete(5)
						do.insert(33)
					case 2:
						do.search(5)
						do.predecessor(34)
						do.search(33)
					case 3:
						do.insert(5)
						do.predecessor(6)
					}
				})
			}
		})
	}
}

// TestCombiningLinearizableWithBatches mixes explicit ApplyBatch calls
// with combined per-op traffic.
func TestCombiningLinearizableWithBatches(t *testing.T) {
	old := sharded.ScanRetries
	sharded.ScanRetries = 1 << 20
	t.Cleanup(func() { sharded.ScanRetries = old })
	ins := func(k int64) lockfreetrie.Op { return lockfreetrie.Op{Kind: lockfreetrie.OpInsert, Key: k} }
	del := func(k int64) lockfreetrie.Op { return lockfreetrie.Op{Kind: lockfreetrie.OpDelete, Key: k} }
	for _, k := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			for round := 0; round < combiningRounds(t, 150); round++ {
				runCombiningRecorded(t, 64, k, 4, func(id int, rng *rand.Rand, do combRunner) {
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

// TestApplyBatchLastWinsAndErrors pins the public batch semantics: final
// effect per key, nil error slice on success, positional errors otherwise.
func TestApplyBatchLastWinsAndErrors(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		tr, err := lockfreetrie.New(64, lockfreetrie.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		errs := tr.ApplyBatch([]lockfreetrie.Op{
			{Kind: lockfreetrie.OpInsert, Key: 7},
			{Kind: lockfreetrie.OpInsert, Key: 9},
			{Kind: lockfreetrie.OpDelete, Key: 7}, // supersedes the insert
			{Kind: lockfreetrie.OpInsert, Key: 50},
		})
		if errs != nil {
			t.Fatalf("ApplyBatch errs = %v, want nil", errs)
		}
		for _, want := range []struct {
			key int64
			in  bool
		}{{7, false}, {9, true}, {50, true}} {
			got, _ := tr.Contains(want.key)
			if got != want.in {
				t.Fatalf("Contains(%d) = %v, want %v", want.key, got, want.in)
			}
		}
		if n := tr.Len(); n != 2 {
			t.Fatalf("Len = %d, want 2", n)
		}

		errs = tr.ApplyBatch([]lockfreetrie.Op{
			{Kind: lockfreetrie.OpInsert, Key: -1},
			{Kind: lockfreetrie.OpInsert, Key: 11},
			{Kind: 0, Key: 3},
			{Kind: lockfreetrie.OpDelete, Key: 64},
		})
		if errs == nil || len(errs) != 4 {
			t.Fatalf("ApplyBatch errs = %v, want 4 positional entries", errs)
		}
		if errs[0] == nil || errs[1] != nil || errs[2] == nil || errs[3] == nil {
			t.Fatalf("ApplyBatch errs = %v: wrong positions", errs)
		}
		if got, _ := tr.Contains(11); !got {
			t.Fatal("valid op 11 was not applied alongside invalid ones")
		}
		if errs := tr.ApplyBatch(nil); errs != nil {
			t.Fatalf("ApplyBatch(nil) = %v", errs)
		}
	})
}

// TestCombiningLen checks the occupancy counters survive the combined
// update paths (pre-increment/rollback discipline inside batch applies).
func TestCombiningLen(t *testing.T) {
	for _, k := range shardCounts {
		tr, err := lockfreetrie.New(1024, lockfreetrie.WithShards(k), lockfreetrie.WithCombining())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				lo := int64(id) * 128
				for i := int64(0); i < 128; i++ {
					tr.Insert(lo + i)
				}
				for i := int64(0); i < 128; i += 4 {
					tr.Delete(lo + i)
				}
				// Re-inserting present keys and deleting absent ones must
				// not drift the counters.
				for i := int64(1); i < 128; i += 4 {
					tr.Insert(lo + i)
					tr.Delete(lo + i - 1)
				}
			}(g)
		}
		wg.Wait()
		want := int64(6 * (128 - 32)) // 32 multiples of 4 deleted per range
		if got := tr.Len(); got != want {
			t.Fatalf("k=%d: Len = %d, want %d", k, got, want)
		}
	}
}
