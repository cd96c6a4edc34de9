package core_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/lincheck"
)

// runRecorded executes a concurrent workload against a fresh trie and
// checks the recorded history for linearizability. Each worker receives its
// own rng and issues ops via the provided script function.
func runRecorded(t *testing.T, u int64, workers int, script func(id int, rng *rand.Rand, do opRunner)) {
	t.Helper()
	tr := newTrie(t, u)
	rec := lincheck.NewRecorder()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)*7919 + 13))
			script(id, rng, opRunner{tr: tr, rec: rec})
		}(w)
	}
	wg.Wait()
	ok, msg, err := lincheck.CheckOrExplain(rec.History())
	if err != nil {
		t.Fatalf("checker error: %v", err)
	}
	if !ok {
		t.Fatal(msg)
	}
}

// opRunner wraps a trie with history recording.
type opRunner struct {
	tr  *core.Trie
	rec *lincheck.Recorder
	// rank, when set, records a script's sparse keys as their ranks, which
	// fit the checker's key range 0..63; the map is order-preserving, so
	// predecessor answers map too.
	rank map[int64]int64
}

// recKey is the key (or predecessor answer) as the history records it.
func (r opRunner) recKey(k int64) int64 {
	if r.rank == nil || k < 0 {
		return k
	}
	if rk, ok := r.rank[k]; ok {
		return rk
	}
	return -2 // not a script key: no valid answer, so the check fails
}

func (r opRunner) insert(k int64) {
	inv := r.rec.Begin()
	r.tr.Insert(k)
	r.rec.End(lincheck.OpInsert, r.recKey(k), 0, inv)
}

func (r opRunner) delete(k int64) {
	inv := r.rec.Begin()
	r.tr.Delete(k)
	r.rec.End(lincheck.OpDelete, r.recKey(k), 0, inv)
}

func (r opRunner) search(k int64) {
	inv := r.rec.Begin()
	got := r.tr.Search(k)
	res := int64(0)
	if got {
		res = 1
	}
	r.rec.End(lincheck.OpSearch, r.recKey(k), res, inv)
}

func (r opRunner) predecessor(y int64) {
	inv := r.rec.Begin()
	got := r.tr.Predecessor(y)
	r.rec.End(lincheck.OpPredecessor, r.recKey(y), r.recKey(got), inv)
}

func rounds(t *testing.T, n int) int {
	if testing.Short() {
		return n / 5
	}
	return n
}

// TestCoreLinearizableUniform (experiment C8): random mixed workloads.
func TestCoreLinearizableUniform(t *testing.T) {
	for round := 0; round < rounds(t, 300); round++ {
		runRecorded(t, 16, 3, func(id int, rng *rand.Rand, do opRunner) {
			for i := 0; i < 6; i++ {
				k := rng.Int63n(16)
				switch rng.Intn(4) {
				case 0:
					do.insert(k)
				case 1:
					do.delete(k)
				case 2:
					do.search(k)
				case 3:
					do.predecessor(k)
				}
			}
		})
	}
}

// TestCoreLinearizableAcrossBlocks: random mixed workloads at u = 2^10 on
// keys either side of 64-key block boundaries (and the height-9 boundary at
// 512), so walks cross from the packed low-level blocks into the heap-order
// region and back down into a neighbouring block.
func TestCoreLinearizableAcrossBlocks(t *testing.T) {
	keys := []int64{0, 63, 64, 127, 128, 511, 512, 575, 576, 1023}
	rank := make(map[int64]int64, len(keys))
	for i, k := range keys {
		rank[k] = int64(i)
	}
	for round := 0; round < rounds(t, 300); round++ {
		runRecorded(t, 1<<10, 3, func(id int, rng *rand.Rand, do opRunner) {
			do.rank = rank
			for i := 0; i < 6; i++ {
				k := keys[rng.Intn(len(keys))]
				switch rng.Intn(4) {
				case 0:
					do.insert(k)
				case 1:
					do.delete(k)
				case 2:
					do.search(k)
				case 3:
					do.predecessor(k)
				}
			}
		})
	}
}

// TestCoreLinearizableFigure7Shape: two deletes with keys w < x racing a
// Predecessor(y) with w < x < y — the notify-threshold ordering scenario of
// Figure 7. The trie starts with both keys present via a setup goroutine's
// recorded inserts.
func TestCoreLinearizableFigure7Shape(t *testing.T) {
	for round := 0; round < rounds(t, 300); round++ {
		runRecorded(t, 16, 4, func(id int, rng *rand.Rand, do opRunner) {
			const w, x, y = 3, 7, 12
			switch id {
			case 0:
				do.insert(w)
				do.insert(x)
				do.predecessor(y)
			case 1:
				do.delete(x)
				do.predecessor(y)
			case 2:
				do.delete(w)
				do.search(x)
			case 3:
				do.predecessor(y)
				do.predecessor(x)
			}
		})
	}
}

// TestCoreLinearizableFigure8Shape: deletes of decreasing keys racing a
// predecessor's RU-ALL traversal — the atomic-copy scenario of Figure 8
// (Delete(25), Delete(29) vs Predecessor(40), scaled to u=64).
func TestCoreLinearizableFigure8Shape(t *testing.T) {
	for round := 0; round < rounds(t, 300); round++ {
		runRecorded(t, 64, 4, func(id int, rng *rand.Rand, do opRunner) {
			switch id {
			case 0:
				do.insert(20)
				do.insert(25)
				do.insert(29)
			case 1:
				do.delete(25)
				do.predecessor(40)
			case 2:
				do.delete(29)
				do.predecessor(40)
			case 3:
				do.predecessor(40)
				do.predecessor(40)
			}
		})
	}
}

// TestCoreLinearizableFigure9Shape: Insert(x) then Insert(w) with w < x < y
// racing Predecessor(y) — the updateNodeMax forwarding scenario of Figure 9.
func TestCoreLinearizableFigure9Shape(t *testing.T) {
	for round := 0; round < rounds(t, 300); round++ {
		runRecorded(t, 16, 3, func(id int, rng *rand.Rand, do opRunner) {
			const w, x, y = 2, 6, 11
			switch id {
			case 0:
				do.insert(x)
				do.insert(w)
			case 1:
				do.predecessor(y)
				do.predecessor(y)
				do.predecessor(y)
			case 2:
				do.search(w)
				do.predecessor(y)
			}
		})
	}
}

// TestCoreLinearizableDeleteHandoff: chained deletes whose embedded
// predecessors feed the ⊥-case graph (Definition 5.1): churn in a narrow
// band below the query key.
func TestCoreLinearizableDeleteHandoff(t *testing.T) {
	for round := 0; round < rounds(t, 300); round++ {
		runRecorded(t, 16, 4, func(id int, rng *rand.Rand, do opRunner) {
			switch id {
			case 0:
				do.insert(4)
				do.insert(5)
				do.delete(5)
			case 1:
				do.insert(6)
				do.delete(6)
				do.delete(4)
			case 2:
				do.predecessor(9)
				do.predecessor(9)
			case 3:
				do.insert(2)
				do.predecessor(9)
			}
		})
	}
}

// TestCoreLinearizableHighContentionOneKey: everyone on one key.
func TestCoreLinearizableHighContentionOneKey(t *testing.T) {
	for round := 0; round < rounds(t, 200); round++ {
		runRecorded(t, 8, 4, func(id int, rng *rand.Rand, do opRunner) {
			for i := 0; i < 4; i++ {
				switch rng.Intn(4) {
				case 0:
					do.insert(5)
				case 1:
					do.delete(5)
				case 2:
					do.search(5)
				case 3:
					do.predecessor(7)
				}
			}
		})
	}
}
