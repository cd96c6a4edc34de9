package lockfreetrie_test

import (
	"fmt"
	"sync"
	"testing"

	lockfreetrie "repro"
)

// shardCounts runs every range test against the default one-shard table
// and two wider geometries; with u=64 and k=16 the shards are 4 keys wide, so
// Range/Keys scans constantly cross shard boundaries.
var shardCounts = []int{1, 4, 16}

func forEachShardCount(t *testing.T, fn func(t *testing.T, k int)) {
	for _, k := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) { fn(t, k) })
	}
}

func TestRangeBasic(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		tr, err := lockfreetrie.New(64, lockfreetrie.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int64{2, 5, 9, 30, 61} {
			if err := tr.Insert(k); err != nil {
				t.Fatal(err)
			}
		}
		got, err := tr.Keys(0, 63)
		if err != nil {
			t.Fatal(err)
		}
		want := []int64{2, 5, 9, 30, 61}
		if len(got) != len(want) {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Keys = %v, want %v", got, want)
			}
		}

		got, _ = tr.Keys(5, 30) // inclusive bounds
		if len(got) != 3 || got[0] != 5 || got[2] != 30 {
			t.Fatalf("Keys(5,30) = %v, want [5 9 30]", got)
		}
		got, _ = tr.Keys(10, 29) // empty interior
		if len(got) != 0 {
			t.Fatalf("Keys(10,29) = %v, want empty", got)
		}
	})
}

// TestRangeAcrossShardBoundaries pins keys to the first/last slot of
// several width-4 shards and scans across them.
func TestRangeAcrossShardBoundaries(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		tr, err := lockfreetrie.New(64, lockfreetrie.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		want := []int64{3, 4, 7, 8, 31, 32, 60, 63}
		for _, k := range want {
			if err := tr.Insert(k); err != nil {
				t.Fatal(err)
			}
		}
		got, err := tr.Keys(0, 63)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Keys = %v, want %v", got, want)
			}
		}
		// Sub-range cut exactly on shard boundaries.
		got, _ = tr.Keys(4, 32)
		if len(got) != 5 || got[0] != 4 || got[4] != 32 {
			t.Fatalf("Keys(4,32) = %v, want [4 7 8 31 32]", got)
		}
	})
}

func TestRangeEarlyStop(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		tr, err := lockfreetrie.New(32, lockfreetrie.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(0); k < 10; k++ {
			tr.Insert(k)
		}
		var visited []int64
		err = tr.Range(0, 31, func(k int64) bool {
			visited = append(visited, k)
			return len(visited) < 3
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(visited) != 3 || visited[0] != 9 || visited[2] != 7 {
			t.Fatalf("visited = %v, want [9 8 7]", visited)
		}
	})
}

func TestRangeIncludesKeyZero(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		tr, err := lockfreetrie.New(32, lockfreetrie.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		tr.Insert(0)
		tr.Insert(3)
		got, _ := tr.Keys(0, 31)
		if len(got) != 2 || got[0] != 0 || got[1] != 3 {
			t.Fatalf("Keys = %v, want [0 3]", got)
		}
	})
}

func TestRangeValidation(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		tr, err := lockfreetrie.New(32, lockfreetrie.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Range(-1, 5, func(int64) bool { return true }); err == nil {
			t.Error("negative lo accepted")
		}
		if err := tr.Range(0, 32, func(int64) bool { return true }); err == nil {
			t.Error("hi ≥ universe accepted")
		}
		if _, err := tr.Keys(0, 99); err == nil {
			t.Error("Keys with bad hi accepted")
		}
	})
}

// TestRangeWeakConsistency: keys outside the churn band and present
// throughout must always be visited, whatever happens inside the band.
func TestRangeWeakConsistency(t *testing.T) {
	forEachShardCount(t, func(t *testing.T, shards int) {
		tr, err := lockfreetrie.New(64, lockfreetrie.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		tr.Insert(2)
		tr.Insert(60)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					tr.Insert(30)
					tr.Delete(30)
				}
			}
		}()
		for i := 0; i < 2000; i++ {
			keys, err := tr.Keys(0, 63)
			if err != nil {
				t.Fatal(err)
			}
			saw2, saw60 := false, false
			for _, k := range keys {
				if k == 2 {
					saw2 = true
				}
				if k == 60 {
					saw60 = true
				}
				if k != 2 && k != 30 && k != 60 {
					t.Fatalf("impossible key %d in scan", k)
				}
			}
			if !saw2 || !saw60 {
				t.Fatalf("stable keys missed: %v", keys)
			}
		}
		close(stop)
		wg.Wait()
	})
}
