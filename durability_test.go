package lockfreetrie_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	lockfreetrie "repro"
)

// reopenKeys closes tr's successor-to-be and returns a fresh durable
// trie over dir plus its recovered key set.
func openDurable(t *testing.T, dir string, opts ...lockfreetrie.Option) *lockfreetrie.Trie {
	t.Helper()
	all := append([]lockfreetrie.Option{lockfreetrie.WithDurability(dir)}, opts...)
	tr, err := lockfreetrie.New(1<<12, all...)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestDurableRecovery: updates through every entrypoint survive a
// close/reopen cycle, across all three construction paths.
func TestDurableRecovery(t *testing.T) {
	paths := []struct {
		name string
		opts []lockfreetrie.Option
	}{
		{"k1", nil},
		{"sharded", []lockfreetrie.Option{lockfreetrie.WithShards(4)}},
		{"resize", []lockfreetrie.Option{lockfreetrie.WithAdaptiveShards(1, 4)}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			dir := t.TempDir()
			tr := openDurable(t, dir, p.opts...)
			if !tr.Durable() {
				t.Fatal("Durable() = false")
			}
			for _, k := range []int64{10, 20, 30, 40} {
				if err := tr.Insert(k); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.Delete(20); err != nil {
				t.Fatal(err)
			}
			if errs := tr.ApplyBatch([]lockfreetrie.Op{
				{Kind: lockfreetrie.OpInsert, Key: 100},
				{Kind: lockfreetrie.OpDelete, Key: 40},
				{Kind: lockfreetrie.OpInsert, Key: 7},
			}); errs != nil {
				t.Fatalf("ApplyBatch: %v", errs)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			tr2 := openDurable(t, dir, p.opts...)
			defer tr2.Close()
			want := []int64{7, 10, 30, 100}
			keys, err := tr2.Keys(0, tr2.Universe()-1)
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != len(want) {
				t.Fatalf("recovered %v, want %v", keys, want)
			}
			for i := range want {
				if keys[i] != want[i] {
					t.Fatalf("recovered %v, want %v", keys, want)
				}
			}
			rs := tr2.RecoveryStats()
			if rs.Keys != 4 || rs.ReplayedOps == 0 {
				t.Fatalf("RecoveryStats = %+v, want 4 keys via replay", rs)
			}
			if tr2.Len() != 4 {
				t.Fatalf("Len = %d, want 4", tr2.Len())
			}
		})
	}
}

// TestDurableSnapshotCycle: SnapshotWAL checkpoints; recovery then
// reports snapshot keys plus the post-snapshot tail.
func TestDurableSnapshotCycle(t *testing.T) {
	dir := t.TempDir()
	tr := openDurable(t, dir)
	for k := int64(0); k < 50; k++ {
		tr.Insert(k)
	}
	if err := tr.SnapshotWAL(); err != nil {
		t.Fatal(err)
	}
	for k := int64(100); k < 110; k++ {
		tr.Insert(k)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr2 := openDurable(t, dir)
	defer tr2.Close()
	rs := tr2.RecoveryStats()
	if rs.SnapshotKeys != 50 || rs.ReplayedOps != 10 || rs.Keys != 60 {
		t.Fatalf("RecoveryStats = %+v, want 50 snapshot keys + 10 replayed", rs)
	}
}

// TestDurableMetrics: wal.* counters surface through MetricsSnapshot,
// with and without trie observability.
func TestDurableMetrics(t *testing.T) {
	dir := t.TempDir()
	tr := openDurable(t, dir)
	tr.Insert(5)
	snap := tr.MetricsSnapshot()
	if snap.Counters["wal.append.ops"] != 1 {
		t.Fatalf("wal.append.ops = %d, want 1", snap.Counters["wal.append.ops"])
	}
	if snap.Counters["ops.insert"] != 1 {
		t.Fatalf("ops.insert = %d, want 1 (trie metrics lost in merge)", snap.Counters["ops.insert"])
	}
	tr.Close()

	tr2, err := lockfreetrie.New(1<<12,
		lockfreetrie.WithDurability(t.TempDir()), lockfreetrie.WithoutObservability())
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	tr2.Insert(9)
	if got := tr2.MetricsSnapshot().Counters["wal.append.ops"]; got != 1 {
		t.Fatalf("wal.append.ops without trie obs = %d, want 1", got)
	}
}

// TestDurabilityOptionValidation: bad options fail construction.
func TestDurabilityOptionValidation(t *testing.T) {
	cases := []lockfreetrie.Option{
		lockfreetrie.WithDurability(""),
		lockfreetrie.WithDurability(t.TempDir(), lockfreetrie.WithSyncEvery(0)),
		lockfreetrie.WithDurability(t.TempDir(), lockfreetrie.WithSyncInterval(-time.Second)),
		lockfreetrie.WithDurability(t.TempDir(), lockfreetrie.WithWALShards(3)),
		lockfreetrie.WithDurability(t.TempDir(), lockfreetrie.WithSegmentBytes(0)),
		lockfreetrie.WithDurability(t.TempDir(), lockfreetrie.WithSnapshotBytes(0)),
	}
	for i, opt := range cases {
		if _, err := lockfreetrie.New(1<<12, opt); err == nil {
			t.Fatalf("case %d: invalid durability option accepted", i)
		}
	}
	if _, err := lockfreetrie.NewRelaxed(1<<12, lockfreetrie.WithDurability(t.TempDir())); err == nil ||
		!strings.Contains(err.Error(), "NewRelaxed") {
		t.Fatalf("NewRelaxed with durability: %v, want rejection", err)
	}
}

// TestNonDurableClose: Close and SnapshotWAL behave sanely without
// WithDurability.
func TestNonDurableClose(t *testing.T) {
	tr, err := lockfreetrie.New(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Durable() {
		t.Fatal("Durable() = true without WithDurability")
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := tr.SnapshotWAL(); err == nil {
		t.Fatal("SnapshotWAL without durability succeeded")
	}
	if rs := tr.RecoveryStats(); rs != (lockfreetrie.RecoveryStats{}) {
		t.Fatalf("RecoveryStats = %+v, want zero", rs)
	}
}

// TestDurableObsGauges: durability must not blind the gauges that read
// the built table. With the write-ahead wrapper installed, combine.*,
// ebr.epoch and the adaptive transition counters still come from the
// live shards, on the default k = 1 path and on a sharded one.
func TestDurableObsGauges(t *testing.T) {
	for _, k := range []int{1, 4} {
		tr, err := lockfreetrie.New(1<<12,
			lockfreetrie.WithShards(k),
			lockfreetrie.WithAdaptiveCombining(lockfreetrie.AdaptiveConfig{StartCombining: true}),
			lockfreetrie.WithDurability(t.TempDir(), lockfreetrie.WithSyncEvery(1<<20)))
		if err != nil {
			t.Fatal(err)
		}
		const workers, per = 8, 4000
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id int64) {
				defer wg.Done()
				for i := int64(0); i < per; i++ {
					x := (id*per + i) % 1024
					if i%2 == 0 {
						_ = tr.Insert(x)
					} else {
						_ = tr.Delete(x)
					}
				}
			}(int64(w))
		}
		wg.Wait()
		c := tr.MetricsSnapshot().Counters
		if c["combine.rounds"] <= 0 {
			t.Errorf("k=%d: combine.rounds = %d under durability, want > 0", k, c["combine.rounds"])
		}
		if c["ebr.epoch"] <= 0 {
			t.Errorf("k=%d: ebr.epoch = %d under durability, want > 0", k, c["ebr.epoch"])
		}
		e, d := tr.AdaptiveStats()
		if c["adaptive.enables"] != e || c["adaptive.disables"] != d {
			t.Errorf("k=%d: adaptive gauges = (%d, %d), AdaptiveStats = (%d, %d)",
				k, c["adaptive.enables"], c["adaptive.disables"], e, d)
		}
		t.Logf("k=%d rounds=%d epoch=%d adaptive=(%d, %d)", k, c["combine.rounds"], c["ebr.epoch"], e, d)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
