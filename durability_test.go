package lockfreetrie_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	lockfreetrie "repro"
	"repro/internal/adapt"
	"repro/internal/wal"
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
			lockfreetrie.WithAdaptiveTuning(adapt.Config{StartCombining: true}),
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

// TestDurableCheckpointWaitsForInflightApply parks one insert between
// its log append and its trie apply while SnapshotWAL runs. The
// checkpoint covers the insert's LSN, so it must wait for the apply
// before it scans: a snapshot that skipped the grace period would miss
// the key and then truncate the only segment holding its record.
func TestDurableCheckpointWaitsForInflightApply(t *testing.T) {
	dir := t.TempDir()
	tr := openDurable(t, dir)
	for k := int64(1); k <= 9; k++ {
		tr.Insert(k)
	}
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	wal.SetTestHookApply(func() {
		once.Do(func() {
			close(parked)
			<-release
		})
	})
	defer wal.SetTestHookApply(nil)
	inserted := make(chan error, 1)
	go func() { inserted <- tr.Insert(42) }()
	<-parked
	snapped := make(chan error, 1)
	go func() { snapped <- tr.SnapshotWAL() }()
	select {
	case err := <-snapped:
		t.Errorf("SnapshotWAL returned (err %v) while a logged insert was still unapplied", err)
		snapped <- err
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	if err := <-inserted; err != nil {
		t.Fatal(err)
	}
	if err := <-snapped; err != nil {
		t.Fatal(err)
	}
	wal.SetTestHookApply(nil)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr2 := openDurable(t, dir)
	defer tr2.Close()
	if ok, _ := tr2.Contains(42); !ok {
		t.Fatalf("key 42 lost across the checkpoint; RecoveryStats = %+v", tr2.RecoveryStats())
	}
	if rs := tr2.RecoveryStats(); rs.SnapshotKeys != 10 || rs.ReplayedOps != 0 {
		t.Fatalf("RecoveryStats = %+v, want all 10 keys from the snapshot", rs)
	}
}

// TestDurableFuzzyCheckpointStress: four goroutines toggle disjoint keys
// (per-op and batched) while a 4 KiB snapshot budget fires checkpoints
// over and over; they keep going until at least four checkpoints have
// completed. Each key has one writer, so its log order is its apply
// order, and after Close the reopened set must equal the live one.
func TestDurableFuzzyCheckpointStress(t *testing.T) {
	cases := []struct {
		name string
		opts []lockfreetrie.Option
		dur  []lockfreetrie.DurabilityOption
	}{
		{"k1", nil, nil},
		{"k4", []lockfreetrie.Option{lockfreetrie.WithShards(4)}, nil},
		{"walshards2", nil, []lockfreetrie.DurabilityOption{lockfreetrie.WithWALShards(2)}},
	}
	const u, workers, perW = 1 << 12, 4, 3000
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			dur := append([]lockfreetrie.DurabilityOption{
				lockfreetrie.WithSnapshotBytes(4096), lockfreetrie.WithSyncEvery(1 << 20)}, c.dur...)
			open := func() *lockfreetrie.Trie {
				tr, err := lockfreetrie.New(u, append(c.opts, lockfreetrie.WithDurability(dir, dur...))...)
				if err != nil {
					t.Fatal(err)
				}
				return tr
			}
			tr := open()
			var enough atomic.Bool
			deadline := time.Now().Add(30 * time.Second)
			go func() {
				for !enough.Load() && time.Now().Before(deadline) {
					if tr.MetricsSnapshot().Counters["wal.snapshots"] >= 4 {
						enough.Store(true)
					}
					time.Sleep(time.Millisecond)
				}
			}()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(w))
					own := func() int64 { return w + workers*rng.Int63n(u/workers) }
					for i := 0; (i < perW || !enough.Load()) && time.Now().Before(deadline); i++ {
						if i%16 == 0 {
							first := w + workers*rng.Int63n(u/workers-8)
							var batch []lockfreetrie.Op
							for j := int64(0); j < 8; j++ {
								kind := lockfreetrie.OpInsert
								if rng.Intn(2) == 0 {
									kind = lockfreetrie.OpDelete
								}
								batch = append(batch, lockfreetrie.Op{Kind: kind, Key: first + j*workers})
							}
							if errs := tr.ApplyBatch(batch); errs != nil {
								t.Errorf("ApplyBatch: %v", errs)
							}
							continue
						}
						var err error
						if rng.Intn(2) == 0 {
							err = tr.Insert(own())
						} else {
							err = tr.Delete(own())
						}
						if err != nil {
							t.Error(err)
						}
					}
				}(int64(w))
			}
			wg.Wait()
			live, err := tr.Keys(0, u-1)
			if err != nil {
				t.Fatal(err)
			}
			snaps := tr.MetricsSnapshot().Counters["wal.snapshots"]
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			if !enough.Load() {
				t.Fatalf("wal.snapshots = %d after 30 s, want at least 4 auto-checkpoints", snaps)
			}
			tr2 := open()
			defer tr2.Close()
			got, err := tr2.Keys(0, u-1)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(live) {
				t.Fatalf("recovered %d keys, live set had %d (snapshots %d, %+v)",
					len(got), len(live), snaps, tr2.RecoveryStats())
			}
			t.Logf("%d keys, %d checkpoints, recovery %+v", len(live), snaps, tr2.RecoveryStats())
		})
	}
}

// TestDurableHeapNoShadowCopy pins what durability costs in memory: a
// durable fill holds at most 10% more heap than the same fill in memory,
// since the log keeps no second copy of the set.
func TestDurableHeapNoShadowCopy(t *testing.T) {
	if testing.Short() {
		t.Skip("fills two 2^22-universe tries (about a minute under -race); a heap measurement, not a concurrency test")
	}
	const u, n, chunk = 1 << 22, 1 << 18, 1024
	// Live bytes after a full GC, not HeapInuse: spans that earlier tests
	// left partly free count as in use before a fill and are then filled
	// by it, so a HeapInuse delta under-reads a fill by up to their size.
	liveHeap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	fill := func(opts ...lockfreetrie.Option) uint64 {
		base := liveHeap()
		tr, err := lockfreetrie.New(u, opts...)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		batch := make([]lockfreetrie.Op, chunk)
		for i := 0; i < n; i += chunk {
			for j := range batch {
				batch[j] = lockfreetrie.Op{Kind: lockfreetrie.OpInsert, Key: rng.Int63n(u)}
			}
			if errs := tr.ApplyBatch(batch); errs != nil {
				t.Fatalf("ApplyBatch: %v", errs)
			}
		}
		held := liveHeap() - base
		runtime.KeepAlive(tr)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		return held
	}
	mem := fill()
	dur := fill(lockfreetrie.WithDurability(t.TempDir(),
		lockfreetrie.WithSyncEvery(1024), lockfreetrie.WithSnapshotBytes(-1)))
	ratio := float64(dur) / float64(mem)
	t.Logf("live heap: in-memory %.1f MB, durable %.1f MB, ratio %.3f", float64(mem)/1e6, float64(dur)/1e6, ratio)
	if ratio > 1.10 {
		t.Fatalf("durable heap %.1f MB is %.3f× the in-memory %.1f MB, want ≤ 1.10×",
			float64(dur)/1e6, ratio, float64(mem)/1e6)
	}
}
