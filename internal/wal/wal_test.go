package wal

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/combine"
	"repro/internal/core"
)

// memSet is a map-backed Backend. It fails the test on an ApplyBatch
// whose keys are not strictly ascending, the Backend contract that
// snapshot loading and logged runs must keep.
type memSet struct {
	t  *testing.T
	mu sync.Mutex
	m  map[int64]bool
}

func newMemSet(t *testing.T) *memSet { return &memSet{t: t, m: map[int64]bool{}} }

func (b *memSet) Insert(x int64) { b.mu.Lock(); b.m[x] = true; b.mu.Unlock() }
func (b *memSet) Delete(x int64) { b.mu.Lock(); delete(b.m, x); b.mu.Unlock() }

func (b *memSet) ApplyBatch(ops []core.BatchOp) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, op := range ops {
		if i > 0 && op.Key <= ops[i-1].Key {
			b.t.Errorf("ApplyBatch keys not strictly ascending: %d after %d", op.Key, ops[i-1].Key)
		}
		if op.Del {
			delete(b.m, op.Key)
		} else {
			b.m[op.Key] = true
		}
	}
}

func (b *memSet) Search(x int64) bool { b.mu.Lock(); defer b.mu.Unlock(); return b.m[x] }

func (b *memSet) Predecessor(y int64) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	for k := y - 1; k >= 0; k-- {
		if b.m[k] {
			return k
		}
	}
	return -1
}

func (b *memSet) Len() int64 { b.mu.Lock(); defer b.mu.Unlock(); return int64(len(b.m)) }

// collect returns the backend's keys in ascending order.
func collect(b *memSet) []int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []int64
	for k := range b.m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func wantKeys(t *testing.T, rec *Recovery, b *memSet, want ...int64) {
	t.Helper()
	got := collect(b)
	if len(got) != len(want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered %v, want %v", got, want)
		}
	}
	if rec.Keys != int64(len(want)) {
		t.Fatalf("rec.Keys = %d, want %d", rec.Keys, len(want))
	}
}

// TestAppendReopen: a mixed op stream replays to the model's final
// membership, in ascending order.
func TestAppendReopen(t *testing.T) {
	dir := t.TempDir()
	l, rec, err := Open(dir, 1<<12, newMemSet(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Keys != 0 || rec.ReplayedOps != 0 {
		t.Fatalf("fresh log recovered %+v", rec)
	}
	model := map[int64]bool{}
	rng := rand.New(rand.NewSource(7))
	var batch []core.BatchOp
	totalOps := 0
	for i := 0; i < 50; i++ {
		batch = batch[:0]
		for j := 0; j < rng.Intn(20)+1; j++ {
			k := int64(rng.Intn(1 << 12))
			del := rng.Intn(3) == 0
			batch = append(batch, core.BatchOp{Key: k, Del: del})
			if del {
				delete(model, k)
			} else {
				model[k] = true
			}
		}
		// The Backend batch shape: sorted, last op per key kept.
		run := combine.SortDedup(batch)
		totalOps += len(run)
		l.ApplyBatch(run)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	b2 := newMemSet(t)
	l2, rec2, err := Open(dir, 1<<12, b2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(b2)
	if len(got) != len(model) {
		t.Fatalf("recovered %d keys, model has %d", len(got), len(model))
	}
	prev := int64(-1)
	for _, k := range got {
		if !model[k] {
			t.Fatalf("recovered key %d not in model", k)
		}
		if k <= prev {
			t.Fatalf("recovery not ascending: %d after %d", k, prev)
		}
		prev = k
	}
	if rec2.ReplayedOps != int64(totalOps) {
		t.Fatalf("ReplayedOps = %d, want %d", rec2.ReplayedOps, totalOps)
	}
	if rec2.TornTail {
		t.Fatal("clean log reported a torn tail")
	}
}

// TestTornTail truncates the log at EVERY byte offset of the final
// record and asserts recovery lands exactly on the preceding records —
// the crash-mid-append contract.
func TestTornTail(t *testing.T) {
	// One record per key: 4 (frame) + 16 (header) + 9 (op) bytes.
	const recBytes = 4 + recordHeaderBytes + 9
	keys := []int64{3, 1, 4, 15, 9}
	build := func(t *testing.T) string {
		dir := t.TempDir()
		l, _, err := Open(dir, 1<<10, newMemSet(t), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			l.Insert(k)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	probe := build(t)
	segs, err := filepath.Glob(filepath.Join(probe, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (err %v), want exactly 1", segs, err)
	}
	st, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	size := st.Size()
	if size != int64(len(keys))*recBytes {
		t.Fatalf("segment %d bytes, want %d", size, len(keys)*recBytes)
	}
	for cut := size - recBytes; cut <= size; cut++ {
		dir := build(t)
		seg := filepath.Join(dir, filepath.Base(segs[0]))
		if err := os.Truncate(seg, cut); err != nil {
			t.Fatal(err)
		}
		b := newMemSet(t)
		l, rec, err := Open(dir, 1<<10, b, Options{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		wantTorn := cut > size-recBytes && cut < size
		if rec.TornTail != wantTorn {
			t.Fatalf("cut %d: TornTail = %v, want %v", cut, rec.TornTail, wantTorn)
		}
		wantN := len(keys)
		if cut < size {
			wantN--
		}
		if got := collect(b); len(got) != wantN {
			t.Fatalf("cut %d: recovered %v, want %d keys", cut, got, wantN)
		}
		// The log must keep a clean stream after the tear: append, close,
		// reopen, and the new op is there with no new tear.
		l.Insert(777)
		if err := l.Close(); err != nil {
			t.Fatalf("cut %d: close after tear: %v", cut, err)
		}
		b2 := newMemSet(t)
		l2, rec2, err := Open(dir, 1<<10, b2, Options{})
		if err != nil {
			t.Fatalf("cut %d: reopen after tear: %v", cut, err)
		}
		if rec2.TornTail {
			t.Fatalf("cut %d: tear did not heal", cut)
		}
		if got := collect(b2); len(got) != wantN+1 || got[len(got)-1] != 777 {
			t.Fatalf("cut %d: post-tear append lost: %v", cut, got)
		}
		l2.Close()
	}
}

// TestSnapshotAndTruncate: a snapshot absorbs the log prefix (segments
// deleted), the tail replays on top of it, and the counters separate
// the two.
func TestSnapshotAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, 1<<12, newMemSet(t), Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 100; k++ {
		l.Insert(k)
	}
	l.Delete(50) // delete inside the snapshot's coverage
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for k := int64(200); k < 210; k++ {
		l.Insert(k)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("snapshot files %v, want 1", snaps)
	}
	b := newMemSet(t)
	l2, rec, err := Open(dir, 1<<12, b, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.SnapshotKeys != 99 {
		t.Fatalf("SnapshotKeys = %d, want 99", rec.SnapshotKeys)
	}
	if rec.ReplayedOps != 10 {
		t.Fatalf("ReplayedOps = %d, want 10", rec.ReplayedOps)
	}
	if rec.Keys != 109 {
		t.Fatalf("Keys = %d, want 109", rec.Keys)
	}
	got := collect(b)
	for _, k := range got {
		if k == 50 {
			t.Fatal("deleted key 50 resurrected")
		}
	}
}

// TestSnapshotOnlyRecovery: recovery works with no log tail at all.
func TestSnapshotOnlyRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, 1<<10, newMemSet(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{5, 6, 7} {
		l.Insert(k)
	}
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	b := newMemSet(t)
	_, rec, err := Open(dir, 1<<10, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantKeys(t, rec, b, 5, 6, 7)
	if rec.ReplayedOps != 0 || rec.SnapshotKeys != 3 {
		t.Fatalf("rec = %+v, want pure snapshot recovery", rec)
	}
}

// TestSegmentRotation: a tiny segment budget rotates mid-stream and the
// multi-segment log replays completely.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, 1<<12, newMemSet(t), Options{SegmentBytes: 128, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for k := int64(0); k < 60; k++ {
		l.Insert(k)
		want = append(want, k)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("%d segments, want several (rotation)", len(segs))
	}
	b := newMemSet(t)
	l2, rec, err := Open(dir, 1<<12, b, Options{SegmentBytes: 128, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	wantKeys(t, rec, b, want...)
}

// TestShardedLog: keys route to stripes and recovery is globally
// ascending across them.
func TestShardedLog(t *testing.T) {
	dir := t.TempDir()
	const u = 1 << 8
	l, _, err := Open(dir, u, newMemSet(t), Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	keys := []int64{250, 3, 130, 64, 65, 199, 0}
	l.ApplyBatch([]core.BatchOp{
		{Key: 250}, {Key: 3}, {Key: 130}, {Key: 64}, {Key: 65}, {Key: 199}, {Key: 0},
	})
	_ = keys
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	b := newMemSet(t)
	l2, rec, err := Open(dir, u, b, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	wantKeys(t, rec, b, 0, 3, 64, 65, 130, 199, 250)
}

// TestMetaMismatch: reopening with different geometry fails loudly.
func TestMetaMismatch(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, 1<<10, newMemSet(t), Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, _, err := Open(dir, 1<<11, newMemSet(t), Options{Shards: 2}); err == nil {
		t.Fatal("universe change accepted")
	}
	if _, _, err := Open(dir, 1<<10, newMemSet(t), Options{Shards: 4}); err == nil {
		t.Fatal("shard-count change accepted")
	}
	if l, _, err := Open(dir, 1<<10, newMemSet(t), Options{Shards: 2}); err != nil {
		t.Fatalf("matching reopen: %v", err)
	} else {
		l.Close()
	}
}

// TestSyncEveryFlushes: with SyncEvery(1) every append is on disk
// before the call returns.
func TestSyncEveryFlushes(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, 1<<10, newMemSet(t), Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Insert(9)
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	st, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Fatal("append not flushed under SyncEvery(1)")
	}
	if got := l.Registry().Counter("wal.fsyncs").Load(); got < 1 {
		t.Fatalf("fsyncs = %d, want ≥ 1", got)
	}
}

// TestSyncInterval: an interval-only policy fsyncs dirty shards on the
// ticker, not per append.
func TestSyncInterval(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, 1<<10, newMemSet(t), Options{SyncEvery: -1, SyncInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Insert(4)
	deadline := time.Now().Add(2 * time.Second)
	for l.Registry().Counter("wal.fsyncs").Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval fsync never fired")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAutoSnapshot: crossing SnapshotBytes triggers a background
// snapshot without an explicit call.
func TestAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, 1<<12, newMemSet(t), Options{SnapshotBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for k := int64(0); k < 64; k++ {
		l.Insert(k)
	}
	deadline := time.Now().Add(2 * time.Second)
	for l.Registry().Counter("wal.snapshots").Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("auto snapshot never fired")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRecoveryCountersExposed: the wal.recovery.* counters land in the
// registry snapshot (the e2e crash smoke asserts on these).
func TestRecoveryCountersExposed(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, 1<<10, newMemSet(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Insert(1)
	l.Insert(2)
	l.Close()
	l2, _, err := Open(dir, 1<<10, newMemSet(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	snap := l2.Registry().Snapshot()
	if snap.Counters["wal.recovery.replayed_ops"] != 2 {
		t.Fatalf("wal.recovery.replayed_ops = %d, want 2", snap.Counters["wal.recovery.replayed_ops"])
	}
}

// TestSnapshotUnderConcurrentUpdates: fuzzy checkpoints taken while
// writers update the backend recover exactly the live set. Each key has
// one writer, so its log order is its apply order.
func TestSnapshotUnderConcurrentUpdates(t *testing.T) {
	dir := t.TempDir()
	const u, writers, perW = 1 << 10, 4, 2000
	opt := Options{Shards: 2, SyncEvery: -1, SnapshotBytes: -1}
	live := newMemSet(t)
	l, _, err := Open(dir, u, live, opt)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := int64(0); w < writers; w++ {
		wg.Add(1)
		go func(w int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(w))
			for i := 0; i < perW; i++ {
				k := w + writers*rng.Int63n(u/writers)
				if rng.Intn(2) == 0 {
					l.Insert(k)
				} else {
					l.Delete(k)
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	snapped := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				snapped <- n
				return
			default:
			}
			if err := l.Snapshot(); err != nil {
				t.Error(err)
			}
			n++
		}
	}()
	wg.Wait()
	close(stop)
	if n := <-snapped; n == 0 {
		t.Fatal("no snapshot ran during the updates")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	b := newMemSet(t)
	l2, rec, err := Open(dir, u, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	wantKeys(t, rec, b, collect(live)...)
}
