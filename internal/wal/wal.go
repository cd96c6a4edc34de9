// Package wal is the trie's durability spine: a per-shard write-ahead
// op log plus asynchronous fuzzy checkpoints, built so that one
// batcher sweep is one group-committed log write and recovery is
// snapshot + bounded log-tail replay.
//
// # Layout
//
// A log directory holds one meta file (universe and stripe geometry,
// validated on reopen), per-shard segment files wal-<shard>-<firstLSN>.seg,
// and per-shard snapshot files snap-<shard>-<lsn>.snap. Keys are
// range-partitioned across shards (stripes) exactly like the trie's own
// sharding — key→shard is a shift — so each shard's log is an
// independent totally-ordered stream and recovery never merges across
// shards.
//
// # Records
//
// A segment is a sequence of length-prefixed frames (the shared
// internal/wire codec — the same framing the network protocol uses).
// One frame is one record:
//
//	crc32c(4) | lsn(8) | count(4) | count × op record (kind(1) | key(8))
//
// The CRC (Castagnoli) covers everything after itself. LSNs are
// per-shard, contiguous and strictly increasing; a whole ApplyBatch
// shard-run is one record, which is what makes the batcher's sweep a
// group commit: one record append + at most one fsync per sweep,
// whatever the batch size.
//
// # Consistency
//
// The log owns the write-ahead order: Insert, Delete and ApplyBatch
// append the record, then apply the op to the live Backend, which is the
// only copy of the set. A snapshot is a fuzzy checkpoint of it: wait
// until every record ≤ the snapshot LSN is applied, scan the stripe with
// Predecessor while appends continue, fsync, write; recovery replays
// the records above that LSN over it (DESIGN.md §Durability), tolerating
// a torn final record (see Open).
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Tuning defaults.
const (
	// DefaultSegmentBytes is the segment rotation threshold.
	DefaultSegmentBytes = 64 << 20
	// DefaultSnapshotBytes is the per-shard log growth that triggers an
	// asynchronous snapshot.
	DefaultSnapshotBytes = 64 << 20
	// recordHeaderBytes is crc(4) + lsn(8) + count(4).
	recordHeaderBytes = 4 + 8 + 4
	// maxRecordOps bounds ops per record; a larger batch run is split
	// into consecutive records. Bounds the replay read buffer.
	maxRecordOps = 8192
	// maxRecordFrame is the replay read limit for one record payload.
	maxRecordFrame = recordHeaderBytes + maxRecordOps*wire.OpBytes
)

// castagnoli is the CRC32C table (the polynomial with hardware support
// on both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options tunes Open. The zero value of every field selects its
// default: 1 shard, fsync on every append, DefaultSegmentBytes
// rotation, DefaultSnapshotBytes auto-snapshot.
type Options struct {
	// Shards is the stripe count (power of two). Each stripe owns a
	// contiguous key range, its own LSN sequence and its own files; more
	// stripes mean finer-grained append locks and parallel recovery at
	// the cost of more open files and fsyncs.
	Shards int
	// SyncEvery fsyncs after every n appended ops (counted per shard).
	// 1 — the default when SyncInterval is also zero — makes every
	// acknowledged op durable; 0 disables count-based fsync (the OS or
	// SyncInterval decides).
	SyncEvery int
	// SyncInterval fsyncs dirty shards on a background cadence,
	// bounding the un-fsynced window by time instead of op count.
	// Composes with SyncEvery; 0 disables the ticker.
	SyncInterval time.Duration
	// SegmentBytes rotates a shard's segment once it exceeds this size.
	SegmentBytes int64
	// SnapshotBytes triggers an asynchronous shard snapshot once that
	// many log bytes accumulate past the previous snapshot. 0 selects
	// the default; negative disables auto-snapshots (Snapshot still
	// works).
	SnapshotBytes int64
}

// withDefaults resolves zero fields. SyncEvery defaults to 1 only when
// no interval was requested: an explicit interval-only policy means
// "bound the window by time, not per-op".
func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.SyncEvery == 0 && o.SyncInterval <= 0 {
		o.SyncEvery = 1
	}
	if o.SyncEvery < 0 {
		o.SyncEvery = 0
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.SnapshotBytes == 0 {
		o.SnapshotBytes = DefaultSnapshotBytes
	}
	return o
}

// Backend is the live set a Log makes durable; Open loads recovery into
// it, so it must start empty. ApplyBatch takes keys sorted strictly
// ascending, one op per key, and may rewrite them in place. Snapshots
// scan with Predecessor, which must be linearizable per key.
type Backend interface {
	Insert(x int64)
	Delete(x int64)
	ApplyBatch(ops []core.BatchOp)
	Search(x int64) bool
	Predecessor(y int64) int64
	Len() int64
}

// Log is an open write-ahead log in front of a Backend. Updates are
// safe for concurrent use; each key's shard serializes its appends
// under one mutex, which is exactly the order its LSNs record.
type Log struct {
	dir    string
	dirf   *os.File // held open for directory-entry fsyncs
	u      int64
	b      Backend
	opt    Options
	shift  uint // key → shard
	shards []*shardLog

	reg        *obs.Registry
	cRecords   *obs.Counter
	cOps       *obs.Counter
	cBytes     *obs.Counter
	cAppendErr *obs.Counter
	cFsyncs    *obs.Counter
	hFsyncNS   *obs.Histogram
	cRotations *obs.Counter
	cSnaps     *obs.Counter
	cSnapKeys  *obs.Counter
	cSegsGone  *obs.Counter
	hSnapCapNS *obs.Histogram
	hSnapWrNS  *obs.Histogram
	hSnapTrNS  *obs.Histogram

	err    atomic.Pointer[error] // sticky first append-path failure
	snapCh chan struct{}
	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// segmentInfo is one closed (fully written, fsynced) segment.
type segmentInfo struct {
	path     string
	firstLSN uint64
	lastLSN  uint64
}

// shardLog is one stripe's stream: current segment, LSN clock, applies.
type shardLog struct {
	id int

	// mu orders appends; everything below it is the append state.
	mu         sync.Mutex
	f          *os.File
	wbuf       []byte // pending bytes not yet written to f
	size       int64  // bytes written to the current segment file
	firstLSN   uint64 // first LSN of the current segment
	lsn        uint64 // last assigned LSN
	unsynced   int    // ops appended since the last fsync
	dirty      bool   // bytes appended (or buffered) since the last fsync
	sinceSnap  int64  // log bytes appended since the last snapshot capture
	closedSegs []segmentInfo
	enc        []byte // record scratch buffer
	slot       int    // the inflight slot appends increment (a snapshot flips it)

	// inflight counts appends whose backend apply has not finished.
	inflight [2]atomic.Int64

	// flushSeq counts completed wbuf→file writes; a flush's bytes are in
	// the file before its bump is visible, so a group-commit fsync that
	// loads flushSeq just before the syscall knows exactly which flushes
	// it covers.
	flushSeq atomic.Uint64

	// fsyncMu serializes group-commit fsyncs, which run OUTSIDE mu so
	// appends continue. Everything below it is guarded by it. A syncer
	// that queues behind an in-flight fsync re-checks on wake: if that
	// fsync's coverage (syncedSeq) reached its own flush, or the segment
	// rotated (whose sync covered it), it skips — queued waiters merge
	// into one fsync instead of serializing. Rotation/Close take fsyncMu
	// around closing the file; the only lock order anywhere is
	// mu → fsyncMu.
	fsyncMu   sync.Mutex
	curF      *os.File // the open segment file; nil once closed
	syncedSeq uint64   // highest flushSeq covered by a completed fsync

	// snapMu single-flights snapshots for this shard, so a slot flip
	// always hands appends a drained slot (held across the drain wait,
	// scan and write, which run OUTSIDE mu so appends continue).
	snapMu  sync.Mutex
	snapLSN uint64 // LSN covered by the newest durable snapshot
}

// fsyncFile is swapped out by tests that count or fail fsyncs.
var fsyncFile = func(f *os.File) error { return f.Sync() }

// testHookApply, when non-nil, runs between an update's append and apply.
var testHookApply func()

// SetTestHookApply sets that hook (nil clears it) with no update in flight.
func SetTestHookApply(f func()) { testHookApply = f }

// newRegistry wires the wal.* metric handles.
func (l *Log) newRegistry() {
	r := obs.NewRegistry()
	l.reg = r
	l.cRecords = r.Counter("wal.append.records")
	l.cOps = r.Counter("wal.append.ops")
	l.cBytes = r.Counter("wal.append.bytes")
	l.cAppendErr = r.Counter("wal.append.errors")
	l.cFsyncs = r.Counter("wal.fsyncs")
	l.hFsyncNS = r.Histogram("wal.fsync_ns")
	l.cRotations = r.Counter("wal.segment.rotations")
	l.cSnaps = r.Counter("wal.snapshots")
	l.cSnapKeys = r.Counter("wal.snapshot.keys")
	l.cSegsGone = r.Counter("wal.segments.removed")
	l.hSnapCapNS = r.Histogram("wal.snapshot.capture_ns")
	l.hSnapWrNS = r.Histogram("wal.snapshot.write_ns")
	l.hSnapTrNS = r.Histogram("wal.snapshot.truncate_ns")
	r.Gauge("wal.shards", func() int64 { return int64(len(l.shards)) })
}

// Registry exposes the wal.* metrics for merging into a facade
// snapshot.
func (l *Log) Registry() *obs.Registry { return l.reg }

// Err returns the sticky first append-path failure, if any. The log
// never blocks or panics the trie on an I/O error: it records the
// error, counts wal.append.errors, and drops later appends (their
// updates still apply, snapshots refuse to run) — the durability
// contract is broken from that instant and Close reports it.
func (l *Log) Err() error {
	if p := l.err.Load(); p != nil {
		return *p
	}
	return nil
}

// setErr records the first failure.
func (l *Log) setErr(err error) {
	if err == nil {
		return
	}
	l.cAppendErr.Inc(0)
	e := err
	l.err.CompareAndSwap(nil, &e)
}

// shardOf maps a key to its stripe.
func (l *Log) shardOf(key int64) int { return int(uint64(key) >> l.shift) }

// Insert logs and applies one insert.
func (l *Log) Insert(x int64) {
	defer l.appendOne(x, false).Add(-1)
	l.b.Insert(x)
}

// Delete logs and applies one delete.
func (l *Log) Delete(x int64) {
	defer l.appendOne(x, true).Add(-1)
	l.b.Delete(x)
}

func (l *Log) appendOne(x int64, del bool) *atomic.Int64 {
	op := [1]core.BatchOp{{Key: x, Del: del}}
	return l.shards[l.shardOf(x)].append(l, op[:])
}

// ApplyBatch logs and applies a batch in the Backend's ApplyBatch shape.
// Consecutive ops of the same stripe form one record (one group
// commit), appended before that run is applied: a sorted batch lands in
// at most one record per stripe touched.
func (l *Log) ApplyBatch(ops []core.BatchOp) {
	for i := 0; i < len(ops); {
		s := l.shardOf(ops[i].Key)
		j := i + 1
		for j < len(ops) && l.shardOf(ops[j].Key) == s {
			j++
		}
		done := l.shards[s].append(l, ops[i:j])
		l.b.ApplyBatch(ops[i:j])
		done.Add(-1)
		i = j
	}
}

// append logs one same-stripe run and applies the sync policy. It
// returns the in-flight counter the caller decrements once it has
// applied the run. After a sticky error the run is not logged, but
// still counts as in flight: the caller applies it regardless.
func (s *shardLog) append(l *Log, run []core.BatchOp) *atomic.Int64 {
	s.mu.Lock()
	done := &s.inflight[s.slot]
	done.Add(1)
	if h := testHookApply; h != nil {
		defer h()
	}
	if l.err.Load() != nil {
		s.mu.Unlock()
		return done
	}
	for len(run) > 0 {
		n := len(run)
		if n > maxRecordOps {
			n = maxRecordOps
		}
		s.appendRecord(l, run[:n])
		run = run[n:]
	}
	if s.size+int64(len(s.wbuf)) >= l.opt.SegmentBytes {
		s.rotateLocked(l) // includes a full sync: unsynced is 0 after
	}
	wantSnap := l.opt.SnapshotBytes > 0 && s.sinceSnap >= l.opt.SnapshotBytes
	if l.opt.SyncEvery > 0 && s.unsynced >= l.opt.SyncEvery {
		s.groupSyncUnlock(l) // releases mu
	} else {
		s.mu.Unlock()
	}
	if wantSnap {
		select {
		case l.snapCh <- struct{}{}:
		default: // a snapshot pass is already pending
		}
	}
	return done
}

// appendRecord encodes one record and buffers its bytes. Caller holds
// mu.
func (s *shardLog) appendRecord(l *Log, run []core.BatchOp) {
	s.lsn++
	s.enc = s.enc[:0]
	s.enc = wire.AppendFrameHeader(s.enc, recordHeaderBytes+len(run)*wire.OpBytes)
	crcAt := len(s.enc)
	s.enc = append(s.enc, 0, 0, 0, 0)
	s.enc = binary.BigEndian.AppendUint64(s.enc, s.lsn)
	s.enc = binary.BigEndian.AppendUint32(s.enc, uint32(len(run)))
	for _, op := range run {
		s.enc = wire.AppendOp(s.enc, op.Del, op.Key)
	}
	binary.BigEndian.PutUint32(s.enc[crcAt:], crc32.Checksum(s.enc[crcAt+4:], castagnoli))
	s.wbuf = append(s.wbuf, s.enc...)
	s.dirty = true
	s.unsynced += len(run)
	s.sinceSnap += int64(len(s.enc))
	hint := int64(s.id)
	l.cRecords.Inc(hint)
	l.cOps.Add(hint, int64(len(run)))
	l.cBytes.Add(hint, int64(len(s.enc)))
}

// flushLocked pushes buffered bytes to the segment file.
func (s *shardLog) flushLocked(l *Log) {
	if len(s.wbuf) == 0 {
		return
	}
	n, err := s.f.Write(s.wbuf)
	s.size += int64(n)
	s.wbuf = s.wbuf[:0]
	s.flushSeq.Add(1)
	if err != nil {
		l.setErr(fmt.Errorf("wal: shard %d append: %w", s.id, err))
	}
}

// syncLocked flushes and fsyncs the current segment without releasing
// mu. The rotation, ticker, manual-Sync and shutdown path: rare, or
// needing the shard quiesced (rotation closes the file right after).
func (s *shardLog) syncLocked(l *Log) {
	s.flushLocked(l)
	if !s.dirty {
		return
	}
	start := time.Now()
	if err := fsyncFile(s.f); err != nil {
		l.setErr(fmt.Errorf("wal: shard %d fsync: %w", s.id, err))
		return
	}
	l.hFsyncNS.Record(int64(time.Since(start)))
	l.cFsyncs.Inc(int64(s.id))
	s.unsynced = 0
	s.dirty = false
}

// groupSyncUnlock is the count-policy fsync — the one on the append hot
// path. It flushes and resets the sync accounting under mu, RELEASES
// mu, and only then queues on fsyncMu for the fsync: concurrent
// appenders fill the next group while the disk works, which is what
// makes SyncEvery(n) a group commit instead of an every-n-ops stall of
// the whole shard. On waking with fsyncMu held it may find its flush
// already durable — a later fsync covered it (syncedSeq), or the
// segment rotated (rotation syncs before closing) — and skip, so a
// burst of triggers costs one fsync, not one each. The triggering
// caller still returns only once its bytes are durable, so the every-n
// bound on acknowledged-but-lost ops is unchanged.
// Caller holds mu; on return mu is released.
func (s *shardLog) groupSyncUnlock(l *Log) {
	s.flushLocked(l)
	if !s.dirty {
		s.mu.Unlock()
		return
	}
	f := s.f
	seq := s.flushSeq.Load()
	s.dirty = false
	s.unsynced = 0
	s.mu.Unlock()

	s.fsyncMu.Lock()
	if s.curF != f || s.syncedSeq >= seq {
		s.fsyncMu.Unlock()
		return
	}
	// Every flush whose bump is visible here wrote its bytes before the
	// syscall below, so this fsync covers through `covered`.
	covered := s.flushSeq.Load()
	start := time.Now()
	err := fsyncFile(f)
	if err == nil && covered > s.syncedSeq {
		s.syncedSeq = covered
	}
	s.fsyncMu.Unlock()
	if err != nil {
		l.setErr(fmt.Errorf("wal: shard %d fsync: %w", s.id, err))
		return
	}
	l.hFsyncNS.Record(int64(time.Since(start)))
	l.cFsyncs.Inc(int64(s.id))
}

// rotateLocked completes the current segment (flush + fsync + close)
// and opens a fresh one whose first LSN continues the stream.
func (s *shardLog) rotateLocked(l *Log) {
	s.syncLocked(l)
	path := s.f.Name()
	s.fsyncMu.Lock() // wait out any in-flight group-commit fsync
	err := s.f.Close()
	s.curF = nil
	s.syncedSeq = s.flushSeq.Load() // syncLocked above covered everything
	s.fsyncMu.Unlock()
	if err != nil {
		l.setErr(fmt.Errorf("wal: shard %d close segment: %w", s.id, err))
	}
	s.closedSegs = append(s.closedSegs, segmentInfo{path: path, firstLSN: s.firstLSN, lastLSN: s.lsn})
	if err := s.openSegmentLocked(l, s.lsn+1); err != nil {
		l.setErr(err)
	}
	l.cRotations.Inc(int64(s.id))
}

// openSegmentLocked creates the segment file starting at firstLSN and
// fsyncs the directory entry.
func (s *shardLog) openSegmentLocked(l *Log, firstLSN uint64) error {
	path := segmentPath(l.dir, s.id, firstLSN)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: shard %d new segment: %w", s.id, err)
	}
	if err := fsyncFile(l.dirf); err != nil {
		f.Close()
		return fmt.Errorf("wal: fsync dir: %w", err)
	}
	s.f = f
	s.fsyncMu.Lock()
	s.curF = f
	s.fsyncMu.Unlock()
	s.size = 0
	s.firstLSN = firstLSN
	return nil
}

// run is the background loop: interval fsyncs and async snapshots.
func (l *Log) run() {
	defer l.wg.Done()
	var tick *time.Ticker
	var tickC <-chan time.Time
	if l.opt.SyncInterval > 0 {
		tick = time.NewTicker(l.opt.SyncInterval)
		tickC = tick.C
		defer tick.Stop()
	}
	for {
		select {
		case <-l.stop:
			return
		case <-tickC:
			for _, s := range l.shards {
				s.mu.Lock()
				if s.dirty {
					s.syncLocked(l)
				}
				s.mu.Unlock()
			}
		case <-l.snapCh:
			for _, s := range l.shards {
				s.mu.Lock()
				due := l.opt.SnapshotBytes > 0 && s.sinceSnap >= l.opt.SnapshotBytes
				s.mu.Unlock()
				if due {
					if err := s.snapshot(l); err != nil {
						l.setErr(err)
					}
				}
			}
		}
	}
}

// Snapshot synchronously snapshots every shard and truncates the
// segments each snapshot covers.
func (l *Log) Snapshot() error {
	var first error
	for _, s := range l.shards {
		if err := s.snapshot(l); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close stops the background loop, fsyncs what is buffered and closes
// every file. It returns the sticky append error if one occurred.
func (l *Log) Close() error {
	if !l.closed.CompareAndSwap(false, true) {
		return l.Err()
	}
	close(l.stop)
	l.wg.Wait()
	for _, s := range l.shards {
		s.mu.Lock()
		s.syncLocked(l)
		s.fsyncMu.Lock() // wait out any in-flight group-commit fsync
		err := s.f.Close()
		s.curF = nil
		s.syncedSeq = s.flushSeq.Load()
		s.fsyncMu.Unlock()
		if err != nil {
			l.setErr(fmt.Errorf("wal: shard %d close: %w", s.id, err))
		}
		s.mu.Unlock()
	}
	err := l.Err()
	if cerr := l.dirf.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// shardShift computes the key→shard shift for a power-of-two universe
// and stripe count.
func shardShift(u int64, shards int) uint {
	width := u / int64(shards)
	return uint(bits.TrailingZeros64(uint64(width)))
}
