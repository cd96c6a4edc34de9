package resize

import (
	"sort"

	"repro/internal/core"
	"repro/internal/sharded"
)

// bulkLoad inserts a run of unique keys through the batch entrypoint:
// one announcement pass per shard-run instead of one per key. The scan
// emits shards in ascending order but walks sparse shards downward, so
// the run is sorted here (ApplyBatch requires strictly ascending keys).
func bulkLoad(t *sharded.Trie, keys []int64) {
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	ops := make([]core.BatchOp, len(keys))
	for i, k := range keys {
		ops[i] = core.BatchOp{Key: k}
	}
	t.ApplyBatch(ops)
}

// scan enumerates each non-empty shard's keys for the migration copy.
// It runs against the live table, so it must be exact only for keys no
// concurrent update touches (the dirty journal corrects the rest).
// Either strategy below is correct for the same reason: a key no update
// touches is present throughout and an exact per-shard probe (or a
// linearizable Predecessor step) cannot miss it, while every touched
// key is journaled — so the choice is purely about cost:
//
//   - dense shards take O(width) wait-free O(1) Search probes, which
//     beat a predecessor walk precisely when the walk would run hot: a
//     per-key core.Predecessor announces in P-ALL and pays O(ċ² + log u)
//     under the very contention that triggered the resize;
//   - sparse shards (count below width/8) take the walk, whose
//     O(count · log width) beats probing a near-empty range.
//
// Skipping count == 0 shards is safe for the same reason Predecessor's
// fallback skips them: the count over-approximates, so zero proves the
// shard empty at the read.
func scan(t *sharded.Trie, emit func(int64)) {
	width := t.U() / int64(t.Shards())
	for i := 0; i < t.Shards(); i++ {
		n := t.Occupancy(i)
		if n == 0 {
			continue
		}
		sh := t.Shard(i)
		base := int64(i) * width
		if n >= width/8 {
			for lx := int64(0); lx < width; lx++ {
				if sh.Search(lx) {
					emit(base | lx)
				}
			}
			continue
		}
		x := width - 1
		if !sh.Search(x) {
			x = sh.Predecessor(x)
		}
		for x >= 0 {
			emit(base | x)
			if x == 0 {
				break
			}
			x = sh.Predecessor(x)
		}
	}
}

// announcedPeers returns the busiest shard's announced-update count —
// the announcement-list half of the resize contention signal.
func announcedPeers(t *sharded.Trie) int64 {
	var peers int64
	for i := 0; i < t.Shards(); i++ {
		if n := int64(t.Shard(i).AnnouncedUpdates()); n > peers {
			peers = n
		}
	}
	return peers
}

// Insert adds x to the set through the current epoch. In the journal
// phase the key is journaled BEFORE it is applied — the ordering the
// scan-race argument rests on.
//
// Precondition: 0 ≤ x < U().
func (s *Set) Insert(x int64) {
	s.tick(x)
	e, gi := s.enter(x)
	if e.phase == phaseJournal {
		e.dirty[gi].Set(x & (e.width - 1)) // one atomic OR
	}
	e.cur.Insert(x)
	e.gates[gi].Add(-1)
}

// Delete removes x from the set through the current epoch, with
// Insert's journal-before-apply ordering.
//
// Precondition: 0 ≤ x < U().
func (s *Set) Delete(x int64) {
	s.tick(x)
	e, gi := s.enter(x)
	if e.phase == phaseJournal {
		e.dirty[gi].Set(x & (e.width - 1)) // one atomic OR
	}
	e.cur.Delete(x)
	e.gates[gi].Add(-1)
}

// Predecessor returns the largest key < y, or −1, from the
// authoritative table (the retiring one during a migration — the under-
// construction table is never consulted, so mid-replay states are
// invisible).
//
// Precondition: 0 ≤ y < U().
func (s *Set) Predecessor(y int64) int64 { return s.Table().Predecessor(y) }

// Successor returns the smallest key > y, or −1, mirroring Predecessor.
//
// Precondition: 0 ≤ y < U().
func (s *Set) Successor(y int64) int64 { return s.Table().Successor(y) }

// Max returns the largest key in the set, or −1.
func (s *Set) Max() int64 { return s.Table().Max() }

// ApplyBatch applies a pre-batched op sequence — global keys, sorted
// strictly ascending, one op per key — through the current epoch. The
// whole batch is admitted under one gate (the drain protocol waits on
// every gate, so one suffices to pin the epoch) and journals every key
// before the table rebase-and-apply, preserving journal-before-apply
// per key.
func (s *Set) ApplyBatch(ops []core.BatchOp) {
	if len(ops) == 0 {
		return
	}
	s.tick(ops[0].Key)
	e, gi := s.enter(ops[0].Key)
	if e.phase == phaseJournal {
		for i := range ops {
			e.dirty[e.shardOf(ops[i].Key)].Set(ops[i].Key & (e.width - 1))
		}
	}
	e.cur.ApplyBatch(ops)
	e.gates[gi].Add(-1)
}
