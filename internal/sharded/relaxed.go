// Sharded façade over the wait-free relaxed trie (§4), satisfying the same
// §4.1 contract as the unsharded one: a non-abstaining (k, true) answer
// promises only that k was present at some point during the call and that
// k is exact when no update on a key in (k, y) ran concurrently; ⊥ is
// returned only under such interference. The cross-shard stitch therefore
// needs no version validation — but note the answer distribution is weaker
// than the unsharded implementation's: the scan can return a key from a
// lower shard while a concurrent insert lands unseen in an already-skipped
// shard above it, a definite-but-inexact answer the contract permits
// (there was interference in (k, y)) where the unsharded trie would have
// answered exactly or abstained. At quiescence the occupancy counters are
// exact and every answer is exact.
package sharded

import (
	"sync/atomic"

	"repro/internal/relaxed"
)

// rshard is one relaxed partition: an independent relaxed trie plus its
// occupancy over-approximation, padded like shard.
type rshard struct {
	trie  *relaxed.Trie
	count atomic.Int64 // cardinality over-approximation (≥ |S ∩ shard|)
	_     [112]byte
}

// Relaxed is the sharded wait-free relaxed binary trie. Create with
// NewRelaxed; the zero value is not usable.
type Relaxed struct {
	u         int64
	k         int
	width     int64
	shardBits uint
	shards    []rshard
}

// NewRelaxed returns an empty sharded relaxed trie over {0,…,u−1} split
// into k contiguous shards, under the same bounds as New. There is no
// combining variant: the relaxed trie has no announcement lists for a
// batch to amortize, and a combiner handoff would give up the §4 per-op
// wait-freedom.
func NewRelaxed(u int64, k int) (*Relaxed, error) {
	pu, width, shardBits, err := geometry(u, k)
	if err != nil {
		return nil, err
	}
	t := &Relaxed{
		u:         pu,
		k:         k,
		width:     width,
		shardBits: shardBits,
		shards:    make([]rshard, k),
	}
	for i := range t.shards {
		r, err := relaxed.New(t.width)
		if err != nil {
			return nil, err
		}
		t.shards[i].trie = r
	}
	return t, nil
}

// U returns the (padded) universe size.
func (t *Relaxed) U() int64 { return t.u }

// Shards returns the shard count.
func (t *Relaxed) Shards() int { return t.k }

// Shard exposes shard i's relaxed trie (facade configuration, tests).
func (t *Relaxed) Shard(i int) *relaxed.Trie { return t.shards[i].trie }

// Occupancy returns shard i's cardinality over-approximation; exact at
// quiescence.
func (t *Relaxed) Occupancy(i int) int64 { return t.shards[i].count.Load() }

// Len returns the summed occupancy summary — an O(k) cardinality estimate,
// exact at quiescence.
func (t *Relaxed) Len() int64 {
	var n int64
	for i := range t.shards {
		n += t.shards[i].count.Load()
	}
	return n
}

func (t *Relaxed) home(x int64) (*rshard, int64) {
	return &t.shards[x>>t.shardBits], x & (t.width - 1)
}

// Search reports whether x is in the set. O(1) worst-case.
//
// Precondition: 0 ≤ x < U().
func (t *Relaxed) Search(x int64) bool {
	sh, lx := t.home(x)
	return sh.trie.Search(lx)
}

// Insert adds x to the set. Wait-free, O(log(u/k)) worst-case steps.
// The count increment precedes the trie operation and is rolled back on a
// lost race, so count never under-approximates the shard's cardinality.
//
// Precondition: 0 ≤ x < U().
func (t *Relaxed) Insert(x int64) {
	sh, lx := t.home(x)
	sh.count.Add(1)
	if !sh.trie.Add(lx) {
		sh.count.Add(-1)
	}
}

// Delete removes x from the set. Wait-free, O(log(u/k)) worst-case steps.
// The count decrement follows a winning removal.
//
// Precondition: 0 ≤ x < U().
func (t *Relaxed) Delete(x int64) {
	sh, lx := t.home(x)
	if sh.trie.Remove(lx) {
		sh.count.Add(-1)
	}
}

// Predecessor returns the largest key smaller than y under the relaxed
// specification (§4.1): (k, true) for a key present during the call,
// (−1, true) when no key below y was visible, (0, false) for ⊥ when a
// concurrent update interfered. The owning shard is queried first; lower
// shards are scanned for their max, skipping shards whose occupancy
// over-approximation reads zero. Wait-free: O(log(u/k) + k) worst-case
// steps.
//
// Precondition: 0 ≤ y < U().
func (t *Relaxed) Predecessor(y int64) (int64, bool) {
	j := int(y >> t.shardBits)
	ly := y & (t.width - 1)
	if ly > 0 {
		p, ok := t.shards[j].trie.Predecessor(ly)
		if !ok {
			return 0, false
		}
		if p >= 0 {
			return int64(j)<<t.shardBits | p, true
		}
	}
	for i := j - 1; i >= 0; i-- {
		sh := &t.shards[i]
		if sh.count.Load() == 0 {
			continue
		}
		if sh.trie.Search(t.width - 1) {
			return int64(i)<<t.shardBits | (t.width - 1), true
		}
		p, ok := sh.trie.Predecessor(t.width - 1)
		if !ok {
			return 0, false
		}
		if p >= 0 {
			return int64(i)<<t.shardBits | p, true
		}
	}
	return -1, true
}

// Successor returns the smallest key greater than y with the mirrored
// relaxed semantics of Predecessor. Wait-free: O(log(u/k) + k) worst-case
// steps.
//
// Precondition: 0 ≤ y < U().
func (t *Relaxed) Successor(y int64) (int64, bool) {
	j := int(y >> t.shardBits)
	ly := y & (t.width - 1)
	if ly < t.width-1 {
		s, ok := t.shards[j].trie.Successor(ly)
		if !ok {
			return 0, false
		}
		if s >= 0 {
			return int64(j)<<t.shardBits | s, true
		}
	}
	for i := j + 1; i < t.k; i++ {
		sh := &t.shards[i]
		if sh.count.Load() == 0 {
			continue
		}
		if sh.trie.Search(0) {
			return int64(i) << t.shardBits, true
		}
		s, ok := sh.trie.Successor(0)
		if !ok {
			return 0, false
		}
		if s >= 0 {
			return int64(i)<<t.shardBits | s, true
		}
	}
	return -1, true
}
