package lockfreetrie

import (
	"fmt"

	"repro/internal/relaxed"
)

// Relaxed is the paper's §4 wait-free relaxed binary trie: updates and
// membership are strongly linearizable and wait-free (O(log u) worst-case
// steps), but Predecessor may abstain while concurrent updates interfere.
// It is the right structure when bounded per-operation work matters more
// than always-answering queries (e.g. real-time producers with a
// best-effort scanner). The full Trie builds on it.
//
// A Relaxed is exactly one §4 trie: no shards, no combining, no resize
// layer, no durability and no observability. Each of those would either
// weaken the §4.1 answer distribution (a cross-shard scan can return a
// definite-but-inexact key where one trie answers exactly or abstains)
// or give up the per-operation wait-freedom that is the reason to pick
// it over Trie.
type Relaxed struct {
	trie *relaxed.Trie
}

// NewRelaxed returns an empty relaxed trie over {0,…,universe−1}, under
// the same bounds as New: universe must be at least 2 and at most
// MaxUniverse, and is padded to the next power of two. It takes no
// options; see Relaxed for why.
func NewRelaxed(universe int64) (*Relaxed, error) {
	if err := checkUniverse(universe); err != nil {
		return nil, err
	}
	t, err := relaxed.New(universe)
	if err != nil {
		return nil, fmt.Errorf("lockfreetrie: %w", err)
	}
	return &Relaxed{trie: t}, nil
}

// Universe returns the padded universe size.
func (t *Relaxed) Universe() int64 { return t.trie.U() }

// Len returns the number of keys currently in the set, under the same
// weak-consistency contract as Trie.Len: exact at quiescence, off by at
// most the number of in-flight updates under concurrency. O(1): one
// counter read.
func (t *Relaxed) Len() int64 { return t.trie.Len() }

func (t *Relaxed) check(x int64) error {
	if x < 0 || x >= t.trie.U() {
		return &KeyRangeError{Key: x, Universe: t.trie.U()}
	}
	return nil
}

// Contains reports whether x is in the set. O(1) worst-case steps.
func (t *Relaxed) Contains(x int64) (bool, error) {
	if err := t.check(x); err != nil {
		return false, err
	}
	return t.trie.Search(x), nil
}

// Insert adds x to the set. Wait-free, O(log u) worst-case steps.
func (t *Relaxed) Insert(x int64) error {
	if err := t.check(x); err != nil {
		return err
	}
	t.trie.Insert(x)
	return nil
}

// Delete removes x from the set. Wait-free, O(log u) worst-case steps.
func (t *Relaxed) Delete(x int64) error {
	if err := t.check(x); err != nil {
		return err
	}
	t.trie.Delete(x)
	return nil
}

// Predecessor returns the largest key smaller than y. ok=false means the
// query abstained because concurrent updates on keys in (result, y)
// interfered; when every key in that range is quiescent the answer is exact
// (−1 for "no predecessor"). Wait-free, O(log u) worst-case steps.
func (t *Relaxed) Predecessor(y int64) (pred int64, ok bool, err error) {
	if err := t.check(y); err != nil {
		return -1, false, err
	}
	pred, ok = t.trie.Predecessor(y)
	return pred, ok, nil
}

// Successor returns the smallest key greater than y, with the mirrored
// abstention semantics of Predecessor (−1 means "no successor"). An
// extension beyond the paper. Wait-free, O(log u) worst-case steps.
func (t *Relaxed) Successor(y int64) (succ int64, ok bool, err error) {
	if err := t.check(y); err != nil {
		return -1, false, err
	}
	succ, ok = t.trie.Successor(y)
	return succ, ok, nil
}
