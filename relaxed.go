package lockfreetrie

import (
	"fmt"

	"repro/internal/resize"
	"repro/internal/sharded"
)

// relaxedSet is the backend contract of the relaxed facade: a sharded
// relaxed table, or its resizable wrapper under WithAdaptiveShards.
type relaxedSet interface {
	Search(x int64) bool
	Insert(x int64)
	Delete(x int64)
	Predecessor(y int64) (int64, bool)
	Successor(y int64) (int64, bool)
	Len() int64
	U() int64
	Shards() int
}

// Relaxed is the paper's §4 wait-free relaxed binary trie: updates and
// membership are strongly linearizable and wait-free (O(log u) worst-case
// steps), but Predecessor may abstain while concurrent updates interfere.
// It is the right structure when bounded per-operation work matters more
// than always-answering queries (e.g. real-time producers with a
// best-effort scanner). The full Trie builds on it.
type Relaxed struct {
	set relaxedSet
	rz  *resize.RelaxedSet // non-nil under WithAdaptiveShards
}

// NewRelaxed returns an empty relaxed trie over {0,…,universe−1} (same
// bounds as New). Like New, it always builds a sharded table: the default
// is a one-shard table, and WithShards(k) partitions the universe across
// k independent relaxed tries under the same §4.1 contract — answers
// exact at quiescence, abstention only under interference — though under
// concurrent updates the cross-shard scan returns definite-but-inexact
// answers (a key present during the call that interference kept from
// being the true predecessor) in some cases where one shard would answer
// exactly or abstain. WithAdaptiveShards and WithoutCompressedDescents
// compose as with New; the observability options are accepted and
// ignored.
//
// NewRelaxed rejects WithCombining, WithAdaptiveCombining and
// WithPlacementHint: the relaxed trie has no announcement lists for a
// batch to amortize, and a combiner handoff would give up its per-op
// wait-freedom. It also rejects WithDurability.
func NewRelaxed(universe int64, opts ...Option) (*Relaxed, error) {
	cfg := config{shards: 1}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	for _, bad := range []struct {
		set  bool
		name string
	}{
		{cfg.combining, "WithCombining"},
		{cfg.adaptive, "WithAdaptiveCombining"},
		{cfg.placementSet, "WithPlacementHint"},
	} {
		if bad.set {
			return nil, fmt.Errorf("lockfreetrie: %s is incompatible with NewRelaxed (the relaxed trie has no announcement lists to amortize; combining would give up its per-op wait-freedom)", bad.name)
		}
	}
	if cfg.dur != nil {
		return nil, fmt.Errorf("lockfreetrie: WithDurability is incompatible with NewRelaxed (no batch entrypoint to seed recovery through)")
	}
	factory := func(k int) (*sharded.Relaxed, error) {
		t, err := sharded.NewRelaxed(universe, k)
		if err == nil && cfg.noCompress {
			for i := 0; i < t.Shards(); i++ {
				t.Shard(i).Bits().SetCompressedDescents(false)
			}
		}
		return t, err
	}
	if cfg.adaptiveShards {
		initial, err := cfg.resizeBounds()
		if err != nil {
			return nil, err
		}
		rz, err := resize.NewRelaxedSet(initial, factory,
			resize.Config{MinShards: cfg.minShards, MaxShards: cfg.maxShards})
		if err != nil {
			return nil, fmt.Errorf("lockfreetrie: %w", err)
		}
		return &Relaxed{set: rz, rz: rz}, nil
	}
	st, err := factory(cfg.shards)
	if err != nil {
		return nil, fmt.Errorf("lockfreetrie: %w", err)
	}
	return &Relaxed{set: st}, nil
}

// Universe returns the padded universe size.
func (t *Relaxed) Universe() int64 { return t.set.U() }

// Shards returns the current shard count: the configured value (1 by
// default), or — under WithAdaptiveShards — the live count, which a
// concurrent migration may change right after the read.
func (t *Relaxed) Shards() int { return t.set.Shards() }

// AdaptiveShards reports whether WithAdaptiveShards was set.
func (t *Relaxed) AdaptiveShards() bool { return t.rz != nil }

// ResizeStats returns the online-resize counters, mirroring
// Trie.ResizeStats. Without WithAdaptiveShards it is a static snapshot.
func (t *Relaxed) ResizeStats() ResizeStats {
	if t.rz == nil {
		return ResizeStats{Shards: t.set.Shards()}
	}
	s := t.rz.Stats()
	return ResizeStats{Shards: s.Shards, Grows: s.Grows, Shrinks: s.Shrinks, Migrating: s.Migrating}
}

// Len returns the number of keys currently in the set, under the same
// weak-consistency contract as Trie.Len: exact at quiescence, off by at
// most the number of in-flight updates under concurrency. O(shards): it
// sums the per-shard occupancy counters.
func (t *Relaxed) Len() int64 { return t.set.Len() }

func (t *Relaxed) check(x int64) error {
	if x < 0 || x >= t.set.U() {
		return &KeyRangeError{Key: x, Universe: t.set.U()}
	}
	return nil
}

// Contains reports whether x is in the set. O(1) worst-case steps.
func (t *Relaxed) Contains(x int64) (bool, error) {
	if err := t.check(x); err != nil {
		return false, err
	}
	return t.set.Search(x), nil
}

// Insert adds x to the set. Wait-free, O(log u) worst-case steps.
func (t *Relaxed) Insert(x int64) error {
	if err := t.check(x); err != nil {
		return err
	}
	t.set.Insert(x)
	return nil
}

// Delete removes x from the set. Wait-free, O(log u) worst-case steps.
func (t *Relaxed) Delete(x int64) error {
	if err := t.check(x); err != nil {
		return err
	}
	t.set.Delete(x)
	return nil
}

// Predecessor returns the largest key smaller than y. ok=false means the
// query abstained because concurrent updates on keys in (result, y)
// interfered; when every key in that range is quiescent the answer is exact
// (−1 for "no predecessor"). Wait-free, O(log u + shards) worst-case
// steps.
func (t *Relaxed) Predecessor(y int64) (pred int64, ok bool, err error) {
	if err := t.check(y); err != nil {
		return -1, false, err
	}
	pred, ok = t.set.Predecessor(y)
	return pred, ok, nil
}

// Successor returns the smallest key greater than y, with the mirrored
// abstention semantics of Predecessor (−1 means "no successor"). An
// extension beyond the paper. Wait-free, O(log u + shards) worst-case
// steps.
func (t *Relaxed) Successor(y int64) (succ int64, ok bool, err error) {
	if err := t.check(y); err != nil {
		return -1, false, err
	}
	succ, ok = t.set.Successor(y)
	return succ, ok, nil
}
