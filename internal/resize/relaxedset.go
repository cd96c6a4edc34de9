package resize

import "repro/internal/sharded"

// RelaxedSet is the resizable façade over the sharded §4 relaxed trie,
// mirroring Set. The relaxed predecessor's abstention contract survives
// resizing unchanged: queries always run against one authoritative
// table, and a frozen retiring table abstains from nothing.
type RelaxedSet struct {
	r *resizer[*sharded.Relaxed]
}

// NewRelaxedSet wraps factory(initial) in the resize machinery,
// mirroring NewSet. The relaxed tables expose no announcement lists, so
// the contention signal is gate occupancy alone.
func NewRelaxedSet(initial int, factory func(k int) (*sharded.Relaxed, error), cfg Config) (*RelaxedSet, error) {
	t, err := factory(initial)
	if err != nil {
		return nil, err
	}
	r, err := newResizer(t, factory, scanRelaxed, cfg)
	if err != nil {
		return nil, err
	}
	return &RelaxedSet{r: r}, nil
}

// scanRelaxed enumerates a relaxed table's keys by probing every key of
// every non-empty shard with the wait-free Search. The relaxed
// predecessor may abstain under interference, so a walk could stall;
// per-key probes cannot, and they are exact for every key no concurrent
// update touches — the only keys the migration scan must get right.
// O(u) worst case, O(width · non-empty shards) typical.
func scanRelaxed(t *sharded.Relaxed, emit func(int64)) {
	width := t.U() / int64(t.Shards())
	for i := 0; i < t.Shards(); i++ {
		if t.Occupancy(i) == 0 {
			continue // provably empty at the instant of the read
		}
		base := int64(i) * width
		for lx := int64(0); lx < width; lx++ {
			if t.Search(base | lx) {
				emit(base | lx)
			}
		}
	}
}

// Table returns the current authoritative table (tests, stats);
// read-only for callers, as with Set.Table.
func (s *RelaxedSet) Table() *sharded.Relaxed { return s.r.table() }

// Shards returns the current shard count.
func (s *RelaxedSet) Shards() int { return s.r.Shards() }

// U returns the padded universe size.
func (s *RelaxedSet) U() int64 { return s.r.U() }

// Len returns the weakly-consistent cardinality estimate (exact at
// quiescence).
func (s *RelaxedSet) Len() int64 { return s.r.Len() }

// Stats returns the resize counters.
func (s *RelaxedSet) Stats() Stats { return s.r.Stats() }

// Decider returns the decision layer, or nil for manually driven sets.
func (s *RelaxedSet) Decider() *Decider { return s.r.dec }

// SealAssists returns the cumulative count of keys replayed by updates
// that arrived inside a sealed migration window and helped drain it.
func (s *RelaxedSet) SealAssists() int64 { return s.r.SealAssists() }

// Resize synchronously migrates to target shards (ErrBusy if one is in
// flight).
func (s *RelaxedSet) Resize(target int) error { return s.r.Resize(target) }

// Search reports whether x is in the set. Wait-free; never blocks in
// any phase.
//
// Precondition: 0 ≤ x < U().
func (s *RelaxedSet) Search(x int64) bool { return s.r.Search(x) }

// Insert adds x to the set through the current epoch.
//
// Precondition: 0 ≤ x < U().
func (s *RelaxedSet) Insert(x int64) { s.r.Insert(x) }

// Delete removes x from the set through the current epoch.
//
// Precondition: 0 ≤ x < U().
func (s *RelaxedSet) Delete(x int64) { s.r.Delete(x) }

// Predecessor returns the largest key < y under the §4.1 relaxed
// contract (ok=false abstains), from the authoritative table.
//
// Precondition: 0 ≤ y < U().
func (s *RelaxedSet) Predecessor(y int64) (int64, bool) { return s.r.table().Predecessor(y) }

// Successor mirrors Predecessor upward.
//
// Precondition: 0 ≤ y < U().
func (s *RelaxedSet) Successor(y int64) (int64, bool) { return s.r.table().Successor(y) }
