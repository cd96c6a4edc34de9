package main

import (
	"fmt"
	"slices"

	lockfreetrie "repro"
	"repro/internal/core"
	"repro/internal/sharded"
)

// set is the operation surface every measured layer offers: the facade,
// and the bare core and sharded tries below it in the ladder.
type set interface {
	contains(x int64) (bool, error)
	insert(x int64) error
	remove(x int64) error
	pred(y int64) (int64, error)
}

type facadeSet struct{ t *lockfreetrie.Trie }

func (f facadeSet) contains(x int64) (bool, error) { return f.t.Contains(x) }
func (f facadeSet) insert(x int64) error           { return f.t.Insert(x) }
func (f facadeSet) remove(x int64) error           { return f.t.Delete(x) }
func (f facadeSet) pred(y int64) (int64, error)    { return f.t.Predecessor(y) }

type coreSet struct{ t *core.Trie }

func (c coreSet) contains(x int64) (bool, error) { return c.t.Search(x), nil }
func (c coreSet) insert(x int64) error           { c.t.Insert(x); return nil }
func (c coreSet) remove(x int64) error           { c.t.Delete(x); return nil }
func (c coreSet) pred(y int64) (int64, error)    { return c.t.Predecessor(y), nil }

type shardedSet struct{ t *sharded.Trie }

func (s shardedSet) contains(x int64) (bool, error) { return s.t.Search(x), nil }
func (s shardedSet) insert(x int64) error           { s.t.Insert(x); return nil }
func (s shardedSet) remove(x int64) error           { s.t.Delete(x); return nil }
func (s shardedSet) pred(y int64) (int64, error)    { return s.t.Predecessor(y), nil }

// fill inserts keys one Insert at a time, the same way on every rung.
func fill(s set, keys []int64) error {
	for _, k := range keys {
		if err := s.insert(k); err != nil {
			return err
		}
	}
	return nil
}

// dump lists a quiescent set's keys ascending: the facade's sorted Keys,
// or, for the bare tries below it, a Predecessor walk down from the top of
// the universe.
func dump(s set, universe int64) ([]int64, error) {
	if f, ok := s.(facadeSet); ok {
		return f.t.Keys(0, universe-1)
	}
	var out []int64
	top, err := s.contains(universe - 1)
	if err != nil {
		return nil, err
	}
	if top {
		out = append(out, universe-1)
	}
	for y := universe - 1; ; {
		p, err := s.pred(y)
		if err != nil {
			return nil, err
		}
		if p < 0 {
			break
		}
		out = append(out, p)
		y = p
	}
	slices.Reverse(out)
	return out, nil
}

// checkQuiescent compares a quiescent set with the expected keys: its
// own dump must equal them, and Predecessor and Contains on sampled
// arguments must agree with the dump.
func checkQuiescent(s set, universe int64, want []int64, seed int64, samples int) error {
	got, err := dump(s, universe)
	if err != nil {
		return err
	}
	if err := sameKeys(got, want); err != nil {
		return err
	}
	return checkSamples(s, universe, want, seed, samples)
}

// checkSamples checks Predecessor and Contains on sampled arguments
// against the expected keys of a quiescent set.
func checkSamples(s set, universe int64, want []int64, seed int64, samples int) error {
	r := newRNG(seed, 1<<33)
	for i := 0; i < samples; i++ {
		y := r.intn(universe)
		p, err := s.pred(y)
		if err != nil {
			return err
		}
		// want's largest key below y.
		j, _ := slices.BinarySearch(want, y)
		exp := int64(-1)
		if j > 0 {
			exp = want[j-1]
		}
		if p != exp {
			return fmt.Errorf("Predecessor(%d) = %d, dump says %d", y, p, exp)
		}
		// Contains on y (mostly absent) and on its predecessor (present).
		for _, x := range []int64{y, exp} {
			if x < 0 {
				continue
			}
			in, err := s.contains(x)
			if err != nil {
				return err
			}
			if _, found := slices.BinarySearch(want, x); in != found {
				return fmt.Errorf("Contains(%d) = %v, dump says %v", x, in, found)
			}
		}
	}
	return nil
}

func sameKeys(got, want []int64) error {
	if slices.Equal(got, want) {
		return nil
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Errorf("key sets differ at index %d: got %d, want %d (sizes %d, %d)",
				i, got[i], want[i], len(got), len(want))
		}
	}
	return fmt.Errorf("key sets differ in size: got %d, want %d", len(got), len(want))
}

// loadBatches inserts ascending keys through ApplyBatch in 1024-key
// chunks.
func loadBatches(tr *lockfreetrie.Trie, keys []int64) error {
	const chunk = 1024
	batch := make([]lockfreetrie.Op, 0, chunk)
	for i, k := range keys {
		batch = append(batch, lockfreetrie.Op{Kind: lockfreetrie.OpInsert, Key: k})
		if len(batch) == chunk || i == len(keys)-1 {
			if errs := tr.ApplyBatch(batch); errs != nil {
				return fmt.Errorf("ApplyBatch rejected ops: %v", errs)
			}
			batch = batch[:0]
		}
	}
	return nil
}
