package main

import (
	"maps"
	"sync"
	"testing"
	"time"

	lockfreetrie "repro"
)

// recordingSet is a set that records every op it receives while armed.
type recordingSet struct {
	mu      sync.Mutex
	armed   bool
	present []bool
	got     map[op]int
}

func newRecordingSet(s spec) *recordingSet {
	return &recordingSet{present: make([]bool, s.universe), got: map[op]int{}}
}

func (r *recordingSet) note(o op) {
	r.mu.Lock()
	if r.armed {
		r.got[o]++
	}
	r.mu.Unlock()
}

func (r *recordingSet) arm(on bool) {
	r.mu.Lock()
	r.armed = on
	r.mu.Unlock()
}

func (r *recordingSet) contains(x int64) (bool, error) {
	r.note(op{opContains, x})
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.present[x], nil
}

func (r *recordingSet) insert(x int64) error {
	r.note(op{opInsert, x})
	r.mu.Lock()
	r.present[x] = true
	r.mu.Unlock()
	return nil
}

func (r *recordingSet) remove(x int64) error {
	r.note(op{opDelete, x})
	r.mu.Lock()
	r.present[x] = false
	r.mu.Unlock()
	return nil
}

func (r *recordingSet) pred(y int64) (int64, error) {
	r.note(op{opPred, y})
	r.mu.Lock()
	defer r.mu.Unlock()
	for x := y - 1; x >= 0; x-- {
		if r.present[x] {
			return x, nil
		}
	}
	return -1, nil
}

// TestLadderRungsGetIdenticalStreams replays two rungs and checks each
// received exactly the ops the workers' generators produce, so rungs
// differ only in the layers under them.
func TestLadderRungsGetIdenticalStreams(t *testing.T) {
	s := specs["embed-churn"]
	su := &suite{seed: 11, origin: time.Now(), metrics: map[string]metric{}}
	var sets []*recordingSet
	build := func(spec) (set, error) {
		r := newRecordingSet(s)
		sets = append(sets, r)
		return r, nil
	}
	// Record only the workers' ops: the hook runs after the prefill, and
	// its returned function when the workers have stopped.
	window := func(x set) func() {
		r := x.(*recordingSet)
		r.arm(true)
		return func() { r.arm(false) }
	}
	for _, name := range []string{"a", "b"} {
		if _, err := su.replay(s, rung{name, build}, true, window); err != nil {
			t.Fatal(err)
		}
	}
	if !maps.Equal(sets[0].got, sets[1].got) {
		t.Fatal("the two rungs received different ops")
	}
	want := map[op]int{}
	for w := 0; w < s.owners; w++ {
		for _, o := range stream(s, su.seed, w, ladderOps) {
			want[o]++
		}
	}
	if !maps.Equal(sets[0].got, want) {
		t.Fatal("the rungs did not receive exactly the generated streams")
	}
	if su.attempted != 2*int64(s.owners)*ladderOps {
		t.Errorf("attempted %d ops, want %d", su.attempted, 2*int64(s.owners)*ladderOps)
	}
}

func TestSweepBatchesHoldOnlyUpdates(t *testing.T) {
	s := specs["served-durable"]
	a, b := sweepBatches(s, 4, 6, 100), sweepBatches(s, 4, 6, 100)
	for i := range a {
		if len(a[i]) != 6 {
			t.Fatalf("batch %d has %d ops, want 6", i, len(a[i]))
		}
		for j, o := range a[i] {
			if o.Kind != lockfreetrie.OpInsert && o.Kind != lockfreetrie.OpDelete {
				t.Fatalf("batch %d op %d has kind %v", i, j, o.Kind)
			}
			if o != b[i][j] {
				t.Fatalf("batch %d op %d differs between identical calls", i, j)
			}
		}
	}
}
