package main

import (
	"fmt"
	"runtime"
	"time"

	lockfreetrie "repro"
)

// facadeOptions is the facade configuration of an in-process workload.
func (s spec) facadeOptions() []lockfreetrie.Option {
	if s.shards > 1 {
		return []lockfreetrie.Option{lockfreetrie.WithShards(s.shards)}
	}
	return nil
}

// runEmbed runs an in-process workload: each round builds and prefills a
// fresh facade trie, runs the workers closed-loop for the round's window,
// checks the quiescent set, measures the heap, and times rebuilding the
// set from its keys.
func runEmbed(s spec, seed int64, seconds int) (*e2eRun, error) {
	n, window := rounds(seconds)
	run := newE2ERun(s.owners)
	prefill := s.prefillKeys(seed)
	for round := 0; round < n; round++ {
		models := newModels(s, seed)
		ws := make([]*worker, s.owners)
		for i := range ws {
			ws[i] = &worker{g: newGen(s, seed, i), m: models[i], spacing: s.spacing(),
				readLat: &run.lats[i][0], updLat: &run.lats[i][1], latEvery: embedLatEvery}
		}
		base := heapInuse()

		t0 := time.Now()
		tr, err := lockfreetrie.New(s.universe, s.facadeOptions()...)
		if err != nil {
			return nil, err
		}
		if err := fill(facadeSet{tr}, prefill); err != nil {
			return nil, err
		}
		var rs roundStats
		rs.setup = time.Since(t0)

		for _, w := range ws {
			w.s = facadeSet{tr}
		}
		elapsed := runWorkers(ws, 0, window)
		ops, failed, bad := tally(ws)
		run.attempted += ops
		run.failed += failed
		rs.opsPerSec = float64(ops) / elapsed.Seconds()
		if bad > 0 {
			return nil, fmt.Errorf("round %d: %d predecessor answers were not pool keys below their argument", round, bad)
		}

		want := expectedKeys(models)
		if err := checkQuiescent(facadeSet{tr}, s.universe, want, seed+int64(round), 2000); err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		rs.heapBytes = heapInuse() - base
		// Drop the trie before the rebuild, so the rebuild reuses its
		// pages instead of faulting in fresh ones.
		runtime.KeepAlive(tr)
		tr = nil
		ws = nil
		runtime.GC()

		if rs.recover, err = rebuild(s, want); err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		run.closeRound(&rs)
		run.rounds = append(run.rounds, rs)
	}
	return run, nil
}

// rebuild times what an embedding program without a log does to get its
// set back after a restart: build a fresh trie and load the keys through
// ApplyBatch in ascending 1024-key chunks, the same seeding path WAL
// recovery takes. The rebuilt set must equal the keys.
func rebuild(s spec, keys []int64) (time.Duration, error) {
	t0 := time.Now()
	tr, err := lockfreetrie.New(s.universe, s.facadeOptions()...)
	if err != nil {
		return 0, err
	}
	if err := loadBatches(tr, keys); err != nil {
		return 0, fmt.Errorf("rebuild: %w", err)
	}
	d := time.Since(t0)
	got, err := tr.Keys(0, s.universe-1)
	if err != nil {
		return 0, err
	}
	if err := sameKeys(got, keys); err != nil {
		return 0, fmt.Errorf("rebuilt set: %w", err)
	}
	return d, nil
}
