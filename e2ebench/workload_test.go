package main

import (
	"slices"
	"testing"
)

func stream(s spec, seed int64, owner, n int) []op {
	g := newGen(s, seed, owner)
	out := make([]op, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestOpStreamDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		s := specs[name]
		for owner := 0; owner < 2; owner++ {
			a, b := stream(s, 7, owner, 20000), stream(s, 7, owner, 20000)
			if !slices.Equal(a, b) {
				t.Errorf("%s owner %d: same seed gave different streams", name, owner)
			}
			if c := stream(s, 8, owner, 20000); slices.Equal(a, c) {
				t.Errorf("%s owner %d: seeds 7 and 8 gave the same stream", name, owner)
			}
		}
		if !slices.Equal(s.prefillKeys(7), s.prefillKeys(7)) {
			t.Errorf("%s: same seed gave different prefills", name)
		}
	}
}

func TestOpStreamShape(t *testing.T) {
	for _, name := range workloadNames {
		s := specs[name]
		const n = 100000
		var kinds [4]int
		for owner := 0; owner < s.owners; owner += max(1, s.owners/4) {
			for _, o := range stream(s, 3, owner, n) {
				kinds[o.kind]++
				if o.key < 0 || o.key >= s.universe {
					t.Fatalf("%s: key %d outside the universe", name, o.key)
				}
				if o.kind.update() || o.kind == opContains {
					if o.key%s.spacing() != 0 {
						t.Fatalf("%s: %v on %d, not a pool key", name, o.kind, o.key)
					}
				}
				if o.kind.update() && (o.key/s.spacing())%int64(s.owners) != int64(owner) {
					t.Fatalf("%s: owner %d updates key %d it does not own", name, owner, o.key)
				}
			}
		}
		total := kinds[0] + kinds[1] + kinds[2] + kinds[3]
		predPct := 100 * kinds[opPred] / total
		if predPct < s.predPct-1 || predPct > s.predPct+1 {
			t.Errorf("%s: %d%% predecessors, want %d%%", name, predPct, s.predPct)
		}
	}
}

func TestHotBandStaysInOneShard(t *testing.T) {
	s := specs["embed-churn"]
	width := s.universe / int64(s.shards)
	hot := 0
	ops := stream(s, 5, 1, 50000)
	for _, o := range ops {
		if o.key/width == 8 {
			hot++
		}
	}
	if share := float64(hot) / float64(len(ops)); share < 0.88 {
		t.Errorf("%.2f of keys in the hot shard, want about 0.9", share)
	}
}
