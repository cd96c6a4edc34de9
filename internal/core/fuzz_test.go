package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/relaxed"
	"repro/internal/seqtrie"
)

// FuzzSequentialAgainstReference: any byte-driven op sequence leaves the
// lock-free trie, the relaxed trie and the sequential reference in exact
// agreement on membership, predecessor and (for the tries that have it)
// successor. Each input runs twice: on a dense u = 32 universe, and spread
// over u = 2^12 with its 32 keys in pairs either side of 64-key block
// boundaries, so walks cross between the packed low-level blocks and the
// heap-order levels above them.
func FuzzSequentialAgainstReference(f *testing.F) {
	f.Add([]byte{0, 17, 64, 3, 129, 200, 255, 8})
	f.Add([]byte{1, 1, 1, 1})
	f.Add([]byte{250, 100, 50, 25, 12, 6, 3, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSequential(t, data, 32, func(k int64) int64 { return k })
		// Key k sits at block boundary 64·(3·(k/2)+1), on its left for
		// even k and its right for odd k: 63|64, 255|256, 447|448, …,
		// 2943|2944. The pairs diverge at heights 6 to 11.
		checkSequential(t, data, 1<<12, func(k int64) int64 { return 64*(3*(k/2)+1) - 1 + k%2 })
	})
}

// checkSequential replays data over a universe of u keys; byte b addresses
// key key(b % 32).
func checkSequential(t *testing.T, data []byte, u int64, key func(int64) int64) {
	lf, err := core.New(u)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := relaxed.New(u)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := seqtrie.New(u)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range data {
		k := key(int64(b % 32))
		switch (b / 32) % 4 {
		case 0, 1:
			lf.Insert(k)
			rx.Insert(k)
			ref.Insert(k)
		case 2:
			lf.Delete(k)
			rx.Delete(k)
			ref.Delete(k)
		case 3:
			if got, want := lf.Search(k), ref.Search(k); got != want {
				t.Fatalf("u=%d: core.Search(%d) = %v, want %v", u, k, got, want)
			}
			wantPred := ref.Predecessor(k)
			if got := lf.Predecessor(k); got != wantPred {
				t.Fatalf("u=%d: core.Predecessor(%d) = %d, want %d", u, k, got, wantPred)
			}
			gotR, ok := rx.Predecessor(k)
			if !ok || gotR != wantPred {
				t.Fatalf("u=%d: relaxed.Predecessor(%d) = (%d,%v), want (%d,true)",
					u, k, gotR, ok, wantPred)
			}
			wantSucc := ref.Successor(k)
			gotS, ok := rx.Successor(k)
			if !ok || gotS != wantSucc {
				t.Fatalf("u=%d: relaxed.Successor(%d) = (%d,%v), want (%d,true)",
					u, k, gotS, ok, wantSucc)
			}
		}
	}
	// Final sweep: every key agrees, and so does every gap between keys
	// (an answer is constant across a gap, so its first key stands for it).
	for i := int64(0); i < 32; i++ {
		for _, k := range []int64{key(i), key(i) + 1, u - 1} {
			if k >= u {
				continue
			}
			if got, want := lf.Search(k), ref.Search(k); got != want {
				t.Fatalf("u=%d: final core.Search(%d) = %v, want %v", u, k, got, want)
			}
			if got, want := lf.Predecessor(k), ref.Predecessor(k); got != want {
				t.Fatalf("u=%d: final core.Predecessor(%d) = %d, want %d", u, k, got, want)
			}
		}
	}
}
