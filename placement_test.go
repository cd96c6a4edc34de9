package lockfreetrie_test

import (
	"strings"
	"sync"
	"testing"

	lockfreetrie "repro"
)

// WithPlacementHint's facade validation: every invalid combination errors
// loudly at New, never constructs a half-placed trie.

func TestWithPlacementHintValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []lockfreetrie.Option
		want string
	}{
		{"empty hint",
			[]lockfreetrie.Option{lockfreetrie.WithCombining(), lockfreetrie.WithPlacementHint(nil)},
			"empty hint"},
		{"without combining",
			[]lockfreetrie.Option{lockfreetrie.WithShards(4), lockfreetrie.WithPlacementHint([]int{0, 1, 2, 3})},
			"requires WithCombining"},
		{"with adaptive shards",
			[]lockfreetrie.Option{lockfreetrie.WithCombining(), lockfreetrie.WithAdaptiveShards(1, 4),
				lockfreetrie.WithPlacementHint([]int{0})},
			"incompatible with WithAdaptiveShards"},
		{"wrong length",
			[]lockfreetrie.Option{lockfreetrie.WithShards(4), lockfreetrie.WithCombining(),
				lockfreetrie.WithPlacementHint([]int{0, 1})},
			"2 entries for 4 shards"},
		{"group out of range",
			[]lockfreetrie.Option{lockfreetrie.WithShards(4), lockfreetrie.WithCombining(),
				lockfreetrie.WithPlacementHint([]int{0, 1, 2, 7})},
			"outside group range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := lockfreetrie.New(1024, tc.opts...)
			if err == nil {
				t.Fatal("New accepted an invalid placement configuration")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestWithPlacementHintRelaxedRejected: NewRelaxed rejects even a valid
// hint, naming the option — without a combining layer there are no
// publication slots for a hint to shape.
func TestWithPlacementHintRelaxedRejected(t *testing.T) {
	for _, hint := range [][]int{{0}, {0, 1, 2, 3}} {
		_, err := lockfreetrie.NewRelaxed(1024, lockfreetrie.WithShards(len(hint)),
			lockfreetrie.WithPlacementHint(hint))
		if err == nil || !strings.Contains(err.Error(), "WithPlacementHint") {
			t.Fatalf("hint %v: NewRelaxed with WithPlacementHint: %v, want a rejection naming the option", hint, err)
		}
	}
}

func TestWithPlacementHintAccessor(t *testing.T) {
	plain, err := lockfreetrie.New(1024, lockfreetrie.WithShards(4), lockfreetrie.WithCombining())
	if err != nil {
		t.Fatal(err)
	}
	if h := plain.PlacementHint(); h != nil {
		t.Fatalf("unplaced trie reports hint %v", h)
	}

	hint := []int{0, 0, 2, 2}
	tr, err := lockfreetrie.New(1024, lockfreetrie.WithShards(4), lockfreetrie.WithCombining(),
		lockfreetrie.WithPlacementHint(hint))
	if err != nil {
		t.Fatal(err)
	}
	got := tr.PlacementHint()
	for i := range hint {
		if got[i] != hint[i] {
			t.Fatalf("PlacementHint() = %v, want %v", got, hint)
		}
	}
	got[0] = 3
	if tr.PlacementHint()[0] != 0 {
		t.Fatal("PlacementHint leaked the internal slice")
	}
	// The option took its own copy too: mutating the caller's slice after
	// New must not reach the trie.
	hint[1] = 3
	if tr.PlacementHint()[1] != 0 {
		t.Fatal("WithPlacementHint aliased the caller's slice")
	}
}

// A placed one-shard table keeps the facade contract: full
// insert/delete/predecessor behaviour.
func TestWithPlacementHintSingleShard(t *testing.T) {
	tr, err := lockfreetrie.New(256, lockfreetrie.WithCombining(),
		lockfreetrie.WithPlacementHint([]int{0}))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Shards() != 1 || !tr.Combining() {
		t.Fatalf("placed k=1 trie misconfigured: shards %d combining %v", tr.Shards(), tr.Combining())
	}
	for x := int64(0); x < 256; x += 5 {
		if err := tr.Insert(x); err != nil {
			t.Fatal(err)
		}
	}
	if p, _ := tr.Predecessor(7); p != 5 {
		t.Fatalf("Predecessor(7) = %d, want 5", p)
	}
	if err := tr.Delete(5); err != nil {
		t.Fatal(err)
	}
	if p, _ := tr.Predecessor(7); p != 0 {
		t.Fatalf("Predecessor(7) after delete = %d, want 0", p)
	}
}

// Placement composes with adaptive combining and stays correct under a
// concurrent mixed load (facade-level smoke; the exhaustive proof is the
// conformance variant in internal/sharded).
func TestWithPlacementHintConcurrent(t *testing.T) {
	tr, err := lockfreetrie.New(1024, lockfreetrie.WithShards(8),
		lockfreetrie.WithAdaptiveCombining(),
		lockfreetrie.WithPlacementHint([]int{0, 0, 0, 0, 4, 4, 4, 4}))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := int64(g) * 128 // one shard per goroutine
			for rep := 0; rep < 50; rep++ {
				for x := base; x < base+128; x += 2 {
					tr.Insert(x)
				}
				for x := base; x < base+128; x += 4 {
					tr.Delete(x)
				}
			}
		}(g)
	}
	wg.Wait()
	for x := int64(0); x < 1024; x++ {
		want := x%2 == 0 && x%4 != 0
		got, err := tr.Contains(x)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Contains(%d) = %v, want %v", x, got, want)
		}
	}
}
