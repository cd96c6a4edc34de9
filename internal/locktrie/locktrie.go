// Package locktrie wraps the sequential binary trie with a readers–writer
// lock. It is the coarse-grained baseline for the throughput experiments
// (DESIGN.md §Experiment index C4, C5): trivially linearizable, but updates
// serialize and a stalled writer blocks everyone — the failure mode
// lock-freedom removes.
package locktrie

import (
	"sync"

	"repro/internal/seqtrie"
)

// Trie is a lock-protected binary trie, safe for concurrent use.
type Trie struct {
	mu  sync.RWMutex
	seq *seqtrie.Trie
}

// New returns an empty trie over {0,…,u−1}.
func New(u int64) (*Trie, error) {
	seq, err := seqtrie.New(u)
	if err != nil {
		return nil, err
	}
	return &Trie{seq: seq}, nil
}

// U returns the padded universe size.
func (t *Trie) U() int64 { return t.seq.U() }

// Search reports membership of x under a read lock.
func (t *Trie) Search(x int64) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.seq.Search(x)
}

// Insert adds x under the write lock.
func (t *Trie) Insert(x int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq.Insert(x)
}

// Delete removes x under the write lock.
func (t *Trie) Delete(x int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq.Delete(x)
}

// Predecessor returns the largest key < y or −1, under a read lock.
func (t *Trie) Predecessor(y int64) int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.seq.Predecessor(y)
}

// InsertStalled performs Insert but invokes stall while HOLDING the write
// lock. Fault injection for the lock-freedom experiment (C4): it models a
// process that is descheduled (or crashes temporarily) inside its critical
// section, which blocks every other operation on a lock-based structure.
// The lock-free trie has no analogous vulnerable window — a stalled
// goroutine can never block the others, wherever it stops.
func (t *Trie) InsertStalled(x int64, stall func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq.Insert(x)
	if stall != nil {
		stall()
	}
}
