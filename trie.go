// Package lockfreetrie is a lock-free binary trie for dynamic sets of
// integer keys with predecessor queries, reproducing "A Lock-free Binary
// Trie" (Jeremy Ko, ICDCS 2024 / arXiv:2405.06208).
//
// The trie stores a set S ⊆ {0,…,u−1} and supports, for any number of
// concurrent goroutines without locks:
//
//   - Contains(x): O(1) worst-case steps,
//   - Insert(x), Delete(x), Predecessor(y): O(ċ² + log u) amortized steps,
//     where ċ is the operation's point contention.
//
// All operations are linearizable (the sharded variant's one narrow
// exception is documented at WithShards). The package also exposes the
// paper's §4
// building block as Relaxed: a wait-free trie whose predecessor query may
// abstain (return ok=false) while updates are in flight, but answers
// exactly whenever the relevant keys are quiescent.
//
// # Quick start
//
//	tr, err := lockfreetrie.New(1 << 20)
//	if err != nil { ... }
//	tr.Insert(42)
//	tr.Insert(1000)
//	p, _ := tr.Predecessor(500) // p == 42
//
// For high update rates on disjoint key ranges, shard the universe:
//
//	tr, err := lockfreetrie.New(1<<20, lockfreetrie.WithShards(16))
//
// Each shard is an independent trie with its own announcement lists, so
// operations on different shards never contend (see DESIGN.md §Sharding).
// When many goroutines update the SAME shard, add WithCombining() to batch
// their announcements through a per-shard flat-combining layer, or call
// Trie.ApplyBatch directly if the application already aggregates writes.
// If the update clustering is unknown or varies at runtime, use
// WithAdaptiveCombining() instead: each shard then watches its own
// contention signals and flips between direct and combining publication
// with hysteresis (DESIGN.md §Adaptive combining). When even the right
// shard COUNT is workload-dependent, WithAdaptiveShards(min, max) makes
// k itself adaptive: the trie re-partitions online between min and max
// shards as contention shifts, migrating live without blocking readers
// (DESIGN.md §Shard resize).
//
// See examples/ for runnable programs and DESIGN.md for the architecture.
package lockfreetrie

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/adapt"
	"repro/internal/combine"
	"repro/internal/core"
	"repro/internal/resize"
	"repro/internal/sharded"
	"repro/internal/wal"
)

// MaxUniverse bounds the universe size (space is Θ(u)).
const MaxUniverse = int64(1) << 32

// KeyRangeError reports a key outside [0, Universe()).
type KeyRangeError struct {
	Key      int64
	Universe int64
}

// Error implements error.
func (e *KeyRangeError) Error() string {
	return fmt.Sprintf("lockfreetrie: key %d outside universe [0, %d)", e.Key, e.Universe)
}

// config collects the functional options of New.
type config struct {
	shards    int
	shardsSet bool
	combining bool
	adaptive  bool
	// acfg is the adaptive controllers' tuning; the zero value (every
	// public configuration) selects the defaults.
	acfg           adapt.Config
	adaptiveShards bool
	minShards      int
	maxShards      int
	placement      []int
	placementSet   bool
	// Observability options (obs.go).
	obsOff       bool
	descentStats bool
	// Durability (durability.go); nil = in-memory only.
	dur *durConfig
}

// Option configures New.
type Option func(*config) error

// WithShards partitions the universe into k contiguous shards, each an
// independent trie with its own announcement lists, plus a lock-free
// occupancy summary that lets Predecessor, Floor, Max, Range and Keys skip
// empty shards. k must be a power of two; the padded universe must leave
// every shard at least two keys wide. k = 1 (the default) is a one-shard
// table: the paper's single trie behind the table's occupancy counters,
// with the table's stitching never taken. New builds every trie this
// way, so k = 1 is not a separate code path.
//
// Sharding trades the predecessor fast path for update scalability:
// operations on different shards touch disjoint cache lines, while a
// Predecessor whose owning shard is empty below the query key pays an
// O(k)-validated scan of lower shards (see internal/sharded).
//
// Consistency: Search, Insert and Delete remain strictly linearizable at
// any shard count, as does a Predecessor answered by the query key's own
// shard. A cross-shard Predecessor validates its scan of the lower shards
// and retries while updates keep landing in them; only if some scanned
// lower shard fails validation on all 64 attempts of the retry budget —
// e.g. a writer parked mid-update there throughout, or an unbroken
// stream of completed updates below the query — does it return the last
// scan's answer under the same weak-consistency contract as Range.
// Updates in the query key's own shard never degrade the answer. The
// retry budget cannot be unbounded without giving up lock-freedom: a
// writer parked mid-update would otherwise spin the query forever.
func WithShards(k int) Option {
	return func(c *config) error {
		if k < 1 {
			return fmt.Errorf("lockfreetrie: WithShards(%d): shard count must be at least 1", k)
		}
		c.shards = k
		c.shardsSet = true
		return nil
	}
}

// WithAdaptiveShards moves the shard-count decision itself to runtime:
// the trie starts at min shards (or the WithShards value, which must lie
// in [min, max]) and re-partitions itself online between min and max as
// the workload's contention shifts. A deterministic decision layer
// samples the busiest shard's concurrent-publisher estimate (in-flight
// updates and, on the lock-free trie, announcement-list length) every
// few hundred updates and proposes doubling when the estimate's EWMA
// sustains above the grow threshold — with an occupancy guard so a
// near-empty set never fragments — and halving when it falls below the
// shrink threshold, with hysteresis and a minimum dwell between
// proposals (internal/resize; thresholds mirror WithAdaptiveCombining's
// tuning data).
//
// A proposal triggers a live migration: updates keep completing against
// the old partition while a coordinator builds the new one, journaling
// concurrently-touched keys through per-shard versioned snapshots and
// replaying the delta before one epoch flip hands authority over
// (DESIGN.md §Shard resize). Queries never block at any point of a
// migration — they always read the one authoritative partition, so
// Contains/Predecessor keep their usual consistency contracts and Len
// never observes a half-migrated state. Updates are untouched except
// inside the brief final handoff window, where a newly arriving update
// waits for the in-flight ops of the retiring partition plus one
// bounded delta replay (the same bounded-handoff trade WithCombining
// makes for claimed operations).
//
// min and max must be powers of two with 1 ≤ min ≤ max; max is capped
// by the universe geometry (every shard spans at least two keys).
// min == max pins the count (useful only for testing the machinery).
// Composes with WithCombining and WithAdaptiveCombining: every
// partition the trie migrates to carries the same configuration.
func WithAdaptiveShards(min, max int) Option {
	return func(c *config) error {
		if min < 1 || min&(min-1) != 0 || max < 1 || max&(max-1) != 0 {
			return fmt.Errorf("lockfreetrie: WithAdaptiveShards(%d, %d): bounds must be powers of two ≥ 1", min, max)
		}
		if min > max {
			return fmt.Errorf("lockfreetrie: WithAdaptiveShards(%d, %d): min exceeds max", min, max)
		}
		c.adaptiveShards = true
		c.minShards, c.maxShards = min, max
		return nil
	}
}

// WithCombining routes Insert and Delete through a per-shard flat-combining
// layer (internal/combine): concurrent updates on the same shard publish to
// a fixed array of padded publication slots, one goroutine elects itself
// combiner per round, and the drained batch is applied through the core
// batch entrypoint — announcing once per batch on the shard's U-ALL/RU-ALL
// instead of once per operation. Composes with WithShards (each shard gets
// its own combiner; the default one-shard table has one global combiner).
//
// Trade-offs: queries and the explicit ApplyBatch are untouched, and the
// underlying trie stays lock-free — an update the current combiner has not
// claimed can always retract and run the ordinary per-op path. What is
// given up is per-op lock-freedom for claimed updates: an operation a
// combiner has drained waits for that round to finish (flat combining's
// standard trade; the claim window spans one batch application of
// lock-free code). Worth it when many goroutines update the same shard —
// the announcement amortization experiment CB1 records the trajectory in
// BENCH_combine.json; with few concurrent updaters the batches degenerate
// to size 1 and the handoff is pure overhead.
func WithCombining() Option {
	return func(c *config) error {
		c.combining = true
		return nil
	}
}

// WithAdaptiveCombining is WithCombining with the decision moved from
// construction time to runtime, per shard: every shard gets publication
// slots AND a controller that samples the shard's contention signals
// (announcement-list length and in-flight updates while direct; drained
// batch size, combiner-election contention and retraction pressure while
// combining) every 128 updates and flips an atomic mode word the update
// path reads on every operation. Enable and disable use distinct
// thresholds plus a minimum dwell, so workloads wandering near one
// threshold do not thrash, and operations in flight across a flip stay
// linearizable — the mode word is advisory routing over two publication
// paths that are already safe concurrently (DESIGN.md §Adaptive
// combining).
//
// The controller runs internal/adapt's defaults, tuned from the CB1/AD1
// trajectory data (BENCH_combine.json, BENCH_adaptive.json): clustered
// workloads drain 6.8–16 ops per combining round and park 7–15
// concurrent publishers per shard, thin-spread ones ~1 and 0–4, so the
// hysteresis band [1.4, 4.0] separates the regimes with margin on both
// sides. Every shard starts in direct mode.
//
// Use it when the update clustering is unknown or varies: a shard that
// stays thin keeps the direct path's throughput (the AD1 experiment gates
// ≥ 0.95× uncombined on a thin-spread mix), while a shard that becomes hot
// converges to the combining path's (≥ 0.9× always-on combining on
// clustered mixes, BENCH_adaptive.json). With a KNOWN stable workload the
// static choices — WithCombining() or nothing — avoid the sampling tax
// and the convergence transient. Overrides WithCombining when both are
// set. Composes with WithShards exactly as WithCombining does.
func WithAdaptiveCombining() Option {
	return func(c *config) error {
		c.adaptive = true
		return nil
	}
}

// WithPlacementHint pins each shard's publication machinery to the
// publisher population owning its key range: owners[i] is the placement
// group of shard i, and shards sharing a group carve their combining
// publication slots from one contiguous arena and claim them with sticky
// slot affinity — a shard's dominant publisher keeps reusing one warm
// cache line between operations instead of rotating across the slot
// array. The hint is OS-portable by construction: it shapes goroutine-to-
// shard slot affinity and arena locality, never hard thread pinning, so
// its benefit depends on the runtime actually keeping publisher
// goroutines on stable Ps (it usually does under steady load; see
// DESIGN.md §Multicore methodology for the caveat and measurements —
// the MP1 experiment records the trajectory in BENCH_multicore.json).
//
// owners must have exactly one entry per shard (the WithShards value; 1
// by default, the one-shard table) with group ids in [0, shards). The
// identity hint (owners[i] = i) declares every shard privately owned. Requires
// WithCombining or WithAdaptiveCombining — placement shapes publication
// slots, and without a combining layer there are none — and is
// incompatible with WithAdaptiveShards, whose migrations re-partition
// the very key ranges a hint pins.
func WithPlacementHint(owners []int) Option {
	return func(c *config) error {
		if len(owners) == 0 {
			return fmt.Errorf("lockfreetrie: WithPlacementHint: empty hint (one group id per shard required)")
		}
		c.placement = append([]int(nil), owners...)
		c.placementSet = true
		return nil
	}
}

// validatePlacement checks the placement hint against the rest of the
// resolved configuration.
func (c *config) validatePlacement() error {
	if !c.placementSet {
		return nil
	}
	if c.adaptiveShards {
		return fmt.Errorf("lockfreetrie: WithPlacementHint is incompatible with WithAdaptiveShards (a migration re-partitions the key ranges the hint pins)")
	}
	if !c.combining && !c.adaptive {
		return fmt.Errorf("lockfreetrie: WithPlacementHint requires WithCombining or WithAdaptiveCombining (the hint shapes publication slots)")
	}
	if err := sharded.ValidatePlacement(c.placement, c.shards); err != nil {
		return fmt.Errorf("lockfreetrie: WithPlacementHint: %w", err)
	}
	return nil
}

// set is the backend contract of the facade: the sharded table New built,
// or its resizable wrapper under WithAdaptiveShards (either possibly
// behind the write-ahead wrapper of WithDurability); the exported API
// layers key validation and the composed operations (Floor, Max, Range,
// Keys, Ceiling) on top of it.
type set interface {
	Search(x int64) bool
	Insert(x int64)
	Delete(x int64)
	Predecessor(y int64) int64
	Successor(y int64) int64
	ApplyBatch(ops []core.BatchOp)
	Len() int64
	U() int64
}

// Trie is a lock-free linearizable binary trie. All methods are safe for
// concurrent use by any number of goroutines. Create instances with New.
type Trie struct {
	set      set
	table    *sharded.Trie // the built table; nil under WithAdaptiveShards
	rz       *resize.Set   // non-nil under WithAdaptiveShards
	obs      *obsState     // nil under WithoutObservability
	wal      *wal.Log      // non-nil under WithDurability
	recovery RecoveryStats
}

// resizeBounds validates the WithAdaptiveShards bounds against the other
// options and returns the initial shard count: the explicit WithShards
// value when given (it must lie inside [min, max]), min otherwise.
func (c *config) resizeBounds() (initial int, err error) {
	initial = c.minShards
	if c.shardsSet {
		if c.shards < c.minShards || c.shards > c.maxShards {
			return 0, fmt.Errorf("lockfreetrie: WithShards(%d) outside WithAdaptiveShards bounds [%d, %d]",
				c.shards, c.minShards, c.maxShards)
		}
		initial = c.shards
	}
	return initial, nil
}

// shardedFactory builds the table constructor behind every Trie: New
// calls it once, and under WithAdaptiveShards the resize layer calls it
// again for every partition it migrates to. Each table carries the
// combining/adaptive/placement configuration and, with observability
// on, is instrumented while still private (the attach points are plain
// stores).
func (c *config) shardedFactory(universe int64, o *obsState) func(k int) (*sharded.Trie, error) {
	opts := sharded.Options{Combining: c.combining, Placement: c.placement}
	if c.adaptive {
		acfg := c.acfg
		opts.Adaptive = &acfg
	}
	return func(k int) (*sharded.Trie, error) {
		t, err := sharded.NewWithOptions(universe, k, opts)
		if err != nil {
			return nil, err
		}
		if o != nil {
			o.instrumentSharded(t)
		}
		return t, nil
	}
}

// checkUniverse enforces the universe bounds of New and NewRelaxed
// before anything is allocated, naming the caller's value: the layers
// below see only the padded size, and each shard checks only its own
// width, so without this a sharded table over more than MaxUniverse
// keys would pass every per-shard check.
func checkUniverse(universe int64) error {
	if universe < 2 || universe > MaxUniverse {
		return fmt.Errorf("lockfreetrie: universe %d outside [2, %d]", universe, MaxUniverse)
	}
	return nil
}

// New returns an empty trie over the universe {0,…,universe−1}. universe
// must be at least 2 and at most MaxUniverse; it is padded to the next
// power of two (visible via Universe()). Memory is Θ(universe).
//
// Every trie is a sharded table (internal/sharded). With no options it
// has one shard — the paper's single lock-free binary trie behind the
// table's occupancy counters; WithShards(k) partitions the universe
// across k independent tries, and WithAdaptiveShards puts the table
// behind the online resize layer.
func New(universe int64, opts ...Option) (*Trie, error) {
	if err := checkUniverse(universe); err != nil {
		return nil, err
	}
	cfg := config{shards: 1}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if err := cfg.validatePlacement(); err != nil {
		return nil, err
	}
	if err := cfg.validateObservability(); err != nil {
		return nil, err
	}
	// Observability is on by default.
	var o *obsState
	if !cfg.obsOff {
		o = newObsState(&cfg)
	}
	factory := cfg.shardedFactory(universe, o)
	t := &Trie{obs: o}
	if cfg.adaptiveShards {
		initial, err := cfg.resizeBounds()
		if err != nil {
			return nil, err
		}
		rz, err := resize.NewSet(initial, factory,
			resize.Config{MinShards: cfg.minShards, MaxShards: cfg.maxShards})
		if err != nil {
			return nil, fmt.Errorf("lockfreetrie: %w", err)
		}
		if o != nil {
			rz.SetEvents(o.ring)
		}
		t.set, t.rz = rz, rz
	} else {
		st, err := factory(cfg.shards)
		if err != nil {
			return nil, fmt.Errorf("lockfreetrie: %w", err)
		}
		t.set, t.table = st, st
	}
	// Durability wraps the assembled backend before anything reads it:
	// recovery seeds the unwrapped set (not re-logged), then the
	// write-ahead wrapper interposes on every later update.
	if cfg.dur != nil {
		if err := t.attachDurability(cfg.dur); err != nil {
			return nil, err
		}
	}
	if o != nil {
		t.registerObsGauges()
	}
	return t, nil
}

// live returns the authoritative sharded table: the one New built, or
// under WithAdaptiveShards the resize layer's current one, which a
// concurrent migration may retire right after the read (a retired table
// stays readable, which is all the accessors and gauges need).
func (t *Trie) live() *sharded.Trie {
	if t.rz != nil {
		return t.rz.Table()
	}
	return t.table
}

// PlacementHint returns a copy of the WithPlacementHint owners slice, or
// nil when the trie is unplaced.
func (t *Trie) PlacementHint() []int { return t.live().Placement() }

// Universe returns the padded universe size 2^⌈log₂ u⌉.
func (t *Trie) Universe() int64 { return t.set.U() }

// Shards returns the current shard count: the configured value (1 by
// default), or — under WithAdaptiveShards — the live count, which a
// concurrent migration may change right after the read.
func (t *Trie) Shards() int { return t.live().Shards() }

// AdaptiveShards reports whether WithAdaptiveShards was set.
func (t *Trie) AdaptiveShards() bool { return t.rz != nil }

// ResizeStats is a snapshot of the online shard-resize counters of a
// WithAdaptiveShards trie.
type ResizeStats struct {
	// Shards is the current shard count.
	Shards int
	// Grows and Shrinks count completed migrations by direction.
	Grows, Shrinks int64
	// Migrating reports whether a migration was in flight at the
	// snapshot.
	Migrating bool
}

// ResizeStats returns the online-resize counters. Without
// WithAdaptiveShards it is a static snapshot: the configured shard
// count and zero migrations.
func (t *Trie) ResizeStats() ResizeStats {
	if t.rz == nil {
		return ResizeStats{Shards: t.table.Shards()}
	}
	s := t.rz.Stats()
	return ResizeStats{Shards: s.Shards, Grows: s.Grows, Shrinks: s.Shrinks, Migrating: s.Migrating}
}

// Combining reports whether the trie has a combining layer (WithCombining
// or WithAdaptiveCombining).
func (t *Trie) Combining() bool { return t.live().Combining() }

// AdaptiveCombining reports whether WithAdaptiveCombining was set.
func (t *Trie) AdaptiveCombining() bool { return t.live().Adaptive() }

// AdaptiveStats returns the cumulative mode-transition counts summed over
// all shards: enables (direct→combining flips) and disables (the
// reverse). Zeros unless WithAdaptiveCombining was set.
func (t *Trie) AdaptiveStats() (enables, disables int64) {
	if t.rz != nil {
		return t.rz.AdaptiveStats()
	}
	return t.table.AdaptiveStats()
}

// Len returns the number of keys currently in the set. O(shards): it sums
// the per-shard occupancy summary.
//
// Consistency: Len is weakly consistent, like sync.Map's length-by-Range.
// Each winning update bumps a counter adjacent to — not atomic with — its
// linearization point, so a Len racing with updates may be off by the
// number of in-flight operations (it may also transiently over-count,
// since a shard's insert increments before the core operation and rolls
// back on a lost race). At any quiescent instant — no update in
// flight — Len is exactly |S|. Use Keys and count when an exact answer
// under concurrency is needed, or the versioned snapshot trie for an
// atomic view.
func (t *Trie) Len() int64 { return t.set.Len() }

func (t *Trie) check(x int64) error {
	if x < 0 || x >= t.set.U() {
		return &KeyRangeError{Key: x, Universe: t.set.U()}
	}
	return nil
}

// Contains reports whether x is in the set. O(1) worst-case steps.
//
// The primitive entrypoints (Contains, Insert, Delete, Predecessor,
// Successor, ApplyBatch) each pay one striped counter increment for the
// ops.* metrics, and every DefaultLatencySampling-th operation is timed
// into the latency.*_ns histograms; composed operations (Floor, Max, Range,
// Keys, …) run their legs through the backend directly and are not
// separately counted. WithoutObservability removes all of it.
func (t *Trie) Contains(x int64) (bool, error) {
	if err := t.check(x); err != nil {
		return false, err
	}
	if o := t.obs; o != nil && o.ops[opSearch].Inc(x)%o.every == 0 {
		start := time.Now()
		in := t.set.Search(x)
		o.lats[opSearch].Record(int64(time.Since(start)))
		return in, nil
	}
	return t.set.Search(x), nil
}

// Insert adds x to the set; inserting a present key is a no-op.
func (t *Trie) Insert(x int64) error {
	if err := t.check(x); err != nil {
		return err
	}
	if o := t.obs; o != nil && o.ops[opInsert].Inc(x)%o.every == 0 {
		start := time.Now()
		t.set.Insert(x)
		o.lats[opInsert].Record(int64(time.Since(start)))
		return nil
	}
	t.set.Insert(x)
	return nil
}

// Delete removes x from the set; deleting an absent key is a no-op.
func (t *Trie) Delete(x int64) error {
	if err := t.check(x); err != nil {
		return err
	}
	if o := t.obs; o != nil && o.ops[opDelete].Inc(x)%o.every == 0 {
		start := time.Now()
		t.set.Delete(x)
		o.lats[opDelete].Record(int64(time.Since(start)))
		return nil
	}
	t.set.Delete(x)
	return nil
}

// Predecessor returns the largest key in the set strictly smaller than y,
// or −1 if there is none. Linearizable with one shard (the default, whose
// owning shard answers every query); with more, see WithShards'
// consistency note for the cross-shard degraded case.
func (t *Trie) Predecessor(y int64) (int64, error) {
	if err := t.check(y); err != nil {
		return -1, err
	}
	if o := t.obs; o != nil && o.ops[opPredecessor].Inc(y)%o.every == 0 {
		start := time.Now()
		p := t.set.Predecessor(y)
		o.lats[opPredecessor].Record(int64(time.Since(start)))
		return p, nil
	}
	return t.set.Predecessor(y), nil
}

// Successor returns the smallest key in the set strictly greater than y,
// or −1 if there is none — the upward mirror of Predecessor. The paper's
// announcement machinery is one-directional (toward predecessors), so
// Successor is a composed operation with the Floor/Max/Range family's
// consistency contract: every leg it runs is individually linearizable,
// the composition is weakly consistent under concurrent updates on keys in
// (y, result), and at quiescence the answer is exact. With WithShards the
// owning shard answers directly when it can; otherwise higher shards are
// scanned through the occupancy summary with the same pending/version
// validation (and ScanRetries degradation bound) as the cross-shard
// Predecessor.
func (t *Trie) Successor(y int64) (int64, error) {
	if err := t.check(y); err != nil {
		return -1, err
	}
	if o := t.obs; o != nil && o.ops[opSuccessor].Inc(y)%o.every == 0 {
		start := time.Now()
		s := t.set.Successor(y)
		o.lats[opSuccessor].Record(int64(time.Since(start)))
		return s, nil
	}
	return t.set.Successor(y), nil
}

// Ceiling returns the smallest key ≥ x in the set, or −1 if there is none.
// Composed from Contains and Successor, mirroring Floor; linearizable when
// x is not being concurrently removed, weakly consistent otherwise.
func (t *Trie) Ceiling(x int64) (int64, error) {
	if err := t.check(x); err != nil {
		return -1, err
	}
	if t.set.Search(x) {
		return x, nil
	}
	return t.set.Successor(x), nil
}

// Min returns the smallest key in the set, or −1 if the set is empty,
// mirroring Max.
func (t *Trie) Min() (int64, error) {
	return t.Ceiling(0)
}

// Floor returns the largest key ≤ x in the set, or −1 if there is none.
// Composed from Contains and Predecessor; each leg is linearizable, and the
// composition is linearizable when x is not being concurrently removed.
func (t *Trie) Floor(x int64) (int64, error) {
	if err := t.check(x); err != nil {
		return -1, err
	}
	if t.set.Search(x) {
		return x, nil
	}
	return t.set.Predecessor(x), nil
}

// Max returns the largest key in the set, or −1 if the set is empty.
func (t *Trie) Max() (int64, error) {
	return t.Floor(t.set.U() - 1)
}

// Range calls fn on every key in [lo, hi], from the largest down to the
// smallest, stopping early if fn returns false. It is built from
// linearizable Floor/Predecessor steps, so each visited key was present at
// some instant during the scan, but the scan as a whole is weakly
// consistent (like sync.Map.Range): keys inserted or deleted mid-scan may
// or may not be visited. For an atomic snapshot use the versioned trie in
// internal/versioned.
func (t *Trie) Range(lo, hi int64, fn func(key int64) bool) error {
	if err := t.check(lo); err != nil {
		return err
	}
	if err := t.check(hi); err != nil {
		return err
	}
	k, err := t.Floor(hi)
	if err != nil {
		return err
	}
	for k >= lo && k >= 0 {
		if !fn(k) {
			return nil
		}
		if k == 0 {
			return nil
		}
		k = t.set.Predecessor(k)
	}
	return nil
}

// OpKind discriminates the update kinds ApplyBatch accepts.
type OpKind uint8

const (
	// OpInsert adds the key to the set.
	OpInsert OpKind = iota + 1
	// OpDelete removes the key from the set.
	OpDelete
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "Insert"
	case OpDelete:
		return "Delete"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one operation of an ApplyBatch call.
type Op struct {
	Kind OpKind
	Key  int64
}

// ApplyBatch applies a sequence of updates as one batch, for callers that
// already aggregate their writes (an order-book matching cycle, a
// telemetry window flush): the batch pays one announcement pass per
// shard-run instead of one per operation, with or without WithCombining —
// the option only changes how ordinary Insert/Delete calls find their
// batches; pre-batched callers skip the publication slots entirely.
//
// Semantics: ops apply by their FINAL effect per key — for each key, the
// last op in ops wins, exactly as if the sequence had run in order with
// the intermediate states unobserved (the batch's per-key linearization
// points are its update-node activations inside the single announcement
// round; see DESIGN.md §Combining layer). Each surviving op linearizes
// individually, so a batch is NOT an atomic multi-key transaction:
// concurrent readers may observe any prefix-consistent mixture. Invalid
// ops (key out of range, unknown kind) are skipped and reported.
//
// The returned slice is nil when every op was accepted; otherwise it has
// len(ops) entries with errs[i] describing why ops[i] was rejected (nil
// for accepted ops).
func (t *Trie) ApplyBatch(ops []Op) []error {
	if len(ops) == 0 {
		return nil
	}
	var errs []error
	fail := func(i int, err error) {
		if errs == nil {
			errs = make([]error, len(ops))
		}
		errs[i] = err
	}
	// The translated batch lives only for the duration of the call, so
	// the buffer is pooled: a steady batching caller (the server's sweep
	// loop) would otherwise allocate a batch-sized slice per sweep.
	scratch := bopsPool.Get().(*bopsScratch)
	bops := scratch.ops[:0]
	for i, op := range ops {
		if op.Kind != OpInsert && op.Kind != OpDelete {
			fail(i, fmt.Errorf("lockfreetrie: ApplyBatch op %d: invalid kind %v", i, op.Kind))
			continue
		}
		if err := t.check(op.Key); err != nil {
			fail(i, err)
			continue
		}
		bops = append(bops, core.BatchOp{Key: op.Key, Del: op.Kind == OpDelete})
	}
	if len(bops) > 0 {
		if o := t.obs; o != nil && o.ops[opApplyBatch].Inc(bops[0].Key)%o.every == 0 {
			start := time.Now()
			t.set.ApplyBatch(combine.SortDedup(bops))
			o.lats[opApplyBatch].Record(int64(time.Since(start)))
		} else {
			t.set.ApplyBatch(combine.SortDedup(bops))
		}
	}
	scratch.ops = bops
	bopsPool.Put(scratch)
	return errs
}

// bopsScratch pools ApplyBatch's translated-op buffers.
type bopsScratch struct{ ops []core.BatchOp }

var bopsPool = sync.Pool{New: func() any { return new(bopsScratch) }}

// Keys returns the keys in [lo, hi] in ascending order under the same
// weak-consistency contract as Range.
func (t *Trie) Keys(lo, hi int64) ([]int64, error) {
	var out []int64
	err := t.Range(lo, hi, func(k int64) bool {
		out = append(out, k)
		return true
	})
	if err != nil {
		return nil, err
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out, nil
}
