// Package resize re-partitions a live sharded trie from k to k′ shards
// without blocking readers: a coordinator builds the new partition in
// private, journals concurrent updates through per-shard dirty bitmaps,
// and hands authority over in one epoch flip (DESIGN.md §Shard
// resize).
//
// # Epochs
//
// The routing state is a single atomic pointer to an immutable epoch
// object; every phase change installs a NEW epoch, so an operation that
// loaded an epoch observes one consistent phase for its whole lifetime
// and pointer identity doubles as the validation token. An epoch carries
// the authoritative table (cur), the under-construction table (next,
// migration phases only), per-shard entry gates, and — in the journal
// phase — per-shard dirty bitmaps.
//
// Updates follow acquire-validate: load the epoch, increment the owning
// shard's gate, re-load the epoch, and retreat if it moved. A successful
// validation pins the epoch: the coordinator's drain of that epoch's
// gates cannot complete until the operation releases, so every admitted
// operation runs to completion inside the epoch it read. Readers never
// gate — the authoritative table is always safe to read (see below).
//
// # Migration protocol
//
//		stable(A)  → journal(A, dirty) → [journal generations…] → sealed(A→B) → stable(B)
//
//	 1. Install a journal epoch. Updates still apply to the OLD table A —
//	    A stays the single source of truth throughout — but first mark
//	    their key in the owning old shard's dirty bitmap.
//	 2. Drain the stable epoch's gates: pre-journal stragglers (which
//	    write A without journaling) finish before the copy starts.
//	 3. Bulk-copy A into the private new table B by scanning A live. The
//	    scan races with journal-phase updates, but any key whose A-state
//	    changes after the journal epoch was installed is in a dirty bitmap
//	    BEFORE the change lands (journal-before-apply), so the scan only
//	    needs to be correct for untouched keys — and for those, every
//	    per-key probe is exact. The dirty set absorbs all scan races.
//	 4. Catch-up generations: install a fresh journal epoch, drain the
//	    previous one (freezing its dirty bitmaps), and replay each frozen
//	    dirty key x as B[x] ← A[x]. Keys racing the replay are dirty in
//	    the newer generation and get replayed again.
//	 5. Seal: install the sealed epoch (new updates spin until activation;
//	    readers keep reading A), drain the last journal generation — every
//	    update that landed in the retiring epoch now runs its ordinary
//	    lock-free protocol in A to completion — then replay the final
//	    frozen dirty set. B now equals A exactly.
//	 6. Activate: install the stable epoch with cur = B. The flip is the
//	    linearization boundary: reads that loaded an older epoch return
//	    A's frozen content, which equals B's content at the flip instant,
//	    so they linearize immediately before it.
//
// # Progress
//
// Readers never block in any phase: the authoritative table is live
// (stable/journal), or frozen-but-valid (sealed and retired — a frozen
// A equals B at the flip, so a straggling read linearizes at the flip,
// inside its own invocation window). Updates are lock-free in the
// stable and journal phases; only updates arriving inside the sealed
// window wait, for the in-flight retiring-epoch updates plus one
// bounded dirty replay — the same bounded-handoff trade the combining
// layer already makes for claimed operations (DESIGN.md §Shard resize
// has the full argument).
package resize

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/atomicx"
	"repro/internal/bitmap"
	"repro/internal/obs"
	"repro/internal/sharded"
)

// Stage identifies a point of the migration protocol, for the test hook.
type Stage int

// Migration stages, in protocol order.
const (
	// StageJournal: the journal epoch is installed; updates now journal.
	StageJournal Stage = iota
	// StageDrained: pre-journal stragglers have finished.
	StageDrained
	// StageCopied: the bulk copy of the old table into the new one is done.
	StageCopied
	// StageCatchup: one catch-up generation has been replayed.
	StageCatchup
	// StageSealed: the sealed epoch is installed; new updates wait.
	StageSealed
	// StageReplayed: the final dirty replay is done; old ≡ new.
	StageReplayed
	// StageActivated: the new table is authoritative; migration complete.
	StageActivated
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageJournal:
		return "journal"
	case StageDrained:
		return "drained"
	case StageCopied:
		return "copied"
	case StageCatchup:
		return "catchup"
	case StageSealed:
		return "sealed"
	case StageReplayed:
		return "replayed"
	case StageActivated:
		return "activated"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// testHookMigration, when non-nil, runs on the coordinator goroutine at
// every stage boundary. The resize-aware suites use it to park a
// migration mid-protocol and land operations at exact stages. Install
// before concurrent use and remove after quiescence, like
// combine.SetTestHookMidRound.
var testHookMigration func(Stage)

// SetTestHookMigration installs f (nil removes it). Test-only.
func SetTestHookMigration(f func(Stage)) { testHookMigration = f }

func hook(s Stage) {
	if h := testHookMigration; h != nil {
		h(s)
	}
}

// Migration phases. The phase is a plain field: immutable per epoch
// object, so no atomics are needed to read it.
const (
	phaseStable = iota
	phaseJournal
	phaseSealed
)

// epoch is one immutable generation of the routing state.
type epoch struct {
	phase int
	// cur is the authoritative table every operation applies to and
	// every query reads. During journal/sealed phases this is the OLD
	// (retiring) table.
	cur *sharded.Trie
	// next is the under-construction table (nil outside migrations).
	// Private to the coordinator until activation.
	next *sharded.Trie
	// dirty journals the keys updated during this journal-phase
	// generation, one bitmap per cur shard (nil outside the journal
	// phase): one bit per shard-local key, marked with a single atomic OR
	// (bitmap.Words — the same summary-word helpers behind the bitstrie
	// descent compression). Updates set their key's bit BEFORE applying,
	// so at any instant dirty covers every key whose cur-state changed
	// since the generation was installed. Only the coordinator ever reads
	// the bits (after draining the generation's writers), so the journal
	// needs no per-key versioning — membership at replay time is re-read
	// from cur.
	dirty []bitmap.Words
	// gates admit updates, one padded counter per cur shard. A drained
	// epoch (all gates observed zero after a successor epoch was
	// installed) can never regain a writer: late acquirers fail the
	// pointer validation and retreat.
	gates []atomicx.PadInt64
	// width and shardBits cache cur's geometry for gate/dirty indexing.
	width     int64
	shardBits uint
	// carryEnables/carryDisables accumulate the adaptive-combining
	// transition counters of every RETIRED table (immutable per epoch;
	// the activation epoch folds the newly retired table in). Riding on
	// the epoch object makes the fold atomic with the flip, so
	// AdaptiveStats can never observe the retiring table both in the
	// base and live (it reads one epoch: either cur == old with the old
	// base, or cur == new with the folded base).
	carryEnables, carryDisables int64
	// help is the sealed epoch's shared replay state (nil in every other
	// phase): updates that arrive inside the sealed window claim dirty
	// words from it and replay them instead of burning their wait on
	// Gosched — the seal drains faster the more writers it parks.
	help *helpState
}

// helpState coordinates the final dirty replay between the migration
// coordinator and the sealed-window updates helping it. The dirty words
// of the last journal generation form a flat work list (shard-major, one
// bitmap word per unit); workers claim words with one atomic fetch-add,
// so each word — and therefore each key — is replayed by exactly one
// goroutine. Replay is pure state transfer (next[x] ← cur[x] on a frozen
// cur), so helpers need no further synchronization with each other or
// with the coordinator beyond the claim.
type helpState struct {
	// ready gates helpers out until the generation's writers are
	// drained: before that, cur is still changing and a replayed word
	// could transfer a value the frozen-replay argument does not cover.
	ready         atomic.Bool
	cursor        atomic.Int64 // next work-list word to claim
	done          atomic.Int64 // words fully replayed
	total         int64        // work-list length (shards × words per shard)
	dirty         []bitmap.Words
	cur           *sharded.Trie // frozen retiring table (authoritative values)
	next          *sharded.Trie // under-construction table being completed
	wordsPerShard int64
	shardBits     uint
}

// shardOf returns the cur-shard index owning global key x.
func (e *epoch) shardOf(x int64) int { return int(x >> e.shardBits) }

// Stats is a snapshot of a Set's lifetime counters.
type Stats struct {
	// Shards is the current (authoritative) shard count.
	Shards int
	// Grows and Shrinks count completed migrations by direction.
	Grows, Shrinks int64
	// Migrating reports whether a migration is in flight.
	Migrating bool
}

// Set is the resizable linearizable sharded trie: a *sharded.Trie whose
// shard count migrates at runtime behind the epoch protocol of this
// package — the epoch pointer, the migration coordinator and the
// decision sampling. Create with NewSet; all methods are safe for
// concurrent use.
type Set struct {
	u int64
	// factory builds a table at a given shard count, carrying whatever
	// combining/adaptive configuration the caller composed into it; it
	// is re-invoked on every migration.
	factory func(k int) (*sharded.Trie, error)

	epoch    atomic.Pointer[epoch]
	resizing atomic.Bool

	dec *Decider
	// ticks stripes the sample-cadence counter by key so the hot path
	// never touches a shared line — a single global counter here would
	// reintroduce exactly the all-ops contention point the sharded
	// layer exists to remove. Each stripe fires after SampleEvery of
	// ITS ops; with tickStripes stripes sharing the traffic, some
	// stripe fires roughly every SampleEvery global ops.
	ticks    [tickStripes]atomicx.PadInt64
	sampling atomic.Uint32

	grows, shrinks atomicx.PadInt64
	// assists counts keys replayed by sealed-window helpers (monitoring;
	// the helper-seal stress test asserts it moves).
	assists atomicx.PadInt64

	// events, when non-nil, receives migration trace events (set once via
	// SetEvents, before concurrent use): one KindResizeGrow/KindResizeShrink
	// per completed migration carrying the k→k′ transition and per-stage
	// durations, and one KindSealAssist per helper-claimed dirty word that
	// replayed keys. Migrations are rare and seal windows short, so none of
	// this rides a steady-state path.
	events *obs.Ring
}

// SetEvents routes migration trace events to ring. Install before
// concurrent use (the field is plain).
func (s *Set) SetEvents(ring *obs.Ring) { s.events = ring }

// newEpoch builds a generation around cur in the given phase; the
// journal phase gets fresh dirty bitmaps.
func newEpoch(phase int, cur, next *sharded.Trie) *epoch {
	k := cur.Shards()
	width := cur.U() / int64(k)
	e := &epoch{
		phase:     phase,
		cur:       cur,
		next:      next,
		gates:     make([]atomicx.PadInt64, k),
		width:     width,
		shardBits: uint(bits.Len64(uint64(width)) - 1),
	}
	if phase == phaseJournal {
		e.dirty = make([]bitmap.Words, k)
		for i := range e.dirty {
			e.dirty[i] = bitmap.NewWords(width)
		}
	}
	return e
}

// NewSet wraps factory(initial) in the resize machinery. factory builds
// a table at a given shard count, carrying whatever combining/adaptive
// configuration the caller composes into the closure; it is re-invoked
// on every migration. cfg configures the decision layer — pass the zero
// Config for a manually driven set (Resize only).
func NewSet(initial int, factory func(k int) (*sharded.Trie, error), cfg Config) (*Set, error) {
	t, err := factory(initial)
	if err != nil {
		return nil, err
	}
	s := &Set{u: t.U(), factory: factory}
	s.epoch.Store(newEpoch(phaseStable, t, nil))
	if cfg != (Config{}) {
		c := cfg.withDefaults()
		// The geometry bound: a shard must span at least two keys.
		if maxK := int(s.u / 2); c.MaxShards > maxK {
			c.MaxShards = maxK
		}
		if c.MinShards > c.MaxShards {
			return nil, fmt.Errorf("resize: MinShards %d exceeds MaxShards %d (universe %d)",
				c.MinShards, c.MaxShards, s.u)
		}
		s.dec = NewDecider(c)
	}
	return s, nil
}

// Table returns the authoritative table every query reads. The returned
// trie may be retired by a concurrent migration; it stays readable
// forever but writes to it bypass the journal, so callers must only
// read.
func (s *Set) Table() *sharded.Trie { return s.epoch.Load().cur }

// Shards returns the current authoritative shard count.
func (s *Set) Shards() int { return s.Table().Shards() }

// U returns the padded universe size.
func (s *Set) U() int64 { return s.u }

// Len returns the authoritative table's weakly-consistent cardinality
// estimate (exact at quiescence). A migration in flight changes nothing:
// the under-construction table is never consulted.
func (s *Set) Len() int64 { return s.Table().Len() }

// Search reports membership of x; one epoch load plus the authoritative
// table's Search. Readers never gate and never block, in any phase.
func (s *Set) Search(x int64) bool { return s.Table().Search(x) }

// Stats returns the resize counters.
func (s *Set) Stats() Stats {
	return Stats{
		Shards:    s.Shards(),
		Grows:     s.grows.Load(),
		Shrinks:   s.shrinks.Load(),
		Migrating: s.resizing.Load(),
	}
}

// AdaptiveStats sums the adaptive-combining transition counters across
// the live table and every retired one (zeros unless the factory builds
// adaptive tables).
func (s *Set) AdaptiveStats() (enables, disables int64) {
	ep := s.epoch.Load()
	e, d := ep.cur.AdaptiveStats()
	return ep.carryEnables + e, ep.carryDisables + d
}

// enter admits an update on key x: acquire the owning shard's gate in
// the current epoch and validate the epoch did not move. Updates
// arriving inside a sealed window help drain it — they claim dirty words
// from the final replay's work list and replay them — and only yield
// when there is no work left to claim (replay not yet ready, or all
// words taken and the activation flip pending).
func (s *Set) enter(x int64) (*epoch, int) {
	for {
		e := s.epoch.Load()
		if e.phase == phaseSealed {
			// The seal window is bounded: in-flight retiring-epoch
			// updates plus one frozen dirty replay (see package comment)
			// — and helping shrinks the replay term instead of just
			// waiting it out.
			if h := e.help; h == nil || !h.ready.Load() || s.helpReplay(h, true) == 0 {
				runtime.Gosched()
			}
			continue
		}
		gi := e.shardOf(x)
		e.gates[gi].Add(1)
		if s.epoch.Load() == e {
			return e, gi
		}
		e.gates[gi].Add(-1)
	}
}

// drain blocks until every gate of e has been observed zero. Because any
// acquire completing after its gate was observed zero necessarily also
// validates after the successor epoch was installed — and retreats — a
// fully drained epoch never regains a writer.
//
// Latency: drain completes when the epoch's in-flight updates do, so a
// migration inherits the underlying trie's PER-OP latency tail, which
// the paper bounds only amortized (O(ċ² + log u)): an adversarial
// schedule — same-range update pairs back-to-back from every processor
// of a saturated single-P host — measured an individual bare-trie
// delete at 25s while system throughput stayed at millions of ops/s.
// Safety is unaffected (operations keep flowing through the successor
// epoch the whole time, and the coordinator just waits), but test
// drivers that block on Resize while churning unyieldingly reproduce
// exactly that schedule; see the yield note in the resize test suites.
func (s *Set) drain(e *epoch) {
	for i := range e.gates {
		for e.gates[i].Load() != 0 {
			runtime.Gosched()
		}
	}
}

// replay forces next[x] ← old[x] for every key journaled in the FROZEN
// generation e (its writers drained). Pure state transfer: idempotent,
// safe to repeat, and next is still private, so no interleaving can
// lose or duplicate an operation.
func (s *Set) replay(e *epoch, next *sharded.Trie) {
	for i := range e.dirty {
		base := int64(i) << e.shardBits
		e.dirty[i].ForEachSet(func(lx int64) {
			x := base | lx
			if e.cur.Search(x) {
				next.Insert(x)
			} else {
				next.Delete(x)
			}
		})
	}
}

// newHelpState builds the sealed replay's shared work list over journal
// generation ej's dirty bitmaps. All shards share one width, so the flat
// word index w decomposes as (shard, word) = (w / wordsPerShard, w mod
// wordsPerShard).
func newHelpState(ej *epoch, next *sharded.Trie) *helpState {
	wps := bitmap.WordsFor(ej.width)
	return &helpState{
		total:         int64(len(ej.dirty)) * wps,
		dirty:         ej.dirty,
		cur:           ej.cur,
		next:          next,
		wordsPerShard: wps,
		shardBits:     ej.shardBits,
	}
}

// helpReplay claims dirty words from h's work list and replays each
// claimed word's keys as next[x] ← cur[x], returning how many words it
// claimed. Safe for any number of concurrent workers: the fetch-add
// hands each word to exactly one of them, cur is frozen (the generation
// was drained before ready was set), and next's updates are themselves
// concurrency-safe — so the coordinator and every helper replay disjoint
// key sets of a table built for concurrent writers. helper distinguishes
// sealed-window updates (counted in assists, never yielding — their goal
// is to leave the window as fast as possible) from the coordinator
// (which yields once per claimed word so parked updates get scheduled
// and can start helping at all on a saturated host).
func (s *Set) helpReplay(h *helpState, helper bool) int {
	claimed := 0
	for {
		w := h.cursor.Add(1) - 1
		if w >= h.total {
			return claimed
		}
		claimed++
		si := w / h.wordsPerShard
		wi := w % h.wordsPerShard
		word := h.dirty[si].Load(wi)
		base := si<<h.shardBits | wi*bitmap.WordBits
		var keys int64
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			x := base + int64(b)
			if h.cur.Search(x) {
				h.next.Insert(x)
			} else {
				h.next.Delete(x)
			}
			keys++
		}
		if helper && keys > 0 {
			s.assists.Add(keys)
			s.events.Publish(obs.KindSealAssist, int32(si), keys)
		}
		h.done.Add(1)
		if !helper {
			runtime.Gosched()
		}
	}
}

// SealAssists returns the cumulative count of keys replayed by
// sealed-window helpers (monitoring; zero when every seal was drained by
// the coordinator alone).
func (s *Set) SealAssists() int64 { return s.assists.Load() }

// dirtySizes returns a generation's per-shard journaled key counts (the
// CatchupTracker's observation).
func (e *epoch) dirtySizes() []int64 {
	s := make([]int64, len(e.dirty))
	for i := range e.dirty {
		s[i] = e.dirty[i].PopCount()
	}
	return s
}

// ErrBusy is returned by Resize when a migration is already in flight.
var ErrBusy = fmt.Errorf("resize: migration already in flight")

// Resize re-partitions the set to target shards, synchronously running
// the full migration protocol. It returns ErrBusy when a migration is
// already in flight and validates target against the table factory's
// own geometry rules. Safe to call from any goroutine; ops continue
// concurrently throughout.
func (s *Set) Resize(target int) error {
	if !s.resizing.CompareAndSwap(false, true) {
		return ErrBusy
	}
	defer s.resizing.Store(false)
	return s.migrate(target)
}

// migrate runs the protocol of the package comment. Caller holds the
// resizing flag, which serializes coordinators — epoch installs are
// plain stores.
func (s *Set) migrate(target int) error {
	// Stage clock for the migration trace event: mark() returns the
	// nanoseconds since the previous mark, so the six readings below are
	// exactly the per-stage durations the event carries.
	stageStart := time.Now()
	mark := func() int64 {
		now := time.Now()
		d := now.Sub(stageStart)
		stageStart = now
		return int64(d)
	}
	e0 := s.epoch.Load()
	old := e0.cur
	from := old.Shards()
	next, err := s.factory(target)
	if err != nil {
		return fmt.Errorf("resize: building %d-shard table: %w", target, err)
	}
	// 1–2: journal, then drain the pre-journal stragglers.
	ej := newEpoch(phaseJournal, old, next)
	ej.carryEnables, ej.carryDisables = e0.carryEnables, e0.carryDisables
	s.epoch.Store(ej)
	hook(StageJournal)
	s.drain(e0)
	hook(StageDrained)
	dJournal := mark()
	// 3: bulk copy (next is private; the dirty journal absorbs races),
	// batched through the table's batch entrypoint.
	buf := make([]int64, 0, bulkRun)
	scan(old, func(key int64) {
		if buf = append(buf, key); len(buf) == bulkRun {
			bulkLoad(next, buf)
			buf = buf[:0]
		}
	})
	if len(buf) > 0 {
		bulkLoad(next, buf)
	}
	hook(StageCopied)
	dCopy := mark()
	// 4: catch-up generations shrink the sealed window's replay — but
	// only while they are actually shrinking it. A catch-up replays at
	// CONTENDED speed (the journal writers keep the processors), so on a
	// churn-dominated workload whose hot set re-dirties as fast as it is
	// replayed, rounds cost hundreds of milliseconds and converge to
	// nothing — while the sealed replay below runs nearly uncontended
	// (arriving writers yield their slices to the coordinator) and
	// measures ~1µs/key. The CatchupTracker watches the per-shard journal
	// sizes between rounds and skips to seal as soon as the loop stops
	// paying: journal trivially small, total no longer halving, or the
	// remainder concentrated in churn-heavy shards that re-dirty as fast
	// as they replay.
	ct := NewCatchupTracker(CatchupConfig{})
	for ct.Observe(ej.dirtySizes()) == CatchupContinue {
		eNext := newEpoch(phaseJournal, old, next)
		eNext.carryEnables, eNext.carryDisables = e0.carryEnables, e0.carryDisables
		s.epoch.Store(eNext)
		s.drain(ej)
		s.replay(ej, next)
		ej = eNext
		hook(StageCatchup)
	}
	dCatchup := mark()
	// 5: seal, drain the last generation, final replay. After this,
	// next equals old exactly and old is frozen. The replay is shared
	// work: updates parked in the sealed window claim dirty words
	// alongside the coordinator (see helpReplay), so the window shrinks
	// with the number of waiters instead of growing with them.
	es := newEpoch(phaseSealed, old, next)
	es.carryEnables, es.carryDisables = e0.carryEnables, e0.carryDisables
	es.help = newHelpState(ej, next)
	s.epoch.Store(es)
	hook(StageSealed)
	s.drain(ej)
	dSeal := mark()
	// Only now is cur frozen; open the work list to helpers and join the
	// replay. The coordinator claiming alongside them guarantees progress
	// even if every parked update is descheduled.
	es.help.ready.Store(true)
	s.helpReplay(es.help, false)
	for es.help.done.Load() != es.help.total {
		runtime.Gosched() // helpers hold unfinished words; let them run
	}
	hook(StageReplayed)
	dReplay := mark()
	// 6: activate.
	ea := newEpoch(phaseStable, next, nil)
	// Fold the retiring table's transition counters into the (still
	// private) activation epoch: the fold becomes visible atomically
	// with the flip, so AdaptiveStats never sees the old table both as
	// the live table and in the base.
	en, dis := old.AdaptiveStats()
	ea.carryEnables, ea.carryDisables = e0.carryEnables+en, e0.carryDisables+dis
	s.epoch.Store(ea)
	if target > from {
		s.grows.Add(1)
	} else if target < from {
		s.shrinks.Add(1)
	}
	hook(StageActivated)
	if s.events != nil {
		kind := obs.KindResizeGrow
		if target < from {
			kind = obs.KindResizeShrink
		}
		// Shard −1: the migration belongs to the whole set, not one shard.
		s.events.Publish(kind, -1,
			int64(from), int64(target), dJournal, dCopy, dCatchup, dSeal, dReplay, mark())
	}
	// Fairness on saturated hosts: updates that waited out the sealed
	// window donated their scheduler slices to this coordinator, so a
	// caller issuing back-to-back migrations would re-seal before they
	// ever ran (measured as a live-starvation loop on a single-P host:
	// the coordinator held ~100% of the processor across tens of
	// thousands of consecutive migrations). Yield once so they land.
	runtime.Gosched()
	return nil
}

// bulkRun sizes the migration copy batches. (Catch-up tuning lives in
// CatchupConfig; see decide.go.)
const bulkRun = 64

// tickStripes is the number of padded stripes of the sample counter;
// sixteen bounds the worst-case cadence dilation (a workload hammering
// one stripe samples every 16·SampleEvery ops) while keeping the array
// at one KiB.
const tickStripes = 16

// tick drives the decision layer: roughly every SampleEvery updates,
// one sampler reads the contention signal and feeds the Decider; a
// grow or shrink verdict launches an asynchronous migration. The
// counter is striped by a multiplicative hash of the key (padded
// stripes), so this per-op bump stays off shared cache lines.
func (s *Set) tick(x int64) {
	if s.dec == nil {
		return
	}
	stripe := (uint64(x) * 0x9E3779B97F4A7C15) >> 60
	if s.ticks[stripe].Add(1)%s.dec.cfg.SampleEvery != 0 {
		return
	}
	if !s.sampling.CompareAndSwap(0, 1) {
		return
	}
	defer s.sampling.Store(0)
	e := s.epoch.Load()
	if e.phase != phaseStable || s.resizing.Load() {
		return // decisions wait out an in-flight migration
	}
	// The contention estimate: the busiest shard's concurrent
	// publishers — gate occupancy (in-flight updates) and
	// announcement-list length — plus one for the sampling operation
	// itself.
	peers := announcedPeers(e.cur)
	for i := range e.gates {
		if g := e.gates[i].Load(); g > peers {
			peers = g
		}
	}
	target, ok := s.dec.Step(Signal{
		Peers:     float64(peers) + 1,
		Shards:    e.cur.Shards(),
		Occupancy: e.cur.Len(),
	})
	if ok && s.resizing.CompareAndSwap(false, true) {
		go func() {
			defer s.resizing.Store(false)
			// A factory error here has no caller to report to; the
			// decider simply retries on a later sample. Geometry is
			// pre-clamped, so the only failures are allocation-class.
			_ = s.migrate(target)
		}()
	}
}
