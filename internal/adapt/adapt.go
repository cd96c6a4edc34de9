// Package adapt is the per-shard adaptive controller that decides, at
// runtime, whether a shard's updates should publish through the
// flat-combining layer (internal/combine) or run the direct per-op path.
// PR 3 measured both regimes: combining wins 1.3–2.1× when publishers
// cluster on a shard (average drained batch 6.8–16 ops on this host's cb1
// sweep) and costs 0.65–0.9× when they spread thin (batches degenerate to
// size 1 and the publication handoff is pure overhead). Which regime a
// shard is in is a property of the workload, not the construction site, so
// the controller samples cheap per-shard signals and flips an atomic mode
// word the publication path reads on every operation.
//
// # Signals
//
// The controller reduces its raw inputs to ONE contention estimate: the
// batch size a combining round would drain right now.
//
//   - In combining mode the estimate is observed directly: the EWMA of
//     ops-drained-per-round (Sample.Batched / Sample.Rounds deltas), the
//     exact quantity the cb1 experiment showed separating the win and
//     loss regimes (≥ 6.8 clustered, ~1 thin).
//   - In direct mode no rounds run, so the estimate is inferred: the
//     number of concurrent publishers visible at the sample instant —
//     max(announcement-list length, in-flight updates) + 1 for the
//     sampling operation itself. Each announced or in-flight peer is an
//     op a round would have drained.
//
// Two auxiliary signals guard the flip decisions: the combiner-election
// CAS-failure rate (failed elections prove publishers are clustering even
// while measured batches are small, e.g. immediately after enabling) and
// the retraction rate (submissions that outwaited a busy combiner and
// escaped to the direct path — direct evidence the handoff is hurting).
//
// # Hysteresis and dwell
//
// The mode flips up when the estimate's EWMA reaches Enable and down when
// it falls to Disable, with Enable > Disable so an estimate wandering
// inside the band flips nothing. A flip also requires MinDwell samples in
// the current mode, so a workload oscillating faster than the sampling
// cadence settles into whichever mode it entered instead of thrashing
// through the (costly, cache-cold) transitions.
//
// # Safety across flips
//
// The mode word is advisory routing, not synchronization: every op still
// applies through the combine-layer slot protocol or the core per-op
// path, both of which are safe concurrently against each other (a
// retraction already runs the per-op path while a round is in flight).
// Flipping the word mid-operation therefore strands nothing — see
// DESIGN.md §Adaptive combining for the disable-drain argument.
package adapt

import (
	"sync/atomic"
	"time"

	"repro/internal/atomicx"
	"repro/internal/obs"
)

// Default thresholds, tuned from the cb1/ad1 trajectories
// (BENCH_combine.json, BENCH_adaptive.json): clustered workloads drain
// 6.8–16 ops per round and park 8+ concurrent publishers per shard, while
// thin-spread shards see 0–3-peer preemption bursts. The enable side is
// deliberately conservative — a FALSE enable is expensive to detect on a
// single-P host, because once combining starts, the publication waiting
// itself inflates observed batch sizes (the ad1 probe measured 12-op
// "batches" on a thin-spread shard that combining was slowing down), so
// the batch-size disable cannot be relied on to undo a bad enable there.
const (
	// DefaultSampleEvery is the publication-op cadence between signal
	// samples. 128 keeps the sampling cost (two counter snapshots and an
	// O(announced) list length read) under 1% of ops while still taking
	// hundreds of samples over a benchmark-scale run.
	DefaultSampleEvery = 128
	// DefaultAlpha is the EWMA weight of the newest observation; 0.4
	// needs several consecutive high readings before a flip, so a lone
	// preemption burst on a thin shard (one sample of 2–3 visible peers)
	// cannot enable on its own.
	DefaultAlpha = 0.4
	// DefaultEnable is the contention estimate at which a direct-mode
	// shard enables combining: a SUSTAINED ~3+ concurrent publishers
	// (estimate ≥ 4) is unambiguous clustering — cb1's win regime parks
	// 8–16 — while thin-spread preemption noise stays well below it.
	DefaultEnable = 4.0
	// DefaultDisable is the batch-size EWMA at which a combining shard
	// gives up: below 1.4 ops per round the handoff amortizes nothing
	// (cb1's loss regime), while real clustering measures ≥ 6.8.
	DefaultDisable = 1.4
	// DefaultRetractDisable is the retraction-rate disable trigger: when
	// half the would-be-combined submissions outwait the spin budget and
	// escape, the slots are a queue in front of a path ops end up taking
	// anyway.
	DefaultRetractDisable = 0.5
	// DefaultMinDwell is the minimum samples between flips; 4 samples at
	// the default cadence is ~512 ops of dwell per shard.
	DefaultMinDwell = 4
	// DefaultThroughputEnable is the secondary-enable collapse factor: a
	// direct-mode shard whose measured ops/sec EWMA has fallen to half of
	// the best throughput it achieved in direct mode is being slowed by
	// something the peer-count estimate can miss (cache-line contention
	// between publishers on different Ps shows up as latency, not as
	// announcement-list length). Half is far outside run-to-run noise on
	// the ad1/cb1 sweeps (≤ 10%), so the signal cannot fire on jitter.
	DefaultThroughputEnable = 0.5
)

// Config sets the controller's thresholds. The zero value of any field
// selects its default, so Config{} is the tuned configuration.
type Config struct {
	// SampleEvery is the number of publication ops between signal samples.
	SampleEvery int64
	// Alpha is the EWMA weight of the newest observation, in (0, 1].
	Alpha float64
	// Enable is the contention-estimate EWMA at or above which a
	// direct-mode shard switches to combining.
	Enable float64
	// Disable is the estimate at or below which a combining shard
	// switches back to direct. Must stay below Enable; the gap is the
	// hysteresis band. An inverted band (Disable ≥ Enable, possible when
	// only Enable is set and falls under the default Disable) is clamped
	// to Disable = Enable/2 so hysteresis always exists. The public
	// facade exposes no tuning (WithAdaptiveCombining always runs the
	// defaults), so only internal callers and tests can reach the clamp.
	Disable float64
	// RetractDisable is the retraction-rate (retracted / submitted)
	// threshold that disables combining regardless of the batch EWMA.
	RetractDisable float64
	// MinDwell is the minimum number of samples a shard stays in a mode
	// before the controller may flip it again.
	MinDwell int64
	// ThroughputEnable is the secondary-enable factor: a direct-mode
	// shard enables combining when its ops/sec EWMA falls to this
	// fraction of its best direct-mode throughput AND the contention
	// estimate shows concurrent publishers (above the Disable floor).
	// The signal only fires when samples carry Ops/Nanos readings — a
	// reader that leaves them zero keeps the controller on the
	// peer-count estimate alone.
	ThroughputEnable float64
	// StartCombining selects the initial mode (default: direct).
	StartCombining bool
}

// withDefaults fills zero fields with the tuned defaults.
func (c Config) withDefaults() Config {
	if c.SampleEvery <= 0 {
		c.SampleEvery = DefaultSampleEvery
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = DefaultAlpha
	}
	if c.Enable <= 0 {
		c.Enable = DefaultEnable
	}
	if c.Disable <= 0 {
		c.Disable = DefaultDisable
	}
	if c.Disable >= c.Enable {
		c.Disable = c.Enable / 2
	}
	if c.RetractDisable <= 0 {
		c.RetractDisable = DefaultRetractDisable
	}
	if c.MinDwell <= 0 {
		c.MinDwell = DefaultMinDwell
	}
	if c.ThroughputEnable <= 0 || c.ThroughputEnable >= 1 {
		c.ThroughputEnable = DefaultThroughputEnable
	}
	return c
}

// Sample is one reading of a shard's raw signals. The counter fields are
// CUMULATIVE (the controller differences consecutive samples itself);
// AnnLen and Pending are instantaneous.
type Sample struct {
	// Rounds is the shard combiner's cumulative drained-round count.
	Rounds int64
	// Batched is the cumulative count of ops drained inside rounds.
	Batched int64
	// Retracts is the cumulative count of submissions that outwaited a
	// busy combiner and escaped to the direct path.
	Retracts int64
	// ElectFails is the cumulative count of failed combiner-election
	// CASes.
	ElectFails int64
	// AnnLen is the shard's current announcement-list (U-ALL) length —
	// updates announced and not yet retired, i.e. concurrent publishers
	// parked mid-operation.
	AnnLen int64
	// Pending is the shard's current in-flight direct update count (0
	// when the caller has no such counter; the controller uses
	// max(AnnLen, Pending)).
	Pending int64
	// Ops is the cumulative publication-op count at the sample instant
	// and Nanos the cumulative nanoseconds since the controller started;
	// together they give the throughput signal its per-interval ops/sec.
	// Leaving both zero (a reader without timing) keeps the throughput
	// signal inert — Tick fills them itself on the live path.
	Ops   int64
	Nanos int64
}

// Mode word values.
const (
	modeDirect uint32 = iota
	modeCombining
)

// Controller decides one shard's publication mode. Create with New; the
// publication path calls Tick once per op and routes on Combining().
//
// The decision state (EWMA, dwell, previous sample) is guarded by the
// sampling word: Tick admits one sampler at a time via CAS, so Step runs
// exclusively even though the fields are plain. Tests drive Step directly
// with synthetic samples — the decision function is deterministic, so
// transitions, hysteresis bands and dwell timing assert exactly with no
// sleeps and no real contention.
type Controller struct {
	cfg Config
	// read is the live signal reader (nil: Tick never samples). It
	// receives the current mode so it can skip signals that mode does
	// not consult — in combining mode the estimate comes from the
	// counter deltas alone, so there is no reason to walk the
	// announcement list for AnnLen. The sampler is itself a publisher:
	// any work it does delays its own publication past the round being
	// drained, which is why a fully-subscribed k=1 convoy measures ~14–15
	// ops per round under sampling versus exactly 16 without (AD1's A/B
	// showed the throughput cost of that shrink is below host noise).
	read func(combining bool) Sample

	// mode is read on every publication op; padded so the hot-read word
	// never shares a line with the tick counter every op writes.
	mode atomic.Uint32
	_    [atomicx.CacheLine - 4]byte
	// ticks counts publication ops; every SampleEvery-th op samples.
	ticks atomicx.PadInt64
	// sampling admits one sampler at a time (0 free, 1 held).
	sampling atomic.Uint32
	_        [atomicx.CacheLine - 4]byte

	// Transition counters (monitoring; written only by the sampler or
	// ForceMode callers).
	enables  atomicx.PadInt64
	disables atomicx.PadInt64

	// Sampler-owned state, guarded by the sampling word.
	last  Sample
	ewma  float64
	dwell int64 // samples since the last flip
	// Throughput signal state (sampler-owned): tput is the ops/sec EWMA
	// over sample intervals, directPeak the best tput ever observed in
	// direct mode — the baseline a collapse is measured against.
	tput       float64
	directPeak float64
	// start anchors Tick's Nanos readings; set once in New.
	start time.Time

	// events, when non-nil, receives one trace event per mode flip,
	// carrying the signal values that justified the decision (set once via
	// SetEvents, before concurrent use). Flips are rare — dwell bounds them
	// to one per MinDwell samples — so the publish cost never rides the
	// publication path.
	events  *obs.Ring
	evShard int32
}

// SetEvents routes this controller's mode flips — obs.KindAdaptiveEnable
// and obs.KindAdaptiveDisable, with triggering signal values in the args —
// to ring, tagged with shard. Install before concurrent use (the fields
// are plain).
func (c *Controller) SetEvents(ring *obs.Ring, shard int32) {
	c.events = ring
	c.evShard = shard
}

// New returns a controller with cfg's thresholds (zero fields take the
// tuned defaults) reading live signals from read. read is called at most
// once per SampleEvery publication ops, from inside one publishing
// goroutine's Tick, with the mode current at the sample; it may leave
// fields the mode does not consult zero (AnnLen/Pending while combining).
func New(cfg Config, read func(combining bool) Sample) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{cfg: cfg, read: read, start: time.Now()}
	if cfg.StartCombining {
		c.mode.Store(modeCombining)
		// An optimistic start carries an optimistic estimate: the EWMA
		// begins at Enable so a genuinely clustered workload is not
		// disabled before its first rounds report, while a thin one pulls
		// the estimate to ~1 within a few samples and flips down.
		c.ewma = cfg.Enable
	} else {
		// A direct start assumes a solo publisher until observed
		// otherwise.
		c.ewma = 1
	}
	return c
}

// Combining reports the current publication mode. One atomic load; the
// publication path reads it on every op.
func (c *Controller) Combining() bool { return c.mode.Load() == modeCombining }

// Config returns the resolved (defaults-filled) configuration.
func (c *Controller) Config() Config { return c.cfg }

// Transitions returns the cumulative enable and disable flip counts.
func (c *Controller) Transitions() (enables, disables int64) {
	return c.enables.Load(), c.disables.Load()
}

// Estimate returns the current contention-estimate EWMA. It reads
// sampler-owned state without the sampling word and is meant for
// quiescent inspection (tests, post-run reporting), not for concurrent
// monitoring.
func (c *Controller) Estimate() float64 { return c.ewma }

// Throughput returns the ops/sec EWMA and the best direct-mode value it
// has reached — the throughput-enable signal's inputs. Same quiescent-
// inspection caveat as Estimate.
func (c *Controller) Throughput() (ewma, directPeak float64) {
	return c.tput, c.directPeak
}

// Tick records one publication op and, every SampleEvery-th op, takes a
// signal sample and runs the flip decision. The publication path calls it
// before routing, so an op whose Tick flips the mode publishes under the
// new mode.
func (c *Controller) Tick() {
	if c.ticks.Add(1)%c.cfg.SampleEvery != 0 || c.read == nil {
		return
	}
	// One sampler at a time; a losing op just publishes, it is not the
	// sampler's job anyway.
	if !c.sampling.CompareAndSwap(0, 1) {
		return
	}
	s := c.read(c.Combining())
	// The timing pair is the controller's own, not the reader's: ticks
	// already counts this shard's publication ops, and the wall clock
	// anchors at New, so every reader gets the throughput signal without
	// carrying a clock.
	s.Ops = c.ticks.Load()
	s.Nanos = int64(time.Since(c.start))
	c.Step(s)
	c.sampling.Store(0)
}

// Step feeds one sample through the flip decision. Tick calls it under
// the sampling word; tests call it directly (single-goroutine) to drive
// the controller deterministically.
func (c *Controller) Step(s Sample) {
	combining := c.Combining()
	dRounds := s.Rounds - c.last.Rounds
	dBatched := s.Batched - c.last.Batched
	dRetracts := s.Retracts - c.last.Retracts
	dElect := s.ElectFails - c.last.ElectFails

	// One observation of the contention estimate (see the package
	// comment): measured batch size while combining, inferred from
	// visible concurrent publishers while direct. A combining sample with
	// no rounds and no retractions saw no publication traffic at all and
	// updates nothing.
	est, have := 0.0, false
	switch {
	case combining && dRounds > 0:
		est, have = float64(dBatched)/float64(dRounds), true
	case combining && dRetracts > 0:
		est, have = 1, true // every submission escaped solo
	case !combining:
		peers := s.AnnLen
		if s.Pending > peers {
			peers = s.Pending
		}
		est, have = float64(peers)+1, true
	}
	if have {
		c.ewma = c.cfg.Alpha*est + (1-c.cfg.Alpha)*c.ewma
	}

	// Throughput signal: ops/sec over the sample interval, EWMA-smoothed
	// with the same Alpha. Inert unless the sample carries a fresh timing
	// pair (both deltas positive), so synthetic tests opt in per sample
	// and a zero-filled reader never trips it.
	if dOps, dNanos := s.Ops-c.last.Ops, s.Nanos-c.last.Nanos; dOps > 0 && dNanos > 0 {
		inst := float64(dOps) / float64(dNanos) * 1e9
		if c.tput == 0 {
			c.tput = inst // first reading seeds the EWMA
		} else {
			c.tput = c.cfg.Alpha*inst + (1-c.cfg.Alpha)*c.tput
		}
		if !combining && c.tput > c.directPeak {
			c.directPeak = c.tput
		}
	}
	c.last = s

	if c.dwell++; c.dwell < c.cfg.MinDwell {
		return
	}
	switch {
	case !combining && (c.ewma >= c.cfg.Enable || c.throughputEnableWanted()):
		c.mode.Store(modeCombining)
		c.enables.Add(1)
		c.dwell = 0
		if c.events != nil {
			// Which signal fired: the primary estimate reaching Enable, or
			// the secondary throughput collapse (the two are not exclusive;
			// the flag records whether the flip NEEDED the secondary path).
			tputFired := int64(0)
			if c.ewma < c.cfg.Enable {
				tputFired = 1
			}
			c.events.Publish(obs.KindAdaptiveEnable, c.evShard,
				int64(c.ewma*1000), tputFired, int64(c.tput), int64(c.directPeak))
		}
	case combining && c.disableWanted(dRounds, dBatched, dRetracts, dElect):
		c.mode.Store(modeDirect)
		c.disables.Add(1)
		c.dwell = 0
		if c.events != nil {
			var rate float64
			if d := dBatched + dRetracts; d > 0 {
				rate = float64(dRetracts) / float64(d)
			}
			c.events.Publish(obs.KindAdaptiveDisable, c.evShard,
				int64(c.ewma*1000), int64(rate*1000), dRounds, dRetracts)
		}
	}
}

// throughputEnableWanted decides the secondary direct→combining flip: the
// measured ops/sec EWMA has collapsed to ThroughputEnable of the best
// direct-mode throughput AND the contention estimate sees concurrent
// publishers (strictly above the Disable floor — a solo shard that merely
// slowed down, e.g. because the host got busy, must not enable). This
// catches the regime the peer-count estimate is blind to on multicore:
// publishers on different Ps serializing on shared cache lines spend
// their time in coherence stalls, not parked on the announcement list.
func (c *Controller) throughputEnableWanted() bool {
	return c.directPeak > 0 &&
		c.tput <= c.cfg.ThroughputEnable*c.directPeak &&
		c.ewma > c.cfg.Disable
}

// disableWanted decides the combining→direct flip for one post-dwell
// sample. Retraction pressure disables unconditionally — ops escaping the
// slots after a full spin budget is direct evidence the handoff hurts.
// A low batch EWMA disables only while elections are UNcontended: a
// failed election CAS proves a concurrent publisher raced for the same
// round, so batches are about to form even if the measured average is
// still settling (e.g. in the first samples after an enable).
func (c *Controller) disableWanted(dRounds, dBatched, dRetracts, dElect int64) bool {
	if d := dBatched + dRetracts; d > 0 &&
		float64(dRetracts)/float64(d) >= c.cfg.RetractDisable {
		return true
	}
	return c.ewma <= c.cfg.Disable && dElect <= dRounds
}

// ForceMode overrides the mode word, bypassing thresholds, dwell and the
// transition counters. Test-only: the mid-flip stress suites use it to
// toggle a shard's mode inside a combining round. It deliberately touches
// nothing but the atomic word, so it is safe to call concurrently with a
// live sampler (which may immediately flip the mode back — that churn is
// exactly what the stress tests want).
func (c *Controller) ForceMode(combining bool) {
	if combining {
		c.mode.Store(modeCombining)
	} else {
		c.mode.Store(modeDirect)
	}
}
