package main

// The traced suite (--trace 1). It measures every layer, whichever
// workload is named, because each per-layer metric comes from a specific
// workload's stream:
//
//  1. The ladder. Each in-process workload's op streams (same seed, same
//     two workers) are replayed through core.New → sharded.New(u, k) →
//     facade WithoutObservability → facade default, plus, on embed-churn,
//     the WithCombining, WithAdaptiveCombining and WithAdaptiveShards(1,16)
//     tax rungs. Every rung gets a fixed op count so every rung sees the
//     same ops, records one span in spanEvery around its calls, and must end
//     with the same key set. A layer's self time is its rung's mean span
//     minus the rung below.
//  2. served-durable, untraced rounds alternating with rounds that record
//     one client span in spanEvery, reading the server and trie metric
//     windows over the traced rounds; then sweep-shaped batches from its stream are
//     replayed through combine.SortDedup, versioned.ApplyBatch, the wire op
//     codec, and durable and in-memory facade ApplyBatch.
//  3. Spans stay in memory and are written to .bench_build/spans-<workload>.csv
//     at the end. Tracing overhead is traced ops_per_s against an untraced
//     pass over the same stream.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	lockfreetrie "repro"
	"repro/internal/combine"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sharded"
	"repro/internal/versioned"
	"repro/internal/wire"
)

const (
	// ladderOps is each worker's op count in every pass of a rung.
	ladderOps = 100_000
	// ladderPasses is how many times each rung is replayed.
	ladderPasses = 4
	// spanEvery samples one call in this many into a span.
	spanEvery = 32
	// replayBatches is how many sweep-shaped batches the batch replays
	// time.
	replayBatches = 4000
	// servedTraceRounds is how many untraced and traced served-durable
	// rounds the suite alternates.
	servedTraceRounds = 3
)

// rung is one configuration of the ladder.
type rung struct {
	name  string
	build func(s spec) (set, error)
}

func facadeRung(name string, opts ...lockfreetrie.Option) rung {
	return rung{name, func(s spec) (set, error) {
		t, err := lockfreetrie.New(s.universe, opts...)
		return facadeSet{t}, err
	}}
}

// ladder returns the rungs for a workload, bottom first.
func ladder(s spec) []rung {
	with := func(extra ...lockfreetrie.Option) []lockfreetrie.Option {
		return append(s.facadeOptions(), extra...)
	}
	rs := []rung{
		{"core", func(s spec) (set, error) {
			t, err := core.New(s.universe)
			return coreSet{t}, err
		}},
		{"sharded", func(s spec) (set, error) {
			t, err := sharded.New(s.universe, s.shards)
			return shardedSet{t}, err
		}},
		facadeRung("facade-noobs", with(lockfreetrie.WithoutObservability())...),
		facadeRung("facade", with()...),
	}
	if s.name == "embed-churn" {
		rs = append(rs,
			facadeRung("combine", with(lockfreetrie.WithCombining())...),
			facadeRung("adapt", with(lockfreetrie.WithAdaptiveCombining())...),
			facadeRung("resize", lockfreetrie.WithAdaptiveShards(1, s.shards)))
	}
	return rs
}

// rungResult is one rung's replay.
type rungResult struct {
	elapsed   time.Duration
	ops       int64
	kinds     [4]int64                 // ops issued per kind
	spanKinds [4]struct{ n, ns int64 } // sampled spans per kind
	rt        runtimeWork
}

// runtimeWork is the Go runtime's work over a measured window.
type runtimeWork struct {
	mallocs, gcCycles, pauseNs uint64
}

func (w *runtimeWork) add(o runtimeWork) {
	w.mallocs += o.mallocs
	w.gcCycles += o.gcCycles
	w.pauseNs += o.pauseNs
}

func runtimeDelta(m0, m1 *runtime.MemStats) runtimeWork {
	return runtimeWork{m1.Mallocs - m0.Mallocs, uint64(m1.NumGC - m0.NumGC), m1.PauseTotalNs - m0.PauseTotalNs}
}

// meanNs is the mean sampled span over the given op kinds.
func (r *rungResult) meanNs(kinds ...opKind) float64 {
	var n, ns int64
	for _, k := range kinds {
		n += r.spanKinds[k].n
		ns += r.spanKinds[k].ns
	}
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

func (r *rungResult) meanAll() float64 { return r.meanNs(opPred, opContains, opInsert, opDelete) }

// add folds another pass of the same rung into r.
func (r *rungResult) add(o *rungResult) {
	r.elapsed += o.elapsed
	r.ops += o.ops
	r.rt.add(o.rt)
	for k := range r.kinds {
		r.kinds[k] += o.kinds[k]
		r.spanKinds[k].n += o.spanKinds[k].n
		r.spanKinds[k].ns += o.spanKinds[k].ns
	}
}

func (r *rungResult) opsPerSec() float64 { return float64(r.ops) / r.elapsed.Seconds() }

// suite accumulates the traced run's output.
type suite struct {
	seed      int64
	origin    time.Time
	metrics   map[string]metric
	tracers   []*tracer
	attempted int64
	failed    int64
}

func (su *suite) put(name, unit string, v float64) { su.metrics[name] = metric{v, unit} }

// replay runs one rung over the workload's streams: build, prefill,
// ladderOps ops per worker (with sampled spans when traced), then the key-set
// check. before, when non-nil, runs after the prefill and its returned
// function after the workers stop, for counter windows.
func (su *suite) replay(s spec, r rung, traced bool, before func(set) func()) (*rungResult, error) {
	st, err := r.build(s)
	if err != nil {
		return nil, fmt.Errorf("rung %s: %w", r.name, err)
	}
	if err := fill(st, s.prefillKeys(su.seed)); err != nil {
		return nil, fmt.Errorf("rung %s: prefill: %w", r.name, err)
	}
	models := newModels(s, su.seed)
	ws := make([]*worker, s.owners)
	for i := range ws {
		ws[i] = &worker{s: st, g: newGen(s, su.seed, i), m: models[i], spacing: s.spacing()}
		if traced {
			ws[i].tr, ws[i].rootName = newTracer(su.origin, i, spanEvery, ladderOps/spanEvery+2), "rung:"+s.name+"/"+r.name
			ws[i].root = ws[i].tr.newID()
		}
	}
	var after func()
	if before != nil {
		after = before(st)
	}
	res := &rungResult{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res.elapsed = runWorkers(ws, ladderOps, 0)
	runtime.ReadMemStats(&m1)
	res.rt = runtimeDelta(&m0, &m1)
	if after != nil {
		after()
	}
	ops, failed, bad := tally(ws)
	res.ops = ops
	for _, w := range ws {
		for k := range w.kinds {
			res.kinds[k] += w.kinds[k]
			res.spanKinds[k].n += w.spanKinds[k].n
			res.spanKinds[k].ns += w.spanKinds[k].ns
		}
		if w.tr != nil {
			su.tracers = append(su.tracers, w.tr)
		}
	}
	su.attempted += ops
	su.failed += failed
	if bad > 0 {
		return nil, fmt.Errorf("rung %s: %d predecessor answers were not pool keys below their argument", r.name, bad)
	}
	if err := checkQuiescent(st, s.universe, expectedKeys(models), su.seed, 500); err != nil {
		return nil, fmt.Errorf("rung %s of %s: %w", r.name, s.name, err)
	}
	return res, nil
}

// runTraced runs the traced suite and reports the per-layer metrics. Its
// work is fixed (ladderOps per worker per rung pass, servedTraceRounds
// served rounds of each kind), not set by --seconds, so every traced run
// compares rungs on the same op counts.
func runTraced(s spec, seed int64, dataRoot string) (result, error) {
	su := &suite{seed: seed, origin: time.Now(), metrics: map[string]metric{}}
	res := func() result {
		return result{Correct: true, Attempted: su.attempted, Failed: su.failed, Metrics: su.metrics}
	}
	if err := su.embedRead(); err != nil {
		return res(), err
	}
	if err := su.embedChurn(); err != nil {
		return res(), err
	}
	if err := su.served(dataRoot); err != nil {
		return res(), err
	}
	if err := su.writeSpans(filepath.Join(buildDir, "spans-"+s.name+".csv")); err != nil {
		return res(), err
	}
	return res(), nil
}

// goStats reports the Go runtime's work over untraced passes.
func (su *suite) goStats(workload string, rt runtimeWork, ops int64) {
	su.put("go.allocs_per_op."+workload, "count", float64(rt.mallocs)/float64(ops))
	su.put("go.gc_cycles."+workload, "count", float64(rt.gcCycles))
	su.put("go.gc_pause_ms."+workload, "ms", float64(rt.pauseNs)/1e6)
}

// overhead reports tracing overhead: 1 − traced/untraced ops_per_s.
func (su *suite) overhead(workload string, traced, untraced float64) {
	su.put("trace.overhead."+workload, "ratio", 1-traced/untraced)
	fmt.Printf("%s: traced %.0f ops/s, untraced %.0f ops/s\n", workload, traced, untraced)
}

// climb replays a workload's ladder ladderPasses times, alternately
// bottom-up and top-down, so the host's speed drifting over the climb
// lands on every rung alike. Each pass also replays the default facade
// untraced right after its traced rung, for the tracing overhead and the
// Go runtime figures. A throwaway build first faults in the pages every
// later trie reuses. Rungs are returned by name, summed over the passes.
func (su *suite) climb(s spec, before map[string]func(set) func()) (map[string]*rungResult, error) {
	if _, err := facadeRung("warm-up", s.facadeOptions()...).build(s); err != nil {
		return nil, err
	}
	runtime.GC()
	rs := ladder(s)
	out := map[string]*rungResult{}
	var plain *rungResult
	sum := func(into **rungResult, res *rungResult) {
		if *into == nil {
			*into = res
		} else {
			(*into).add(res)
		}
	}
	for p := 0; p < ladderPasses; p++ {
		for i := range rs {
			r := rs[i]
			if p%2 == 1 {
				r = rs[len(rs)-1-i]
			}
			res, err := su.replay(s, r, true, before[r.name])
			if err != nil {
				return nil, err
			}
			prev := out[r.name]
			sum(&prev, res)
			out[r.name] = prev
			if r.name != "facade" {
				continue
			}
			if res, err = su.replay(s, facadeRung("facade", s.facadeOptions()...), false, nil); err != nil {
				return nil, err
			}
			sum(&plain, res)
		}
	}
	for _, r := range rs {
		res := out[r.name]
		fmt.Printf("%s/%s: %.0f ops/s, mean span %.0f ns\n", s.name, r.name, res.opsPerSec(), res.meanAll())
	}
	su.goStats(s.name, plain.rt, plain.ops)
	su.overhead(s.name, out["facade"].opsPerSec(), plain.opsPerSec())
	return out, nil
}

// selfTimes reports each routing layer's self time on a workload: the
// difference of mean spans between a rung and the rung below it.
func (su *suite) selfTimes(s spec, rs map[string]*rungResult) {
	su.put(fmt.Sprintf("sharded.self_ns.k%d", s.shards), "ns", rs["sharded"].meanAll()-rs["core"].meanAll())
	su.put("facade.self_ns."+s.name, "ns", rs["facade-noobs"].meanAll()-rs["sharded"].meanAll())
	su.put("obs.self_ns."+s.name, "ns", rs["facade"].meanAll()-rs["facade-noobs"].meanAll())
}

func (su *suite) embedRead() error {
	s := specs["embed-read"]
	rs, err := su.climb(s, nil)
	if err != nil {
		return err
	}
	su.put("core.pred_ns", "ns", rs["core"].meanNs(opPred))
	su.put("core.search_ns", "ns", rs["core"].meanNs(opContains))
	su.selfTimes(s, rs)

	// Descent counters cost an atomic add per interpreted bit, so they
	// are read on a rung of their own.
	var bitReads, skipped int64
	var snap obs.Snapshot
	stats := facadeRung("descent-stats", lockfreetrie.WithDescentStats())
	res, err := su.replay(s, stats, false, func(x set) func() {
		t := x.(facadeSet).t
		s0, m0 := t.Stats(), t.MetricsSnapshot()
		return func() {
			s1 := t.Stats()
			bitReads, skipped = s1.BitReads-s0.BitReads, s1.SkippedBitReads-s0.SkippedBitReads
			snap = t.MetricsSnapshot().Delta(m0)
		}
	})
	if err != nil {
		return err
	}
	preds := float64(res.kinds[opPred])
	su.put("bitstrie.bit_reads_per_pred", "count", float64(bitReads)/preds)
	su.put("bitstrie.skipped_reads_per_pred", "count", float64(skipped)/preds)
	su.put("bitstrie.cas_fail_ratio", "ratio", ratio(snap.Counters["bits.cas_failures"], snap.Counters["bits.cas_attempts"]))
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (su *suite) embedChurn() error {
	s := specs["embed-churn"]
	// Counter windows, summed over both passes of their rung.
	var cs lockfreetrie.Stats
	var epochs uint64
	before := map[string]func(set) func(){
		"facade": func(x set) func() {
			t := x.(facadeSet).t
			s0 := t.Stats()
			return func() {
				s1 := t.Stats()
				cs.Announces += s1.Announces - s0.Announces
				cs.Notifications += s1.Notifications - s0.Notifications
				cs.HelpActivations += s1.HelpActivations - s0.HelpActivations
				cs.UallTraversalSteps += s1.UallTraversalSteps - s0.UallTraversalSteps
				cs.RuallTraversalSteps += s1.RuallTraversalSteps - s0.RuallTraversalSteps
				cs.BottomCases += s1.BottomCases - s0.BottomCases
			}
		},
		"sharded": func(x set) func() {
			t := x.(shardedSet).t
			sum := func() (e uint64) {
				for i := 0; i < t.Shards(); i++ {
					e += t.Shard(i).Reclaimer().Epoch()
				}
				return e
			}
			e0 := sum()
			return func() { epochs += sum() - e0 }
		},
	}
	rs, err := su.climb(s, before)
	if err != nil {
		return err
	}
	su.put("core.update_ns", "ns", rs["core"].meanNs(opInsert, opDelete))
	su.selfTimes(s, rs)
	def := rs["facade"].meanAll()
	su.put("combine.tax_ns", "ns", rs["combine"].meanAll()-def)
	su.put("adapt.tax_ns", "ns", rs["adapt"].meanAll()-def)
	su.put("resize.tax_ns", "ns", rs["resize"].meanAll()-def)

	f := rs["facade"]
	ops := float64(f.ops)
	updates := float64(f.kinds[opInsert] + f.kinds[opDelete])
	preds := float64(f.kinds[opPred])
	su.put("core.announces_per_update", "count", float64(cs.Announces)/updates)
	su.put("core.notifications_per_update", "count", float64(cs.Notifications)/updates)
	su.put("core.help_activations_per_update", "count", float64(cs.HelpActivations)/updates)
	su.put("core.uall_steps_per_op", "count", float64(cs.UallTraversalSteps)/ops)
	su.put("core.ruall_steps_per_pred", "count", float64(cs.RuallTraversalSteps)/preds)
	su.put("core.bottom_cases_per_pred", "count", float64(cs.BottomCases)/preds)
	su.put("ebr.epochs_per_mop", "count", float64(epochs)/(float64(rs["sharded"].ops)/1e6))
	return nil
}

// served runs served-durable rounds, alternately untraced and traced,
// then the batch replays.
func (su *suite) served(dataRoot string) error {
	s := specs["served-durable"]
	perCaller := servedRoundRequests / s.owners
	hooks := &servedHooks{rounds: 1, tracers: make([]*tracer, s.owners)}
	for i := range hooks.tracers {
		hooks.tracers[i] = newTracer(su.origin, 100+i, spanEvery, servedTraceRounds*(perCaller/spanEvery+2))
	}
	su.tracers = append(su.tracers, hooks.tracers...)
	var srvWin, trieWin obs.Snapshot
	var elapsed time.Duration
	hooks.window = func(srv, trie obs.Snapshot, d time.Duration) {
		srvWin, trieWin, elapsed = srvWin.Merge(srv), trieWin.Merge(trie), elapsed+d
	}
	var plainRate, tracedRate []float64
	var rt runtimeWork
	var plainOps, replayed int64
	var clientUpd hist
	for i := 0; i < servedTraceRounds; i++ {
		plainHooks := &servedHooks{rounds: 1}
		plain, err := runServed(s, su.seed, 0, dataRoot, plainHooks)
		if err != nil {
			return err
		}
		traced, err := runServed(s, su.seed, 0, dataRoot, hooks)
		if err != nil {
			return err
		}
		for _, r := range []*e2eRun{plain, traced} {
			su.attempted += r.attempted
			su.failed += r.failed
		}
		rt.add(plainHooks.rt)
		plainOps += plain.attempted
		plainRate = append(plainRate, plain.rounds[0].opsPerSec)
		tracedRate = append(tracedRate, traced.rounds[0].opsPerSec)
		clientUpd.merge(&traced.updLat)
		replayed = traced.rounds[0].replayedOps
	}
	su.goStats(s.name, rt, plainOps)
	su.overhead(s.name, median(tracedRate), median(plainRate))

	us := func(h obs.HistSnapshot, q float64) float64 { return float64(h.Quantile(q)) / 1e3 }
	srvUpd := us(srvWin.Hists["server.latency.update_ns"], 0.5)
	su.put("server.update_p50_us", "us", srvUpd)
	su.put("server.read_p50_us", "us", us(srvWin.Hists["server.latency.read_ns"], 0.5))
	su.put("server.transport_update_us", "us", clientUpd.quantile(0.5)/1e3-srvUpd)
	batchMean := srvWin.Hists["server.batch_size"].Mean()
	su.put("server.batch_mean", "count", batchMean)
	su.put("server.sweeps_per_s", "1/s", float64(srvWin.Counters["server.batch.sweeps"])/elapsed.Seconds())

	c := trieWin.Counters
	su.put("wal.ops_per_record", "count", ratio(c["wal.append.ops"], c["wal.append.records"]))
	su.put("wal.bytes_per_op", "B", ratio(c["wal.append.bytes"], c["wal.append.ops"]))
	su.put("wal.fsyncs_per_s", "1/s", float64(c["wal.fsyncs"])/elapsed.Seconds())
	su.put("wal.fsync_p50_us", "us", us(trieWin.Hists["wal.fsync_ns"], 0.5))
	su.put("wal.fsync_p99_us", "us", us(trieWin.Hists["wal.fsync_ns"], 0.99))
	su.put("wal.snapshots", "count", float64(c["wal.snapshots"]))
	su.put("wal.recovery.replayed_ops", "count", float64(replayed))

	return su.replayBatches(s, max(1, int(batchMean+0.5)), dataRoot)
}

// sweepBatches cuts served-durable's update stream into batches of the
// size the server's sweeps had, taking ops from the callers in turn the
// way the batcher drains their requests.
func sweepBatches(s spec, seed int64, size, count int) [][]lockfreetrie.Op {
	gens := make([]*gen, s.owners)
	for i := range gens {
		gens[i] = newGen(s, seed, i)
	}
	out := make([][]lockfreetrie.Op, count)
	c := 0
	for b := range out {
		batch := make([]lockfreetrie.Op, 0, size)
		for len(batch) < size {
			o := gens[c].next()
			c = (c + 1) % len(gens)
			if !o.kind.update() {
				continue
			}
			kind := lockfreetrie.OpInsert
			if o.kind == opDelete {
				kind = lockfreetrie.OpDelete
			}
			batch = append(batch, lockfreetrie.Op{Kind: kind, Key: o.key})
		}
		out[b] = batch
	}
	return out
}

// replayBatches times the per-batch layers of the served update path on
// sweep-shaped batches.
func (su *suite) replayBatches(s spec, size int, dataRoot string) error {
	batches := sweepBatches(s, su.seed, size, replayBatches)
	fmt.Printf("batch replays: %d batches of %d updates\n", len(batches), size)
	nops := float64(len(batches) * size)

	// combine.SortDedup, on core ops, as the facade's ApplyBatch calls it.
	sorted := make([][]core.BatchOp, len(batches))
	var sortNs int64
	for i, b := range batches {
		cb := make([]core.BatchOp, len(b))
		for j, o := range b {
			cb[j] = core.BatchOp{Key: o.Key, Del: o.Kind == lockfreetrie.OpDelete}
		}
		t0 := time.Now()
		sorted[i] = combine.SortDedup(cb)
		sortNs += int64(time.Since(t0))
	}
	su.put("combine.sortdedup_ns_per_batch", "ns", float64(sortNs)/float64(len(batches)))

	// The wire op codec on every op; each op must decode to itself.
	buf := make([]byte, 0, wire.OpBytes)
	t0 := time.Now()
	for _, b := range batches {
		for _, o := range b {
			del := o.Kind == lockfreetrie.OpDelete
			buf = wire.AppendOp(buf[:0], del, o.Key)
			k, d, err := wire.DecodeOp(buf)
			if err != nil || k != o.Key || d != del {
				return fmt.Errorf("wire codec: op (%d, %v) decoded as (%d, %v), err %v", o.Key, del, k, d, err)
			}
		}
	}
	su.put("wire.codec_ns_per_op", "ns", float64(time.Since(t0))/nops)

	// The WAL mirror on the sorted batches.
	vt, err := versioned.New(s.universe)
	if err != nil {
		return err
	}
	var vops []versioned.BatchOp
	for _, k := range s.prefillKeys(su.seed) {
		vops = append(vops, versioned.BatchOp{Key: k})
	}
	vt.ApplyBatch(vops)
	var vNs int64
	for _, b := range sorted {
		vb := make([]versioned.BatchOp, len(b))
		for j, o := range b {
			vb[j] = versioned.BatchOp{Key: o.Key, Del: o.Del}
		}
		t0 := time.Now()
		vt.ApplyBatch(vb)
		vNs += int64(time.Since(t0))
	}
	su.put("versioned.apply_ns_per_batch", "ns", float64(vNs)/float64(len(batches)))

	// Durable minus in-memory facade ApplyBatch.
	mem, err := batchApplyNs(s, su.seed, batches, nil)
	if err != nil {
		return err
	}
	dir := filepath.Join(dataRoot, "wal-replay")
	defer os.RemoveAll(dir)
	dur, err := batchApplyNs(s, su.seed, batches, durableOptions(dir))
	if err != nil {
		return err
	}
	su.put("wal.self_ns_per_batch", "ns", dur-mem)
	return nil
}

// batchApplyNs is the mean facade ApplyBatch time over the batches on a
// prefilled trie built with opts.
func batchApplyNs(s spec, seed int64, batches [][]lockfreetrie.Op, opts []lockfreetrie.Option) (float64, error) {
	tr, err := lockfreetrie.New(s.universe, opts...)
	if err != nil {
		return 0, err
	}
	if err := loadBatches(tr, s.prefillKeys(seed)); err != nil {
		tr.Close()
		return 0, err
	}
	var ns int64
	for _, b := range batches {
		t0 := time.Now()
		errs := tr.ApplyBatch(b)
		ns += int64(time.Since(t0))
		if errs != nil {
			tr.Close()
			return 0, fmt.Errorf("ApplyBatch rejected ops: %v", errs)
		}
	}
	if err := tr.Close(); err != nil {
		return 0, err
	}
	return float64(ns) / float64(len(batches)), nil
}

// writeSpans writes every kept span as CSV.
func (su *suite) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,id,parent,request,start_ns,end_ns")
	var n, dropped int64
	for _, tr := range su.tracers {
		for _, sp := range tr.spans {
			fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n", sp.name, sp.id, sp.parent, sp.req, sp.start, sp.end)
		}
		n += int64(len(tr.spans))
		dropped += tr.dropped
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d spans to %s (%d dropped)\n", n, path, dropped)
	return nil
}
