package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	lockfreetrie "repro"
	"repro/internal/obs"
	"repro/internal/server"
)

// Served-durable shape: 2 connections × 16 synchronous callers, and a
// fixed request count per round so each round's log holds the same
// number of ops.
const (
	servedConns         = 2
	servedRoundRequests = 40_000
	servedCallTimeout   = 10 * time.Second
)

// servedSyncEvery is served-durable's fsync policy, the durability-tax
// experiment's gate point: one fsync per 1024 logged ops, run by the
// appender (the batcher), so it stalls every queued update while it lasts.
const servedSyncEvery = 1024

// durableOptions is served-durable's trie configuration over dir.
func durableOptions(dir string) []lockfreetrie.Option {
	return []lockfreetrie.Option{lockfreetrie.WithDurability(dir, lockfreetrie.WithSyncEvery(servedSyncEvery))}
}

// servedHooks lets the traced suite observe a round: tracers for the
// callers, and a callback with the server and trie metric windows over
// the measured requests.
type servedHooks struct {
	tracers []*tracer
	window  func(srv, trie obs.Snapshot, elapsed time.Duration)
	// rounds overrides the round count when positive.
	rounds int
	// rt is filled with the Go runtime's work over the last round's
	// requests.
	rt runtimeWork
}

// servedEnv is one round's running service.
type servedEnv struct {
	tr      *lockfreetrie.Trie
	srv     *server.Server
	serveCh chan error
	clients []*server.Client
}

// startServed builds, prefills and serves a durable trie over dir, and
// dials the clients.
func startServed(s spec, dir string, prefill []int64) (*servedEnv, error) {
	tr, err := lockfreetrie.New(s.universe, durableOptions(dir)...)
	if err != nil {
		return nil, err
	}
	e := &servedEnv{tr: tr}
	if err := loadBatches(tr, prefill); err != nil {
		e.stop()
		return nil, err
	}
	e.srv = server.New(tr, server.Config{CoalesceUpdates: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.stop()
		return nil, err
	}
	e.serveCh = make(chan error, 1)
	go func() { e.serveCh <- e.srv.Serve(ln) }()
	for i := 0; i < servedConns; i++ {
		c, err := server.Dial(ln.Addr().String(), server.WithCallTimeout(servedCallTimeout))
		if err != nil {
			e.stop()
			return nil, fmt.Errorf("dial: %w", err)
		}
		e.clients = append(e.clients, c)
	}
	return e, nil
}

// stop closes the clients, drains the server, waits for Serve to return
// and closes the log: every acknowledged update is on disk after it.
func (e *servedEnv) stop() error {
	var errs []error
	for _, c := range e.clients {
		c.Close()
	}
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		errs = append(errs, e.srv.Shutdown(ctx))
		if e.serveCh != nil {
			errs = append(errs, <-e.serveCh)
		}
	}
	errs = append(errs, e.tr.Close())
	return errors.Join(errs...)
}

// clientSet queries the served set over the wire, for the sampled checks.
type clientSet struct{ c *server.Client }

func (c clientSet) contains(x int64) (bool, error) { return c.c.Contains(x) }
func (c clientSet) insert(x int64) error           { return c.c.Insert(x) }
func (c clientSet) remove(x int64) error           { return c.c.Delete(x) }
func (c clientSet) pred(y int64) (int64, error)    { return c.c.Predecessor(y) }

// runServed runs served-durable: rounds of a fixed request count until
// the run's seconds are used (at least three). Each round starts a fresh
// durable service, runs the callers, checks the set over the wire and in
// process, measures the heap, drains and closes, then times reopening
// the log and checks the recovered set equals the one held before Close.
func runServed(s spec, seed int64, seconds int, dataRoot string, hooks *servedHooks) (*e2eRun, error) {
	run := newE2ERun(s.owners)
	prefill := s.prefillKeys(seed)
	perCaller := int64(servedRoundRequests / s.owners)
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for round := 0; ; round++ {
		if hooks != nil && hooks.rounds > 0 {
			if round == hooks.rounds {
				break
			}
		} else if round >= 3 && time.Now().After(deadline) {
			break
		}
		rs, err := servedRound(s, seed, round, dataRoot, prefill, perCaller, run, hooks)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		run.closeRound(&rs)
		run.rounds = append(run.rounds, rs)
	}
	return run, nil
}

func servedRound(s spec, seed int64, round int, dataRoot string, prefill []int64, perCaller int64,
	run *e2eRun, hooks *servedHooks) (roundStats, error) {
	var rs roundStats
	models := newModels(s, seed)
	ws := make([]*worker, s.owners)
	for i := range ws {
		ws[i] = &worker{g: newGen(s, seed, i), m: models[i], spacing: s.spacing(),
			readLat: &run.lats[i][0], updLat: &run.lats[i][1], latEvery: 1}
		if hooks != nil && hooks.tracers != nil {
			ws[i].tr, ws[i].rootName = hooks.tracers[i], fmt.Sprintf("caller-%d", i)
			ws[i].root = ws[i].tr.newID()
		}
	}
	dir := filepath.Join(dataRoot, fmt.Sprintf("wal-%d", round))
	defer os.RemoveAll(dir)
	base := heapInuse()

	t0 := time.Now()
	env, err := startServed(s, dir, prefill)
	if err != nil {
		// A service that cannot start or be dialled fails the round's
		// first request.
		run.attempted++
		run.failed++
		return rs, err
	}
	rs.setup = time.Since(t0)
	stopped := false
	defer func() {
		if !stopped {
			env.stop()
		}
	}()

	for i, w := range ws {
		w.s = clientSet{env.clients[i%servedConns]}
	}
	var srvBefore, trieBefore obs.Snapshot
	var m0, m1 runtime.MemStats
	if hooks != nil {
		srvBefore, trieBefore = env.srv.MetricsSnapshot(), env.tr.MetricsSnapshot()
		runtime.ReadMemStats(&m0)
	}
	elapsed := runWorkers(ws, perCaller, 0)
	if hooks != nil {
		runtime.ReadMemStats(&m1)
		hooks.rt = runtimeDelta(&m0, &m1)
	}
	if hooks != nil && hooks.window != nil {
		hooks.window(env.srv.MetricsSnapshot().Delta(srvBefore), env.tr.MetricsSnapshot().Delta(trieBefore), elapsed)
	}
	ops, failed, bad := tally(ws)
	run.attempted += ops
	run.failed += failed
	rs.opsPerSec = float64(ops) / elapsed.Seconds()
	if bad > 0 {
		return rs, fmt.Errorf("%d predecessor answers were not pool keys below their argument", bad)
	}

	want := expectedKeys(models)
	if err := checkQuiescent(facadeSet{env.tr}, s.universe, want, seed+int64(round), 0); err != nil {
		return rs, err
	}
	if err := checkSamples(clientSet{env.clients[0]}, s.universe, want, seed+int64(round), 500); err != nil {
		return rs, fmt.Errorf("over the wire: %w", err)
	}
	rs.heapBytes = heapInuse() - base

	stopped = true
	if err := env.stop(); err != nil {
		return rs, fmt.Errorf("drain and close: %w", err)
	}
	t1 := time.Now()
	tr, err := lockfreetrie.New(s.universe, durableOptions(dir)...)
	if err != nil {
		return rs, fmt.Errorf("reopen: %w", err)
	}
	rs.recover = time.Since(t1)
	rs.replayedOps = tr.RecoveryStats().ReplayedOps
	got, err := tr.Keys(0, s.universe-1)
	if cerr := tr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return rs, err
	}
	if err := sameKeys(got, want); err != nil {
		return rs, fmt.Errorf("recovered set: %w", err)
	}
	return rs, nil
}
