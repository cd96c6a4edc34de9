package main

import (
	"math"
	"sync"
	"time"
)

// embedLatEvery is the latency sampling cadence of in-process workers:
// one op in 8 is timed, which keeps the two clock reads off most calls.
// Served callers time every call; a round trip dwarfs the clock reads.
const embedLatEvery = 8

// span is one traced call: a sampled op around a call into one layer, or
// the root span of a rung that its op spans point to as parent. Times are
// nanoseconds since the tracer's origin.
type span struct {
	name       string
	id, parent uint64
	req        uint64
	start, end int64
}

// tracer keeps one goroutine's sampled spans in a buffer sized before the
// run, so tracing never grows the heap mid-run; spans past its capacity
// are counted and dropped.
type tracer struct {
	origin  time.Time
	every   uint64
	nextID  uint64
	spans   []span
	dropped int64
}

// newTracer samples one call in every; ids are unique per owner.
func newTracer(origin time.Time, owner int, every uint64, capacity int) *tracer {
	return &tracer{origin: origin, every: every, nextID: uint64(owner+1) << 40,
		spans: make([]span, 0, capacity)}
}

func (t *tracer) newID() uint64 {
	t.nextID++
	return t.nextID
}

func (t *tracer) record(sp span) {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return
	}
	t.spans = append(t.spans, sp)
}

func (t *tracer) add(name string, parent, req uint64, start, end time.Time) {
	t.record(span{name: name, id: t.newID(), parent: parent, req: req,
		start: int64(start.Sub(t.origin)), end: int64(end.Sub(t.origin))})
}

var opNames = [...]string{opPred: "pred", opContains: "contains", opInsert: "insert", opDelete: "delete"}

// worker drives one owner's op stream against a set in a closed loop.
type worker struct {
	s       set
	g       *gen
	m       *model
	spacing int64

	// readLat and updLat, when latEvery > 0, receive every latEvery-th
	// op's latency. tr, when non-nil, receives its sampled spans under a
	// root span named rootName covering the whole run.
	readLat, updLat *hist
	latEvery        int64
	tr              *tracer
	root            uint64
	rootName        string

	ops, failed, badReads int64
	kinds                 [4]int64                 // ops issued per kind
	spanKinds             [4]struct{ n, ns int64 } // traced ops per kind
}

// run issues ops until limit ops are done or the deadline (if non-zero)
// passes, whichever is first.
func (w *worker) run(limit int64, deadline time.Time) {
	if limit <= 0 {
		limit = math.MaxInt64
	}
	for n := int64(0); n < limit; n++ {
		if n&63 == 0 && !deadline.IsZero() && time.Now().After(deadline) {
			return
		}
		o := w.g.next()
		timed := w.latEvery > 0 && n%w.latEvery == 0
		traced := w.tr != nil && uint64(n)%w.tr.every == 0
		if !timed && !traced {
			w.do(o)
			continue
		}
		start := time.Now()
		w.do(o)
		end := time.Now()
		// Read latency is Predecessor latency: Contains is a single
		// lookup, and mixing the two would put the median on the edge
		// between two modes.
		if timed {
			switch {
			case o.kind.update():
				w.updLat.record(int64(end.Sub(start)))
			case o.kind == opPred:
				w.readLat.record(int64(end.Sub(start)))
			}
		}
		if traced {
			w.tr.add(opNames[o.kind], w.root, uint64(n), start, end)
			w.spanKinds[o.kind].n++
			w.spanKinds[o.kind].ns += int64(end.Sub(start))
		}
	}
}

// do applies one op, counting errors as failures and checking each read
// against what any interleaving allows: a predecessor is −1 or a pool key
// below its argument.
func (w *worker) do(o op) {
	w.ops++
	w.kinds[o.kind]++
	var err error
	switch o.kind {
	case opPred:
		var p int64
		p, err = w.s.pred(o.key)
		if err == nil && p != -1 && (p < 0 || p >= o.key || p%w.spacing != 0) {
			w.badReads++
		}
	case opContains:
		_, err = w.s.contains(o.key)
	case opInsert:
		err = w.s.insert(o.key)
	case opDelete:
		err = w.s.remove(o.key)
	}
	if err != nil {
		w.failed++
		return
	}
	w.m.apply(o)
}

// runWorkers runs the workers concurrently, each for limit ops or the
// window (whichever is set and comes first), and waits for all of them.
// It returns the wall time from start to the last worker's exit, and
// gives each traced worker its root span over that time.
func runWorkers(ws []*worker, limit int64, window time.Duration) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	var deadline time.Time
	if window > 0 {
		deadline = start.Add(window)
	}
	for _, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(limit, deadline)
		}()
	}
	wg.Wait()
	end := time.Now()
	for _, w := range ws {
		if w.tr != nil {
			w.tr.record(span{name: w.rootName, id: w.root,
				start: int64(start.Sub(w.tr.origin)), end: int64(end.Sub(w.tr.origin))})
		}
	}
	return end.Sub(start)
}

// tally sums the workers' counters.
func tally(ws []*worker) (ops, failed, badReads int64) {
	for _, w := range ws {
		ops += w.ops
		failed += w.failed
		badReads += w.badReads
	}
	return
}
