package main

import "fmt"

// opKind is one generated operation.
type opKind uint8

const (
	opPred opKind = iota
	opContains
	opInsert
	opDelete
)

func (k opKind) update() bool { return k == opInsert || k == opDelete }

type op struct {
	kind opKind
	key  int64
}

// spec describes one workload's inputs. Keys come from an evenly spaced
// pool of poolN keys (spacing universe/poolN); every update targets a pool
// key, and update key i belongs to worker i mod owners, so the final set
// after any interleaving is fixed by the op streams and the run can be
// checked exactly.
type spec struct {
	name     string
	universe int64
	shards   int // WithShards value; 1 = the default unsharded trie
	poolN    int64
	// Mix in percent; the remainder after pred and contains are updates.
	predPct, containsPct int
	// hotPct percent of keys come from hot pool indices
	// [hotLo, hotLo+hotN); the rest from the whole pool. Predecessor
	// queries draw y uniformly from the hot band's key range or, off the
	// band, from the whole universe.
	hotPct      int
	hotLo, hotN int64
	// owners is the number of goroutines issuing updates (workers in
	// process, callers over the network).
	owners int
}

var specs = map[string]spec{
	"embed-read": {
		name: "embed-read", universe: 1 << 22, shards: 1, poolN: 1 << 16,
		predPct: 70, containsPct: 20, owners: 2,
	},
	// 16 shards of width 2^16 hold 1024 pool keys each; the hot band is
	// all of shard 8's.
	"embed-churn": {
		name: "embed-churn", universe: 1 << 20, shards: 16, poolN: 1 << 14,
		predPct: 10, containsPct: 10, hotPct: 90, hotLo: 8 << 10, hotN: 1 << 10, owners: 2,
	},
	// 2 connections × 16 synchronous callers.
	"served-durable": {
		name: "served-durable", universe: 1 << 20, shards: 1, poolN: 1 << 16,
		predPct: 50, containsPct: 0, owners: 32,
	},
}

// workloadNames is the order workloads are listed and traced in.
var workloadNames = []string{"embed-read", "embed-churn", "served-durable"}

func lookupSpec(name string) (spec, error) {
	s, ok := specs[name]
	if !ok {
		return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return s, nil
}

func (s spec) spacing() int64        { return s.universe / s.poolN }
func (s spec) poolKey(i int64) int64 { return i * s.spacing() }

// rng is splitmix64: tiny, fast, and identical on every platform.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) rng {
	r := rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ (stream+1)*0xBF58476D1CE4E5B9}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// intn returns a value in [0, n).
func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// prefill returns the pool indices present before a run starts: a
// seeded half of the pool.
func (s spec) prefill(seed int64) []bool {
	r := newRNG(seed, 1<<32)
	in := make([]bool, s.poolN)
	for i := range in {
		in[i] = r.next()&1 == 0
	}
	return in
}

// prefillKeys lists the prefilled keys in ascending order.
func (s spec) prefillKeys(seed int64) []int64 {
	var keys []int64
	for i, in := range s.prefill(seed) {
		if in {
			keys = append(keys, s.poolKey(int64(i)))
		}
	}
	return keys
}

// gen produces one owner's op stream: the same (seed, spec, owner) gives
// the same sequence on every run and in every ladder rung. An update
// toggles its key — Insert when the owner last left it absent, Delete
// when present — so every update changes the set. (Half of all updates
// would otherwise be no-ops, and a latency median sitting on the edge
// between the two modes swung twofold between runs.)
type gen struct {
	s       spec
	owner   int64
	r       rng
	present []bool // the owner's view of its keys after its own updates
}

func newGen(s spec, seed int64, owner int) *gen {
	return &gen{s: s, owner: int64(owner), r: newRNG(seed, uint64(owner)), present: s.prefill(seed)}
}

// poolIndex draws a pool index from the hot band or the whole pool.
func (g *gen) poolIndex(hot bool) int64 {
	if hot {
		return g.s.hotLo + g.r.intn(g.s.hotN)
	}
	return g.r.intn(g.s.poolN)
}

func (g *gen) next() op {
	s := g.s
	roll := int(g.r.intn(100))
	hot := s.hotPct > 0 && int(g.r.intn(100)) < s.hotPct
	switch {
	case roll < s.predPct:
		if hot {
			lo := s.poolKey(s.hotLo)
			return op{opPred, lo + g.r.intn(s.poolKey(s.hotN))}
		}
		return op{opPred, g.r.intn(s.universe)}
	case roll < s.predPct+s.containsPct:
		return op{opContains, s.poolKey(g.poolIndex(hot))}
	}
	// Updates only touch this owner's keys.
	owners := int64(s.owners)
	i := g.poolIndex(hot)
	i = i - i%owners + g.owner
	if i >= s.poolN {
		i -= owners
	}
	kind := opInsert
	if g.present[i] {
		kind = opDelete
	}
	g.present[i] = !g.present[i]
	return op{kind, s.poolKey(i)}
}

// model tracks which of one owner's pool keys its updates left present.
// Each owner has its own, so recording an op shares no cache line with
// another worker; the models are merged only after every owner stopped.
type model struct {
	s       spec
	present []bool
}

func newModels(s spec, seed int64) []*model {
	pre := s.prefill(seed)
	ms := make([]*model, s.owners)
	for i := range ms {
		ms[i] = &model{s: s, present: append([]bool(nil), pre...)}
	}
	return ms
}

func (m *model) apply(o op) {
	if o.kind.update() {
		m.present[o.key/m.s.spacing()] = o.kind == opInsert
	}
}

// expectedKeys lists the set the owners' updates leave, ascending.
func expectedKeys(ms []*model) []int64 {
	s := ms[0].s
	var out []int64
	for i := int64(0); i < s.poolN; i++ {
		if ms[i%int64(s.owners)].present[i] {
			out = append(out, s.poolKey(i))
		}
	}
	return out
}
