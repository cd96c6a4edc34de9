package main

// One sweep protocol for every trajectory experiment. An experiment
// declares what it measures; this file owns how — the GOMAXPROCS sweep,
// the rotated repetitions, the medians, the compat row, the gate verdicts
// and the artifact write.

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"time"
)

// spec is the part of an experiment table entry runExperiment reads
// without knowing the experiment's types.
type spec struct {
	id       string
	artifact string // the committed trajectory artifact: -json's default
	reps     int    // declared repetitions per configuration: -reps 0
	procs    []int  // default -gomaxprocs sweep; nil keeps the current setting
	// minOps and minWorkers are the floors a run is raised to; each table
	// entry says why. With smokeOps a one-rep run keeps a smaller explicit
	// -ops instead: the gates are medians of per-rep ratios, so a one-rep
	// run is never gate-grade and only has to exercise the code and the
	// JSON writer (the CI smokes).
	minOps, minWorkers int
	smokeOps           bool
	gates              []gate
}

func (s *spec) meta() *spec { return s }

// experiment is one table entry: the spec plus the typed sweep. At every
// swept P, each configuration is measured under every variant
// back-to-back, reps times. C is a configuration, S one measurement, R one
// proc point of the artifact.
type experiment[C, S, R any] struct {
	spec
	variants []string
	// passes is the number of rotated passes over the variants inside one
	// repetition (default 1). sv1 needs two: its open-loop pass offers a
	// rate derived from both variants' closed-loop pass.
	passes  int
	configs []C
	measure func(p params, cfg C, t trial[S]) (S, error)
	// point turns one P's samples into the artifact's proc point and
	// prints its table.
	point func(p params, topo hostTopology, cells []cell[C, S]) R
	// header prints the banner and returns a pointer to the report with
	// its experiment-specific header fields set; assemble fills the rest.
	header func(p params) any
}

// trial identifies one measurement inside a repetition. cur holds the
// repetition's samples so far, indexed by variant (zero where a variant
// has not run yet).
type trial[S any] struct {
	rep, pass, variant int
	cur                []S
}

// runner is what the table holds: an experiment of any type.
type runner interface {
	meta() *spec
	sweep(p params, procs []int) (report, points any, err error)
}

// sweep measures every P point. Rep r runs variant (r+j) mod n as its
// j-th measurement: with a fixed order, host load drifting monotonically
// across a repetition would systematically penalize whichever variant
// always runs last.
func (x *experiment[C, S, R]) sweep(p params, procs []int) (any, any, error) {
	report := x.header(p)
	var points []R
	err := perP(procs, func(P int) error {
		cells := make([]cell[C, S], len(x.configs))
		for i, cfg := range x.configs {
			cells[i] = cell[C, S]{cfg: cfg, s: make([][]S, len(x.variants))}
			for rep := 0; rep < p.reps; rep++ {
				cur := make([]S, len(x.variants))
				for pass := 0; pass < max(x.passes, 1); pass++ {
					for j := range x.variants {
						v := (rep + j) % len(x.variants)
						s, err := x.measure(p, cfg, trial[S]{rep: rep, pass: pass, variant: v, cur: cur})
						if err != nil {
							return fmt.Errorf("%s: %w", x.variants[v], err)
						}
						cur[v] = s
					}
				}
				for v, s := range cur {
					cells[i].s[v] = append(cells[i].s[v], s)
				}
			}
		}
		points = append(points, x.point(p, topologyAt(P), cells))
		return nil
	})
	return report, points, err
}

// cell is one configuration's samples at one P: s[v][rep].
type cell[C, S any] struct {
	cfg C
	s   [][]S
}

func (c cell[C, S]) med(v int) S { return medianOf(c.s[v]) }

// ratio is the median over repetitions of f(num)/f(den), both sides
// measured in the same repetition: a drifting host-load phase hits a
// repetition's numerator and denominator together and cancels, where a
// ratio of medians would not. Repetitions with a zero denominator are
// skipped; with none left the ratio is 0.
func (c cell[C, S]) ratio(num, den int, f func(S) float64) float64 {
	var rs []float64
	for rep, d := range c.s[den] {
		if fd := f(d); fd > 0 {
			rs = append(rs, f(c.s[num][rep])/fd)
		}
	}
	if len(rs) == 0 {
		return 0
	}
	return median(rs)
}

// median sorts v in place and returns the middle element (upper middle
// for even lengths).
func median(v []float64) float64 {
	sort.Float64s(v)
	return v[len(v)/2]
}

// medianOf returns a sample whose every numeric field is that field's
// median across xs; other fields (names) come from xs[0].
func medianOf[S any](xs []S) S {
	out := xs[0]
	src := make([]reflect.Value, len(xs))
	for i := range xs {
		src[i] = reflect.ValueOf(&xs[i]).Elem()
	}
	setMedians(reflect.ValueOf(&out).Elem(), src)
	return out
}

func setMedians(dst reflect.Value, src []reflect.Value) {
	vals := make([]float64, len(src))
	switch dst.Kind() {
	case reflect.Struct:
		for f := 0; f < dst.NumField(); f++ {
			fields := make([]reflect.Value, len(src))
			for i, s := range src {
				fields[i] = s.Field(f)
			}
			setMedians(dst.Field(f), fields)
		}
	case reflect.Float64:
		for i, s := range src {
			vals[i] = s.Float()
		}
		dst.SetFloat(median(vals))
	case reflect.Int, reflect.Int64:
		for i, s := range src {
			vals[i] = float64(s.Int())
		}
		dst.SetInt(int64(median(vals)))
	}
}

// reportHead opens every artifact. assemble fills Timestamp, and
// GoMaxProcs/NumCPU with the rest of the compat row.
type reportHead struct {
	Experiment string `json:"experiment"`
	Timestamp  string `json:"timestamp"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// gate is one declared acceptance bound on an artifact field.
type gate struct {
	field string // the artifact's top-level key
	// pointField is the value's key inside each proc point when it differs
	// from field (mp1 records a per-P ratio and a top-level minimum).
	pointField string
	op         string // ">=" or "<="
	bound      float64
	// worstOverP judges, and records at top level, the worst value over
	// the swept P points; otherwise the gate reads the compat row, the
	// first swept P.
	worstOverP bool
	// exemptOversubscribed leaves points with P > NumCPU out of the worst:
	// there the measurement is timeslicing on fewer cores, not the overlap
	// the bound is about.
	exemptOversubscribed bool
}

// sign orients comparisons so that larger is better: -1 for "<=".
func (g gate) sign() float64 {
	if g.op == "<=" {
		return -1
	}
	return 1
}

func (g gate) holds(v float64) bool { return g.sign()*v >= g.sign()*g.bound }

// judge returns the gate's value over the proc points under its P rule;
// ok is false when no point qualifies (every swept P exempt) or a point
// lacks the field.
func (g gate) judge(points []map[string]json.RawMessage) (v float64, ok bool) {
	key := g.pointField
	if key == "" {
		key = g.field
	}
	for i, pt := range points {
		if i > 0 && !g.worstOverP {
			break
		}
		var over bool
		_ = json.Unmarshal(pt["oversubscribed"], &over) // absent reads as false
		if g.worstOverP && g.exemptOversubscribed && over {
			continue
		}
		var x float64
		if json.Unmarshal(pt[key], &x) != nil {
			return 0, false
		}
		if !ok || g.sign()*x < g.sign()*v {
			v, ok = x, true
		}
	}
	return v, ok
}

// verdict is the gate's one-line PASS/MISS report.
func (g gate) verdict(points []map[string]json.RawMessage) string {
	rule := "compat row"
	if g.worstOverP {
		rule = "worst over P"
		if g.exemptOversubscribed {
			rule += ", oversubscribed P exempt"
		}
	}
	v, ok := g.judge(points)
	result := "MISS"
	switch {
	case !ok:
		v, result = 0, "MISS (no qualifying point)"
	case g.holds(v):
		result = "PASS"
	}
	return fmt.Sprintf("gate %s %s %g (%s): %.3f %s", g.field, g.op, g.bound, rule, v, result)
}

// assemble completes report from the swept points: the timestamp, the
// compat row (every top-level key the proc points also carry, taken from
// the first swept P), each gate field under its P rule, and proc_points.
// It prints one verdict line per gate.
func assemble(report any, points any, gates []gate) error {
	raw, err := json.Marshal(points)
	if err != nil {
		return err
	}
	var pts []map[string]json.RawMessage
	if err := json.Unmarshal(raw, &pts); err != nil {
		return err
	}
	buf, err := json.Marshal(report)
	if err != nil {
		return err
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(buf, &top); err != nil {
		return err
	}
	top["timestamp"], _ = json.Marshal(time.Now().UTC().Format(time.RFC3339)) // a string always marshals
	for k := range top {
		if v, ok := pts[0][k]; ok {
			top[k] = v
		}
	}
	top["proc_points"] = raw
	for _, g := range gates {
		if v, ok := g.judge(pts); ok && g.worstOverP {
			top[g.field], _ = json.Marshal(v) // v was decoded from JSON, so it is finite
		}
		fmt.Println(g.verdict(pts))
	}
	if buf, err = json.Marshal(top); err != nil {
		return err
	}
	return json.Unmarshal(buf, report)
}

// runExperiment resolves the invocation against the experiment, sweeps
// it, prints the gate verdicts and writes the artifact unless the path
// is empty. A MISS does not change the exit code.
func runExperiment(x runner, p params) error {
	e := x.meta()
	p, procs, err := e.resolve(p)
	if err != nil {
		return err
	}
	report, points, err := x.sweep(p, procs)
	if err != nil {
		return err
	}
	if err := assemble(report, points, e.gates); err != nil {
		return err
	}
	path := e.artifact
	if p.json != nil {
		path = *p.json
	}
	if path == "" {
		return nil
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", path)
	return nil
}
