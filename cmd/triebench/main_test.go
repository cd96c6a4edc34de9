package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

// testParams is the minimal invocation the registry tests drive run()
// with: tiny op budget, one rep, artifact writes disabled.
func testParams() params {
	empty := ""
	return params{ops: 1000, workers: 1, seed: 1, shards: 16, reps: 1, json: &empty}
}

// TestRunUnknownExperimentFails: a typo'd -experiment id must surface an
// error (main exits non-zero on it), never silently run nothing — the CI
// experiment steps depend on a bad id failing the step loudly. The error
// must also name the valid ids, so the typo is a one-glance fix.
func TestRunUnknownExperimentFails(t *testing.T) {
	err := run("cbl", testParams())
	if err == nil {
		t.Fatal(`run("cbl") returned nil for an unknown experiment id`)
	}
	if !strings.Contains(err.Error(), `unknown experiment "cbl"`) {
		t.Fatalf("error %q does not name the unknown id", err)
	}
	for _, id := range ids() {
		if !strings.Contains(err.Error(), id) {
			t.Fatalf("error %q does not list valid id %q", err, id)
		}
	}
}

// TestEmptyExperimentFails: the empty string is not a silent no-op either.
func TestEmptyExperimentFails(t *testing.T) {
	if err := run("", testParams()); err == nil {
		t.Fatal(`run("") returned nil`)
	}
}

// TestRunRejectsBadGomaxprocs: a malformed -gomaxprocs list must fail the
// run up front, before any experiment burns minutes of measurement time.
func TestRunRejectsBadGomaxprocs(t *testing.T) {
	for _, bad := range []string{"0", "-1", "1,x", "1,,4", "four"} {
		p := testParams()
		p.gomaxprocs = bad
		if err := run("a3", p); err == nil {
			t.Errorf("run with -gomaxprocs %q succeeded", bad)
		}
	}
}

// TestParseGomaxprocs: the sweep parser keeps order, collapses
// duplicates, and resolves the empty string to the current setting.
func TestParseGomaxprocs(t *testing.T) {
	got, err := parseGomaxprocs("1, 4,8,4")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("parseGomaxprocs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseGomaxprocs = %v, want %v", got, want)
		}
	}
	cur, err := parseGomaxprocs("")
	if err != nil {
		t.Fatal(err)
	}
	if len(cur) != 1 || cur[0] != runtime.GOMAXPROCS(0) {
		t.Fatalf("parseGomaxprocs(\"\") = %v, want [%d]", cur, runtime.GOMAXPROCS(0))
	}
}

// TestPerPRestoresSetting: the sweep helper must hand each requested P to
// the callback and leave GOMAXPROCS where it found it — a leaked setting
// would silently skew every later measurement in the same process.
func TestPerPRestoresSetting(t *testing.T) {
	orig := runtime.GOMAXPROCS(0)
	var seen []int
	err := perP([]int{1, 2}, func(p int) error {
		if got := runtime.GOMAXPROCS(0); got != p {
			t.Errorf("callback at p=%d sees GOMAXPROCS=%d", p, got)
		}
		seen = append(seen, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("perP visited %v, want [1 2]", seen)
	}
	if got := runtime.GOMAXPROCS(0); got != orig {
		t.Fatalf("perP left GOMAXPROCS=%d, want %d restored", got, orig)
	}
}

// TestTopologyAt: every trajectory point must carry enough metadata to
// distinguish real parallelism from single-core timeslicing.
func TestTopologyAt(t *testing.T) {
	topo := topologyAt(runtime.NumCPU() + 1)
	if !topo.Oversubscribed {
		t.Error("P above NumCPU not flagged oversubscribed")
	}
	if topo.NumCPU != runtime.NumCPU() || topo.GOOS != runtime.GOOS || topo.GOARCH != runtime.GOARCH {
		t.Errorf("topology %+v does not describe this host", topo)
	}
	if topologyAt(1).Oversubscribed {
		t.Error("P=1 flagged oversubscribed")
	}
}

// TestCC1VacuousGateRefusesAllOnes: when every key has ever been inserted
// the occupancy summary is all-ones, no descent can skip anything, and a
// compression gate measured there is vacuous. The guard must refuse (main
// exits non-zero on the error) with a message naming the condition; a
// sparse prefill must pass.
func TestCC1VacuousGateRefusesAllOnes(t *testing.T) {
	newTrie := func() *core.Trie {
		tr, err := core.New(256)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	dense := newTrie()
	for k := int64(0); k < 256; k++ {
		dense.Insert(k)
	}
	err := cc1VacuousGate(dense.Bits())
	if err == nil {
		t.Fatal("cc1VacuousGate accepted an all-ones summary")
	}
	if !strings.Contains(err.Error(), "vacuous") {
		t.Fatalf("error %q does not explain the gate is vacuous", err)
	}

	sparse := newTrie()
	for k := int64(0); k < 256; k += 64 {
		sparse.Insert(k)
	}
	if err := cc1VacuousGate(sparse.Bits()); err != nil {
		t.Fatalf("cc1VacuousGate rejected a sparse prefill: %v", err)
	}
}

// --- the sweep, with a fake measure -------------------------------------------

type fakePoint struct {
	hostTopology
	Ratio float64 `json:"gate_ratio"`
}

type fakeReport struct {
	reportHead
	Reps   int         `json:"reps_median_of"`
	Ratio  float64     `json:"gate_ratio"`
	Points []fakePoint `json:"proc_points"`
}

// fakeExperiment measures value(rep, variant) and reports, per P, the
// gate ratio variant 0 / variant 1 the sweep computes.
func fakeExperiment(artifact string, reps int, variants []string, value func(rep, v int) float64) *experiment[string, float64, fakePoint] {
	return &experiment[string, float64, fakePoint]{
		spec: spec{
			id: "fake", artifact: artifact, reps: reps,
			gates: []gate{{field: "gate_ratio", op: ">=", bound: 1}},
		},
		variants: variants,
		configs:  []string{"only"},
		measure: func(_ params, _ string, t trial[float64]) (float64, error) {
			return value(t.rep, t.variant), nil
		},
		point: func(_ params, topo hostTopology, cells []cell[string, float64]) fakePoint {
			return fakePoint{hostTopology: topo, Ratio: cells[0].ratio(0, 1, self)}
		},
		header: func(p params) any { return &fakeReport{reportHead: reportHead{Experiment: "fake"}, Reps: p.reps} },
	}
}

// TestSweepRotatesVariantOrder: repetition r runs variant (r+j) mod n as
// its j-th measurement, so monotone host drift cannot always land on the
// same variant.
func TestSweepRotatesVariantOrder(t *testing.T) {
	var order [][]int
	x := fakeExperiment("", 4, []string{"a", "b", "c"}, func(rep, v int) float64 {
		if rep == len(order) {
			order = append(order, nil)
		}
		order[rep] = append(order[rep], v)
		return 1
	})
	p := testParams()
	p.reps = 0
	if err := runExperiment(x, p); err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 {
		t.Fatalf("ran %d repetitions, want the declared 4", len(order))
	}
	for r, got := range order {
		for j, v := range got {
			if want := (r + j) % 3; v != want {
				t.Fatalf("rep %d ran order %v, want variant %d at position %d", r, got, want, j)
			}
		}
	}
}

// TestGateRatioIsMedianOfPerRepRatios: per-rep ratios 1/1, 10/5, 100/200
// have median 1, while the ratio of the per-variant medians is 10/5 = 2.
// The artifact must carry the former.
func TestGateRatioIsMedianOfPerRepRatios(t *testing.T) {
	num, den := []float64{1, 10, 100}, []float64{1, 5, 200}
	path := filepath.Join(t.TempDir(), "BENCH_fake.json")
	x := fakeExperiment(path, 3, []string{"num", "den"}, func(rep, v int) float64 {
		if v == 0 {
			return num[rep]
		}
		return den[rep]
	})
	p := testParams()
	p.reps, p.json = 0, nil
	if err := runExperiment(x, p); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got fakeReport
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.Ratio != 1 || got.Points[0].Ratio != 1 {
		t.Fatalf("gate ratio = %v (point %v), want the median of per-rep ratios 1", got.Ratio, got.Points[0].Ratio)
	}
}

// TestCompatRowFollowsGateRule: the top-level copy of a gate field is the
// first swept P's value under the compat rule, and the worst value over P
// (oversubscribed points left out when exempt) under worst-over-P.
func TestCompatRowFollowsGateRule(t *testing.T) {
	points := []fakePoint{
		{hostTopology: hostTopology{GoMaxProcs: 1, NumCPU: 2}, Ratio: 3},
		{hostTopology: hostTopology{GoMaxProcs: 2, NumCPU: 2}, Ratio: 1.5},
		{hostTopology: hostTopology{GoMaxProcs: 4, NumCPU: 2, Oversubscribed: true}, Ratio: 0.5},
	}
	for _, tc := range []struct {
		name string
		g    gate
		want float64
	}{
		{"compat row", gate{op: ">="}, 3},
		{"worst over P", gate{op: ">=", worstOverP: true}, 0.5},
		{"worst over non-oversubscribed P", gate{op: ">=", worstOverP: true, exemptOversubscribed: true}, 1.5},
		{"worst over P of an upper bound", gate{op: "<=", worstOverP: true}, 3},
	} {
		tc.g.field = "gate_ratio"
		report := &fakeReport{reportHead: reportHead{Experiment: "fake"}}
		if err := assemble(report, points, []gate{tc.g}); err != nil {
			t.Fatal(err)
		}
		if report.Ratio != tc.want {
			t.Errorf("%s: top-level gate_ratio = %v, want %v", tc.name, report.Ratio, tc.want)
		}
		if report.GoMaxProcs != 1 || report.NumCPU != 2 || len(report.Points) != 3 || report.Timestamp == "" {
			t.Errorf("%s: compat row / proc_points not filled: %+v", tc.name, report)
		}
	}
}

// TestGateVerdict: each row prints PASS or MISS against its bound, in
// either direction.
func TestGateVerdict(t *testing.T) {
	points := []map[string]json.RawMessage{{"gate_x": json.RawMessage("0.5")}}
	for _, tc := range []struct {
		g    gate
		want string
	}{
		{gate{field: "gate_x", op: ">=", bound: 0.4}, "PASS"},
		{gate{field: "gate_x", op: ">=", bound: 0.6}, "MISS"},
		{gate{field: "gate_x", op: "<=", bound: 0.5}, "PASS"},
		{gate{field: "gate_x", op: "<=", bound: 0.4}, "MISS"},
		{gate{field: "gate_missing", op: ">=", bound: 0}, "MISS (no qualifying point)"},
	} {
		if got := tc.g.verdict(points); !strings.HasSuffix(got, " "+tc.want) {
			t.Errorf("%+v: verdict %q, want it to end in %s", tc.g, got, tc.want)
		}
	}
}

// TestRepsZeroResolvesToDeclared: -reps 0 is the experiment's declared
// protocol; an explicit count overrides it.
func TestRepsZeroResolvesToDeclared(t *testing.T) {
	e := &spec{id: "fake", reps: 7}
	for _, tc := range []struct{ flag, want int }{{0, 7}, {2, 2}} {
		p := testParams()
		p.reps = tc.flag
		got, _, err := e.resolve(p)
		if err != nil {
			t.Fatal(err)
		}
		if got.reps != tc.want {
			t.Errorf("-reps %d resolved to %d, want %d", tc.flag, got.reps, tc.want)
		}
	}
}

// TestEmptyJSONWritesNothing: an explicit -json "" disables the write,
// while an absent -json writes the experiment's artifact.
func TestEmptyJSONWritesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_fake.json")
	x := fakeExperiment(path, 1, []string{"a", "b"}, func(_, _ int) float64 { return 1 })
	if err := runExperiment(x, testParams()); err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf(`-json "" wrote %v`, entries)
	}
	p := testParams()
	p.json = nil
	if err := runExperiment(x, p); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("absent -json did not write the artifact: %v", err)
	}
}

// --- the committed artifacts ---------------------------------------------------

// blank returns the experiment's empty report, for decoding.
func (x *experiment[C, S, R]) blank() any { return x.header(params{}) }

// keyPaths collects every object key path in a decoded JSON value.
func keyPaths(prefix string, v any, out map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, e := range v {
			out[prefix+"."+k] = true
			keyPaths(prefix+"."+k, e, out)
		}
	case []any:
		for _, e := range v {
			keyPaths(prefix+"[]", e, out)
		}
	}
}

// TestCommittedArtifactsRoundTrip: every committed BENCH_*.json decodes
// into its experiment's report type with unknown fields disallowed,
// re-encodes with every original key, and carries every declared gate
// field — at top level and in each proc point — so a renamed field cannot
// later read as 0.
func TestCommittedArtifactsRoundTrip(t *testing.T) {
	for _, x := range experiments {
		e := x.meta()
		t.Run(e.id, func(t *testing.T) {
			buf, err := os.ReadFile(filepath.Join("..", "..", e.artifact))
			if err != nil {
				t.Fatal(err)
			}
			report := x.(interface{ blank() any }).blank()
			dec := json.NewDecoder(bytes.NewReader(buf))
			dec.DisallowUnknownFields()
			if err := dec.Decode(report); err != nil {
				t.Fatalf("%s does not decode into %T: %v", e.artifact, report, err)
			}
			again, err := json.Marshal(report)
			if err != nil {
				t.Fatal(err)
			}
			var orig, round map[string]any
			if err := json.Unmarshal(buf, &orig); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(again, &round); err != nil {
				t.Fatal(err)
			}
			want, got := map[string]bool{}, map[string]bool{}
			keyPaths("", orig, want)
			keyPaths("", round, got)
			var lost []string
			for k := range want {
				if !got[k] {
					lost = append(lost, k)
				}
			}
			sort.Strings(lost)
			if len(lost) > 0 {
				t.Errorf("re-encoding %s drops keys %v", e.artifact, lost)
			}
			points, _ := orig["proc_points"].([]any)
			if len(points) == 0 {
				t.Fatalf("%s has no proc_points", e.artifact)
			}
			for _, g := range e.gates {
				if g.op != ">=" && g.op != "<=" {
					t.Errorf("gate %s: operator %q is neither >= nor <=", g.field, g.op)
				}
				if _, ok := orig[g.field].(float64); !ok {
					t.Errorf("%s lacks numeric gate field %q", e.artifact, g.field)
				}
				key := g.pointField
				if key == "" {
					key = g.field
				}
				for i, pt := range points {
					if _, ok := pt.(map[string]any)[key].(float64); !ok {
						t.Errorf("%s proc_points[%d] lacks numeric gate field %q", e.artifact, i, key)
					}
				}
			}
		})
	}
}
