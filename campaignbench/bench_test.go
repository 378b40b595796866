package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/letgo-hpc/letgo/internal/apps"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricTables(t *testing.T) {
	seen := map[string]bool{}
	e2e := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric %q: bad or duplicate name", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: direction %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		e2e[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Moves != "" || m.On != "" {
			t.Errorf("end-to-end metric %s maps to another metric", m.Name)
		}
	}
	if !e2e["setup_s"] {
		t.Error("no setup_s metric")
	}
	for _, m := range perLayer {
		if m.On == "" {
			t.Errorf("per-layer metric %s names no workload", m.Name)
		}
		for _, target := range strings.Split(m.Moves, ",") {
			if target != "none" && !e2e[target] {
				t.Errorf("per-layer metric %s moves unknown end-to-end metric %q", m.Name, target)
			}
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps the repository's BENCHMARK.json in
// step with the tables the benchmark reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds || len(doc.Paths) != 1 || doc.Paths[0] != "campaignbench" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i] != (entry{Name: w.Name, Why: w.Why}) {
			t.Errorf("workload %d: BENCHMARK.json %+v, here %s", i, doc.Workloads[i], w.Name)
		}
	}
	check := func(kind string, got []entry, want []metric, bound bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, m := range want {
			e := entry{Name: m.Name, Unit: m.Unit, Better: m.Better}
			if bound {
				e.Bound = m.Bound
			}
			if got[i] != e {
				t.Errorf("%s %d: BENCHMARK.json %+v, here %+v", kind, i, got[i], e)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

func TestReferencesCoverDocumentedSeeds(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range []uint64{DefaultSeed, HeldOutSeed} {
			table := refs[w.Name][strconv.FormatUint(seed, 10)]
			if rows := strings.Count(table, "\n"); rows != 7 {
				t.Errorf("%s seed %d: reference has %d lines, want a header and six apps", w.Name, seed, rows)
			}
		}
	}
}

// tiny returns workload w at a size a unit test affords, under a name
// no stored reference uses.
func tiny(w workload) workload {
	w.Name = "test-" + w.Name
	w.N = 6
	return w
}

func TestUntracedRunAtTinyN(t *testing.T) {
	for _, w := range workloads {
		b, err := newBench(tiny(w), DefaultSeed, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.run(0.1, false)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		reps := len(res.Detail.Reps["campaign_s"]) // timed; one warm-up precedes them
		if !res.Line.Correct || res.Line.Failed != 0 || reps < minReps || res.Line.Attempted != (reps+1)*res.Detail.Apps*b.w.N {
			t.Errorf("%s: %+v, problems %v", w.Name, res.Line, res.Problems)
		}
		for _, m := range endToEnd {
			if v := res.Line.Metrics[m.Name]; v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v", w.Name, m.Name, v)
			}
		}
	}
}

// TestMismatchFailsWholeRun feeds a wrong reference table: the run must
// report incorrect, count every injection it attempted as failed, and
// drive ok_frac to 0.
func TestMismatchFailsWholeRun(t *testing.T) {
	b, err := newBench(tiny(workloads[1]), DefaultSeed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b.want = []byte("not the table\n")
	res, err := b.run(0.1, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Line.Correct || res.Line.Failed != res.Line.Attempted || res.Line.Metrics["ok_frac"].Value != 0 {
		t.Errorf("mismatched run reported %+v", res.Line)
	}
}

// TestTracedSelfTimes checks the traced run's span tree: no span's
// children cover more than the span itself, and the self times under each
// repetition's root add up to no more than that repetition's campaign_s.
func TestTracedSelfTimes(t *testing.T) {
	for _, w := range workloads {
		b, err := newBench(tiny(w), DefaultSeed, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		metrics, _, err := b.traced(context.Background(), 0.1, tr)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if len(b.problems) > 0 {
			t.Errorf("%s: %v", w.Name, b.problems)
		}
		for _, m := range perLayer {
			if _, ok := metrics[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.Name, m.Name)
			}
		}
		roots := 0
		for _, s := range tr.spans {
			if s.Name != "campaign" {
				continue
			}
			roots++
			total := 0.0
			for id, self := range tr.selfTimes(s.ID) {
				if self < 0 {
					t.Errorf("%s: span %+v has negative self time %g", w.Name, tr.spans[id-1], self)
				}
				total += self
			}
			if total > s.seconds()*(1+1e-9) {
				t.Errorf("%s: self times sum to %g s, campaign_s is %g s", w.Name, total, s.seconds())
			}
		}
		if roots < 2 {
			t.Errorf("%s: %d traced repetitions, want at least 2", w.Name, roots)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q.Q1 != 2.75 || q.Median != 5.5 || q.Q3 != 8.25 || q.Spread != 1 {
		t.Errorf("quartiles = %+v", q)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q := quartiles([]float64{1, 2}); q.Q1 != 0.75 || q.Median != 1.5 || q.Q3 != 2.25 {
		t.Errorf("quartiles of two = %+v", q)
	}
}

func TestParseSeeds(t *testing.T) {
	got, err := parseSeeds("3-5,2017,4")
	if err != nil || len(got) != 4 || got[0] != 3 || got[3] != 2017 {
		t.Errorf("parseSeeds = %v, %v", got, err)
	}
	for _, bad := range []string{"", "x", "5-3", "1-"} {
		if _, err := parseSeeds(bad); err == nil {
			t.Errorf("parseSeeds(%q) accepted", bad)
		}
	}
}

// TestOracleCatchesDisagreement corrupts one observation of a repetition:
// the other engine's re-execution must flag it.
func TestOracleCatchesDisagreement(t *testing.T) {
	b, err := newBench(tiny(workloads[0]), DefaultSeed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r, err := b.rep(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.problems) > 0 {
		t.Fatalf("clean repetition failed: %v", b.problems)
	}
	r.rec[b.apps[2].Name].execs[0].Retired++
	if err := b.oracle(context.Background(), r.rec); err != nil {
		t.Fatal(err)
	}
	if len(b.problems) != 1 || !strings.Contains(b.problems[0], b.apps[2].Name+" injection 0") {
		t.Errorf("oracle problems = %v", b.problems)
	}
}

// TestFreshAppCopiesEveryField checks that freshApp carries over every
// exported field of every app, so a campaign on the copy is the campaign
// on the registry's app.
func TestFreshAppCopiesEveryField(t *testing.T) {
	for _, a := range apps.All() {
		orig, cp := reflect.ValueOf(a).Elem(), reflect.ValueOf(freshApp(a)).Elem()
		for i := 0; i < orig.NumField(); i++ {
			f := orig.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			o, c := orig.Field(i), cp.Field(i)
			same := reflect.DeepEqual(o.Interface(), c.Interface())
			if f.Type.Kind() == reflect.Func {
				same = o.Pointer() == c.Pointer()
			}
			if !same {
				t.Errorf("%s: freshApp does not copy field %s", a.Name, f.Name)
			}
		}
	}
}

// TestInexactFlagsDisagreement checks the ledger's comparison of traced
// runs: a deterministic count that differs is reported, a timing is not.
func TestInexactFlagsDisagreement(t *testing.T) {
	run := func(forks, execute float64) ledgerRun {
		return ledgerRun{Metrics: map[string]float64{"engine.forks": forks, "inject.execute_s": execute}}
	}
	if got := inexact([]ledgerRun{run(10, 1), run(10, 2)}); len(got) != 0 {
		t.Errorf("equal counts flagged: %v", got)
	}
	if got := inexact([]ledgerRun{run(10, 1), run(11, 1)}); len(got) != 1 || !strings.Contains(got[0], "engine.forks") {
		t.Errorf("differing forks: %v", got)
	}
}
