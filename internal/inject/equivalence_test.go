package inject_test

// The fork-replay engine's hard contract: for a fixed seed, campaign
// results are byte-identical to the rerun engine's, for every built-in
// app, every supervision mode, and any worker count. This is the
// acceptance test for that contract — it compares the full Result
// (counts, liveness splits, signal histograms, crash latencies, metrics),
// the rendered report tables and every injection's observation across
// the engine x workers grid, including a dense waypoint ladder that
// exercises golden-convergence matching and thinning at fine spacing.

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/inject"
	"github.com/letgo-hpc/letgo/internal/report"
)

// normalize strips the diagnostic engine stats (documented as excluded
// from the equivalence contract) so results can be compared wholesale.
func normalize(r *inject.Result) inject.Result {
	n := *r
	n.EngineStats = inject.EngineStats{}
	return n
}

// renderTable renders the result the way cmd/letgo-inject does.
func renderTable(t *testing.T, r *inject.Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := report.Campaigns(&buf, report.Text, []report.CampaignRow{report.Row(r)}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// observations records every injection's observation by plan index,
// without the worker that ran it (which depends on scheduling).
type observations struct {
	mu   sync.Mutex
	byIx map[int]inject.Execution
}

func (o *observations) Phase(string)             {}
func (o *observations) Planned(int, inject.Plan) {}
func (o *observations) Done(*inject.Result)      {}
func (o *observations) Failed(string, error)     {}
func (o *observations) Executed(e inject.Execution) {
	e.Worker = 0
	o.mu.Lock()
	defer o.mu.Unlock()
	o.byIx[e.Index] = e
}

func TestEngineEquivalenceAllAppsAllModes(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 12
	}
	for _, app := range apps.All() {
		for _, mode := range []inject.Mode{inject.NoLetGo, inject.LetGoB, inject.LetGoE} {
			app, mode := app, mode
			t.Run(app.Name+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				type cfg struct {
					engine  inject.Engine
					workers int
					every   uint64
				}
				grid := []cfg{
					{inject.EngineFork, 1, 0},
					{inject.EngineFork, 8, 0},
					{inject.EngineFork, 1, 64},
					{inject.EngineRerun, 1, 0},
					{inject.EngineRerun, 8, 0},
				}
				var ref inject.Result
				var refTable string
				var refObs map[int]inject.Execution
				for gi, g := range grid {
					obs := &observations{byIx: map[int]inject.Execution{}}
					c := &inject.Campaign{
						App: app, Mode: mode, N: n, Seed: 1234,
						Workers: g.workers, Engine: g.engine, WaypointEvery: g.every,
						Observer: obs,
					}
					r, err := c.Run()
					if err != nil {
						t.Fatalf("engine=%v workers=%d every=%d: %v", g.engine, g.workers, g.every, err)
					}
					got := normalize(r)
					table := renderTable(t, r)
					if len(obs.byIx) != n {
						t.Fatalf("engine=%v workers=%d every=%d: observed %d injections, want %d",
							g.engine, g.workers, g.every, len(obs.byIx), n)
					}
					if gi == 0 {
						ref, refTable, refObs = got, table, obs.byIx
						continue
					}
					for i, o := range obs.byIx {
						if o != refObs[i] {
							t.Errorf("engine=%v workers=%d every=%d: injection %d observed %+v, fork/1 %+v",
								g.engine, g.workers, g.every, i, o, refObs[i])
						}
					}
					if !reflect.DeepEqual(got, ref) {
						t.Errorf("engine=%v workers=%d every=%d: result diverges from fork/1:\n%+v\nvs\n%+v",
							g.engine, g.workers, g.every, got, ref)
					}
					if table != refTable {
						t.Errorf("engine=%v workers=%d every=%d: rendered table diverges:\n%s\nvs\n%s",
							g.engine, g.workers, g.every, table, refTable)
					}
				}
			})
		}
	}
}

func TestEngineStatsReportSavings(t *testing.T) {
	app, ok := apps.ByName("CLAMR")
	if !ok {
		t.Fatal("no CLAMR app")
	}
	c := &inject.Campaign{App: app, Mode: inject.LetGoE, N: 60, Seed: 5}
	r, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := r.EngineStats
	if s.Engine != "fork" {
		t.Fatalf("default engine = %q, want fork", s.Engine)
	}
	if s.Waypoints == 0 || s.Forks == 0 {
		t.Errorf("stats report no forking activity: %+v", s)
	}
	// The whole point: positioning replays far fewer prefix instructions
	// than rerunning every injection from PC 0 would.
	if s.InstrsSaved == 0 {
		t.Errorf("fork engine saved nothing: %+v", s)
	}
	if s.InstrsReplayed >= s.InstrsSaved {
		t.Logf("note: replayed %d >= saved %d (tiny app or sparse plans)", s.InstrsReplayed, s.InstrsSaved)
	}

	rr := &inject.Campaign{App: app, Mode: inject.LetGoE, N: 60, Seed: 5, Engine: inject.EngineRerun}
	r2, err := rr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s2 := r2.EngineStats; s2 != (inject.EngineStats{Engine: "rerun"}) {
		t.Errorf("rerun engine stats should be empty, got %+v", s2)
	}
}

func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want inject.Engine
		ok   bool
	}{
		{"fork", inject.EngineFork, true},
		{"rerun", inject.EngineRerun, true},
		{"", inject.EngineFork, true},
		{"warp", 0, false},
	} {
		got, err := inject.ParseEngine(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v", tc.in, got, err)
		}
	}
}
