package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/inject"
	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/outcome"
	"github.com/letgo-hpc/letgo/internal/pin"
	"github.com/letgo-hpc/letgo/internal/report"
	"github.com/letgo-hpc/letgo/internal/resilience"
)

// workers is the campaign worker count of every workload. It is fixed,
// not GOMAXPROCS, because the fork engine's per-worker chunking decides
// the fork and page-copy counts the traced run reports as deterministic.
const workers = 2

// workload is one closed-batch benchmark configuration: all six apps,
// one LetGo mode, N injections per app on the fork engine, driven in a
// single process through the campaign's Plan/Shard/Execute/Merge stage
// API.
type workload struct {
	Name string
	Why  string
	Mode inject.Mode
	N    int // injections per app
	// Shards > 0 runs the campaign as that many static shards in
	// sequence, each into its own journal file, then merges the files.
	Shards int
	// Journal shares one file-backed journal among the six campaigns.
	Journal bool
}

var workloads = []workload{
	{
		Name: "e-fork",
		Why:  "default user configuration (LetGo-E, fork engine, shared journal); LetGo-supervised suffix execution dominates and over half the injections end masked",
		Mode: inject.LetGoE, N: 200, Journal: true,
	},
	{
		Name: "shard-merge",
		Why:  "NoLetGo fork engine as three static shards plus a journal merge: planning runs per shard and suffixes are short, so plan, positioning and journal work weigh most",
		Mode: inject.NoLetGo, N: 300, Shards: 3,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// specs returns the shard specs the workload executes, in order.
func (w workload) specs() []inject.ShardSpec {
	if w.Shards == 0 {
		return []inject.ShardSpec{{}}
	}
	out := make([]inject.ShardSpec, w.Shards)
	for i := range out {
		out[i] = inject.ShardSpec{Index: i + 1, Count: w.Shards}
	}
	return out
}

// bench is one process's run of one workload at one seed.
type bench struct {
	w    workload
	seed uint64
	apps []*apps.App
	dir  string // journals and span dumps
	// want is the reference table every repetition must render byte for
	// byte: the stored one when the seed has one, else the first
	// repetition's (which the engine oracle then checks).
	want   []byte
	stored bool
	// problems lists every failed check; any entry fails the whole run.
	problems []string
}

func newBench(w workload, seed uint64, dir string) (*bench, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	refs, err := loadRefs()
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, seed: seed, apps: apps.All(), dir: dir}
	if ref, ok := refs[w.Name][strconv.FormatUint(seed, 10)]; ok {
		b.want, b.stored = []byte(ref), true
	}
	return b, nil
}

func (b *bench) fail(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// campaign returns the workload's campaign for one app. Each campaign gets
// its own copy of the app, so its PlanContext compiles the program as a
// fresh letgo-inject process (or shard process) does; the registry's App
// would compile once and serve every later campaign from its cache.
func (b *bench) campaign(app *apps.App, engine inject.Engine) *inject.Campaign {
	return &inject.Campaign{App: freshApp(app), Mode: b.w.Mode, N: b.w.N, Seed: b.seed, Workers: workers, Engine: engine}
}

// freshApp copies a's exported fields into a new App with an empty
// compile cache. TestFreshAppCopiesEveryField guards it against new fields.
func freshApp(a *apps.App) *apps.App {
	return &apps.App{
		Name: a.Name, Domain: a.Domain, Source: a.Source, Asm: a.Asm, Iterative: a.Iterative,
		Accept: a.Accept, Output: a.Output, Tolerance: a.Tolerance, CheckGlobals: a.CheckGlobals,
	}
}

// recorder is a passive campaign Observer keeping every injection's
// observation by plan index, for the engine oracle and the traced
// instruction counts.
type recorder struct {
	execs []inject.Execution
	seen  []bool
}

func newRecorder(n int) *recorder {
	return &recorder{execs: make([]inject.Execution, n), seen: make([]bool, n)}
}

func (r *recorder) Phase(string)                {}
func (r *recorder) Planned(int, inject.Plan)    {}
func (r *recorder) Done(*inject.Result)         {}
func (r *recorder) Failed(string, error)        {}
func (r *recorder) Executed(e inject.Execution) { r.execs[e.Index], r.seen[e.Index] = e, true }

// execUnit is what later steps of a repetition read from one
// ExecuteContext call. It keeps the executed injections' sites rather than
// the PlannedCampaign, whose golden run (the final machine and every
// waypoint snapshot) would otherwise stay live until the repetition ends
// and inflate peak_rss_mb beyond what a letgo-inject process holds; the
// unit and the result carry no part of the plan.
type execUnit struct {
	app   *apps.App
	unit  *inject.WorkUnit
	sites []pin.Site // by position in unit.Indices
	res   *inject.Result
}

// repResult is one repetition of the workload.
type repResult struct {
	campaign, setup, execute time.Duration
	attempted, failed        int
	units                    []execUnit
	final                    []*inject.Result // one per app, as rendered
	table                    []byte
	journals                 []*resilience.Journal
	rec                      map[string]*recorder // by app name
}

// rep runs the workload once: every PlanContext, Shard and ExecuteContext
// call, the shard merge if any, the table rendering and its check. hub and
// tr are nil in untraced repetitions.
func (b *bench) rep(ctx context.Context, hub *obs.Hub, tr *tracer) (*repResult, error) {
	w := b.w
	r := &repResult{rec: map[string]*recorder{}}
	for _, app := range b.apps {
		r.rec[app.Name] = newRecorder(w.N)
	}
	// Journals are created before the clock starts; Create only probes
	// that the path is writable.
	var paths []string
	if w.Journal || w.Shards > 0 {
		count := max(w.Shards, 1)
		for i := 1; i <= count; i++ {
			path := filepath.Join(b.dir, fmt.Sprintf("journal-%d.jsonl", i))
			j, err := resilience.Create(path)
			if err != nil {
				return nil, err
			}
			paths = append(paths, path)
			r.journals = append(r.journals, j)
		}
	}
	defer func() {
		for _, p := range paths {
			os.Remove(p)
		}
	}()

	start := time.Now()
	root := tr.start("campaign", 0, "")
	for si, spec := range w.specs() {
		for _, app := range b.apps {
			c := b.campaign(app, inject.EngineFork)
			c.Obs, c.Observer = hub, r.rec[app.Name]
			if len(r.journals) > 0 {
				c.Journal = r.journals[si]
			}
			sp := tr.start("inject.plan", root, app.Name)
			t := time.Now()
			p, err := c.PlanContext(ctx)
			r.setup += time.Since(t)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			unit, err := p.Shard(spec)
			if err != nil {
				return nil, err
			}
			sp = tr.start("inject.execute", root, app.Name)
			t = time.Now()
			res, err := c.ExecuteContext(ctx, p, unit)
			r.execute += time.Since(t)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			sites := make([]pin.Site, unit.Size())
			for k, i := range unit.Indices {
				sites[k] = p.Plans[i].Site
			}
			r.units = append(r.units, execUnit{app: app, unit: unit, sites: sites, res: res})
			if w.Shards == 0 {
				r.final = append(r.final, res)
			}
		}
	}
	if w.Shards > 0 {
		sp := tr.start("resilience.merge_files", root, "")
		merged, collisions, err := resilience.MergeFiles(paths)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		// Static shards are disjoint, so any collision is a defect.
		if len(collisions) > 0 {
			b.fail("merge: %d writer collisions, first %v", len(collisions), collisions[0])
		}
		for _, app := range b.apps {
			c := b.campaign(app, inject.EngineFork)
			c.Obs = hub
			sp := tr.start("inject.merge", root, app.Name)
			res, err := c.MergeContext(ctx, merged)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			r.final = append(r.final, res)
		}
	}
	sp := tr.start("report.render", root, "")
	rows := make([]report.CampaignRow, len(r.final))
	for i, res := range r.final {
		rows[i] = report.Row(res)
	}
	var buf bytes.Buffer
	err := report.Campaigns(&buf, report.CSV, rows)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	r.table = buf.Bytes()
	sp = tr.start("check", root, "")
	b.check(r)
	tr.end(sp)
	r.campaign = time.Since(start)
	tr.end(root)
	return r, nil
}

// check gates one repetition: every injection was classified by the
// program (none lost, none quarantined) and the rendered table matches
// the reference byte for byte.
func (b *bench) check(r *repResult) {
	for _, u := range r.units {
		r.attempted += u.unit.Size()
		lost := u.res.Planned - u.res.Completed
		quarantined := u.res.Counts.By[outcome.CHang] + u.res.Counts.By[outcome.HarnessFault]
		r.failed += lost + quarantined
		if lost > 0 || quarantined > 0 || u.res.Interrupted {
			b.fail("%s %s: %d lost, %d quarantined", u.app.Name, u.unit.Spec, lost, quarantined)
		}
	}
	for _, res := range r.final {
		if res.Interrupted || res.Completed != b.w.N {
			b.fail("%s: final result covers %d/%d injections", res.App, res.Completed, b.w.N)
		}
	}
	if b.want == nil {
		b.want = r.table
	} else if !bytes.Equal(r.table, b.want) {
		b.fail("table differs from the reference:\n--- want\n%s--- got\n%s", b.want, r.table)
	}
}

// oracleSamples is how many plan indices per app the engine oracle
// re-executes on the rerun engine.
const oracleSamples = 16

// oracle re-executes an evenly spaced sample of each app's injections on
// the rerun engine, the repository's reference, and requires every
// observation (class, signal, retired instructions, crash latency,
// liveness, repair safety) to equal the one the timed fork-engine
// repetition made. This is what makes a seed without a stored reference
// table checkable.
// got holds the timed repetition's recorders by app name.
func (b *bench) oracle(ctx context.Context, got map[string]*recorder) error {
	idx := sample(b.w.N, oracleSamples)
	for _, app := range b.apps {
		want := newRecorder(b.w.N)
		c := b.campaign(app, inject.EngineRerun)
		c.Observer = want
		p, err := c.PlanContext(ctx)
		if err != nil {
			return err
		}
		unit, err := p.Unit(idx)
		if err != nil {
			return err
		}
		if _, err := c.ExecuteContext(ctx, p, unit); err != nil {
			return err
		}
		for _, i := range idx {
			g, o := got[app.Name].execs[i], want.execs[i]
			g.Worker, o.Worker = 0, 0
			if !got[app.Name].seen[i] || !want.seen[i] || g != o {
				b.fail("oracle: %s injection %d: fork engine saw %+v, rerun engine saw %+v",
					app.Name, i, g, o)
			}
		}
	}
	return nil
}

// sample returns k plan indices spread evenly over [0, n).
func sample(n, k int) []int {
	k = min(k, n)
	out := make([]int, k)
	for i := range out {
		out[i] = i * n / k
	}
	return out
}
