package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"github.com/letgo-hpc/letgo/internal/engine"
	"github.com/letgo-hpc/letgo/internal/inject"
	"github.com/letgo-hpc/letgo/internal/lang"
	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/outcome"
	"github.com/letgo-hpc/letgo/internal/pin"
	"github.com/letgo-hpc/letgo/internal/resilience"
	"github.com/letgo-hpc/letgo/internal/vm"
)

// span is one timed call the benchmark made into a layer. Spans stay in
// memory and are written out when the run ends.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"` // 0: a root span
	Rep    int           `json:"rep"`              // the traced repetition
	Name   string        `json:"name"`
	App    string        `json:"app,omitempty"`
	Start  time.Duration `json:"start_ns"` // since the run began
	End    time.Duration `json:"end_ns"`
}

func (s span) seconds() float64 { return (s.End - s.Start).Seconds() }

// tracer records spans. A nil tracer records nothing, so untraced
// repetitions run the same code.
type tracer struct {
	t0    time.Time
	rep   int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(name string, parent int, app string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Rep: t.rep, Name: name, App: app, Start: time.Since(t.t0)})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t != nil && id > 0 {
		t.spans[id-1].End = time.Since(t.t0)
	}
}

// sum adds up the durations of every span with this name in repetition rep.
func (t *tracer) sum(rep int, name string) float64 {
	total := 0.0
	for _, s := range t.spans {
		if s.Rep == rep && s.Name == name {
			total += s.seconds()
		}
	}
	return total
}

// selfTimes returns each span's duration minus the part its children
// cover, by span ID, for root and every span beneath it.
func (t *tracer) selfTimes(root int) map[int]float64 {
	self := map[int]float64{}
	in := map[int]bool{root: true}
	for _, s := range t.spans { // children always follow their parent
		if s.ID == root || in[s.Parent] {
			in[s.ID] = true
			self[s.ID] += s.seconds()
			if s.ID != root {
				self[s.Parent] -= s.seconds()
			}
		}
	}
	return self
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// probe times the layers the plan stage runs inside PlanContext by calling
// their public functions directly, once per PlanContext call the
// repetition made, and resolves every executed injection's dynamic
// position (its "when") for the instruction counts.
func (b *bench) probe(tr *tracer, r *repResult) (whens map[string][]uint64, waypoints int, err error) {
	root := tr.start("probe", 0, "")
	defer tr.end(root)
	whens = map[string][]uint64{}
	for _, u := range r.units {
		name := u.app.Name
		// apps.App.Compile caches per process, so the probe calls the
		// compiler itself to see its cost.
		sp := tr.start("lang.compile", root, name)
		prog, err := lang.Compile(u.app.Source)
		tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
		sp = tr.start("pin.analyze", root, name)
		an := pin.Analyze(prog)
		an.Static()
		tr.end(sp)
		sp = tr.start("analysis.checkpoint_set", root, name)
		_, err = an.CheckpointSet(u.app.AcceptanceGlobals())
		tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
		sp = tr.start("engine.record", root, name)
		gold, err := engine.Record(prog, vm.Config{}, 0, 1<<32)
		tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
		waypoints += gold.Waypoints()
		sp = tr.start("engine.resolve", root, name)
		ws, err := gold.ResolveWhens(u.sites)
		tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
		if whens[name] == nil {
			whens[name] = make([]uint64, b.w.N)
		}
		for k, i := range u.unit.Indices {
			whens[name][i] = ws[k]
		}
	}
	// The journal layer: replay each journal's record stream through
	// Create, Append and Flush exactly as the scheduler produced it.
	for k, j := range r.journals {
		sp := tr.start("resilience.append_flush", root, "")
		path := filepath.Join(b.dir, fmt.Sprintf("probe-%d.jsonl", k))
		nj, err := resilience.Create(path)
		if err == nil {
			for _, rec := range j.Records() {
				if err = nj.Append(rec); err != nil {
					break
				}
			}
		}
		if err == nil {
			err = nj.Flush()
		}
		tr.end(sp)
		os.Remove(path)
		if err != nil {
			return nil, 0, err
		}
	}
	return whens, waypoints, nil
}

// writeChars reads the process's cumulative write(2) byte count.
func writeChars() (uint64, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := bytes.CutPrefix(sc.Bytes(), []byte("wchar: ")); ok {
			return strconv.ParseUint(string(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("no wchar in /proc/self/io")
}

// timedSpans are the benchmark's spans whose summed duration is a
// per-layer metric of the same name with an "_s" suffix.
var timedSpans = []string{
	"inject.plan", "inject.execute", "inject.merge", "resilience.merge_files",
	"report.render", "lang.compile", "pin.analyze", "analysis.checkpoint_set",
	"engine.record", "engine.resolve", "resilience.append_flush",
}

// traced runs the per-layer measurement: untraced and traced repetitions
// alternate until the time is up, the traced ones with a fresh obs.Hub
// attached to every campaign and benchmark spans around every stage call,
// each followed by the layer probes. The first untraced repetition is
// the warm-up, as in an untraced run. Values are per-repetition means,
// except the injection-latency quantiles, which are medians of the
// per-repetition quantiles.
func (b *bench) traced(ctx context.Context, seconds float64, tr *tracer) (map[string]float64, *runStats, error) {
	st := &runStats{}
	tot := map[string]float64{}
	var p50, p99 []float64      // per traced repetition, in ms
	var outcomes outcome.Counts // pooled, so the fractions repeat exactly
	start := time.Now()
	for k := 0; ; k++ {
		r, err := b.rep(ctx, nil, nil)
		if err != nil {
			return nil, nil, err
		}
		if k == 0 { // the warm-up: checked, not timed
			st.count(r)
			if err := b.oracle(ctx, r.rec); err != nil {
				return nil, nil, err
			}
		} else {
			st.add(r)
		}

		tr.rep = k
		// A hub per repetition keeps every execute span among the raw
		// samples its histogram retains for exact quantiles.
		hub := &obs.Hub{Reg: obs.NewRegistry()}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		w0, err := writeChars()
		if err != nil {
			return nil, nil, err
		}
		r, err = b.rep(ctx, hub, tr)
		if err != nil {
			return nil, nil, err
		}
		w1, err := writeChars()
		if err != nil {
			return nil, nil, err
		}
		runtime.ReadMemStats(&m1)
		st.count(r)
		st.tracedCampaign = append(st.tracedCampaign, r.campaign.Seconds())
		tot["resilience.write_bytes"] += float64(w1 - w0)
		tot["go.alloc_mb"] += float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		tot["go.gc_cycles"] += float64(m1.NumGC - m0.NumGC)
		whens, waypoints, err := b.probe(tr, r)
		if err != nil {
			return nil, nil, err
		}
		tot["engine.waypoints"] += float64(waypoints)
		b.hubMetrics(tot, hub, b.countWork(tot, &outcomes, r, whens))
		exec := spanHistogram(hub, "execute")
		p50 = append(p50, exec.P50*1e3)
		p99 = append(p99, exec.P99*1e3)
		for _, name := range timedSpans {
			tot[name+"_s"] += tr.sum(k, name)
		}
		if k >= 1 && time.Since(start).Seconds()*float64(k+2)/float64(k+1) > seconds {
			break
		}
	}
	reps := float64(len(st.tracedCampaign))
	out := map[string]float64{}
	for name, v := range tot {
		out[name] = v / reps
	}
	out["inject.injection_ms.p50"] = median(p50)
	out["inject.injection_ms.p99"] = median(p99)
	out["outcome.masked_frac"] = inject.MaskedFrac(&outcomes)
	out["outcome.crash_frac"] = float64(outcomes.CrashTotal()) / float64(outcomes.N)
	out["obs.trace_overhead_frac"] = median(st.tracedCampaign)/median(st.campaign) - 1
	return out, st, nil
}

// countWork adds one traced repetition's deterministic work counts to tot
// and its classified injections to outcomes. It returns the suffix
// instructions, those the program executed inside its execute spans.
func (b *bench) countWork(tot map[string]float64, outcomes *outcome.Counts, r *repResult, whens map[string][]uint64) (suffix float64) {
	for _, u := range r.units {
		rec, ws := r.rec[u.app.Name], whens[u.app.Name]
		for _, i := range u.unit.Indices {
			e := rec.execs[i]
			suffix += float64(e.Retired - min(ws[i], e.Retired))
		}
		es := u.res.EngineStats
		tot["engine.forks"] += float64(es.Forks)
		tot["engine.pages_copied"] += float64(es.PagesCopied)
		tot["engine.golden_instrs"] += float64(u.res.GoldenRetired)
		tot["engine.prefix_instrs"] += float64(es.InstrsReplayed)
	}
	tot["vm.suffix_instrs"] += suffix
	for _, res := range r.final {
		outcomes.Merge(res.Counts)
	}
	return suffix
}

// hubMetrics adds one traced repetition's metrics that only the
// program's own spans and counters can see, those inside the fork
// scheduler, to tot. suffix is the repetition's countWork result.
func (b *bench) hubMetrics(tot map[string]float64, hub *obs.Hub, suffix float64) {
	exec, classify := spanHistogram(hub, "execute"), spanHistogram(hub, "classify")
	tot["outcome.classify_s"] += classify.Sum
	tot["core.repair_s"] += spanHistogram(hub, "repair").Sum
	tot["core.repairs"] += float64(hub.Counter("letgo_repairs_total").Value())
	tot["inject.injection_ms.samples"] += float64(exec.Count)
	tot["vm.minstrs_per_s"] += suffix / exec.Sum / 1e6
	// Derived: worker time outside the injected run and classification.
	tot["engine.prefix_replay_s"] += spanHistogram(hub, "worker_chunk").Sum - exec.Sum - classify.Sum
}

// spanHistogram returns the hub's duration histogram of the named span.
func spanHistogram(hub *obs.Hub, name string) obs.HistogramValue {
	for _, h := range hub.Reg.Snapshot().Histograms {
		if h.Name == obs.SpanHistogram && h.Labels["span"] == name {
			return h
		}
	}
	return obs.HistogramValue{}
}
