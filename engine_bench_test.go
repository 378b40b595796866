// Engine benchmarks: the fork-replay substrate against the classic
// rerun-from-PC-0 substrate, on identical campaigns (same app, seed, N —
// so byte-identical outcome tables). Each benchmark merges its headline
// numbers into BENCH_engine.json at the repo root, the machine-readable
// record EXPERIMENTS.md E15 interprets:
//
//	go test -bench 'BenchmarkCampaign(Fork|Rerun)' -benchtime 1x .
package letgo

import (
	"encoding/json"
	"os"
	"testing"

	"github.com/letgo-hpc/letgo/internal/inject"
)

// engineBenchN is sized so the prefix-sharing effect dominates: with 500
// injections the rerun engine executes ~500 golden prefixes, the fork
// engine roughly one plus N*K/2 replayed instructions.
const engineBenchN = 500

// engineBenchEntry is one benchmark record in BENCH_engine.json.
type engineBenchEntry struct {
	App            string  `json:"app"`
	Engine         string  `json:"engine"`
	N              int     `json:"n"`
	NsPerOp        float64 `json:"ns_per_op"`
	Waypoints      int     `json:"waypoints"`
	Forks          uint64  `json:"forks"`
	PagesCopied    uint64  `json:"pages_copied"`
	InstrsReplayed uint64  `json:"instrs_replayed"`
	InstrsSaved    uint64  `json:"instrs_saved"`
	Converged      uint64  `json:"converged"`
	SuffixSkipped  uint64  `json:"suffix_skipped"`
	GoldenInstrs   uint64  `json:"golden_instrs"`
}

// mergeEngineBench read-merge-writes one entry into BENCH_engine.json,
// keyed by (app, engine, n), so fork and rerun runs accumulate into one
// comparable record regardless of invocation order.
func mergeEngineBench(b *testing.B, e engineBenchEntry) {
	b.Helper()
	const path = "BENCH_engine.json"
	var entries []engineBenchEntry
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &entries); err != nil {
			b.Logf("ignoring unparsable %s: %v", path, err)
			entries = nil
		}
	}
	replaced := false
	for i, old := range entries {
		if old.App == e.App && old.Engine == e.Engine && old.N == e.N {
			entries[i] = e
			replaced = true
			break
		}
	}
	if !replaced {
		entries = append(entries, e)
	}
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

func benchCampaignEngine(b *testing.B, appName string, eng inject.Engine) {
	app, ok := AppByName(appName)
	if !ok {
		b.Fatalf("unknown app %s", appName)
	}
	// NoLetGo is the paper's baseline crash-measurement mode and the
	// engine's best case: the ~56% of runs that crash do so within a
	// short latency, so nearly all of their cost is the clean prefix —
	// exactly the work fork-replay shares instead of re-executing.
	var r *CampaignResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &Campaign{App: app, Mode: NoLetGo, N: engineBenchN, Seed: 2017, Engine: eng}
		var err error
		if r, err = c.Run(); err != nil {
			b.Fatal(err)
		}
	}
	nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	s := r.EngineStats
	b.ReportMetric(float64(s.PagesCopied), "pages_copied")
	b.ReportMetric(float64(s.InstrsReplayed), "instrs_replayed")
	b.ReportMetric(float64(s.InstrsSaved), "instrs_saved")
	b.ReportMetric(float64(s.SuffixSkipped), "suffix_skipped")
	mergeEngineBench(b, engineBenchEntry{
		App: appName, Engine: eng.String(), N: engineBenchN,
		NsPerOp:   nsPerOp,
		Waypoints: s.Waypoints, Forks: s.Forks, PagesCopied: s.PagesCopied,
		InstrsReplayed: s.InstrsReplayed, InstrsSaved: s.InstrsSaved,
		Converged: s.Converged, SuffixSkipped: s.SuffixSkipped,
		GoldenInstrs: r.GoldenRetired,
	})
}

// BenchmarkCampaignFork runs a full LetGo-E campaign on the fork-replay
// engine (golden recorded once, injections positioned by COW fork +
// delta replay).
func BenchmarkCampaignFork(b *testing.B) {
	benchCampaignEngine(b, "CLAMR", inject.EngineFork)
}

// BenchmarkCampaignRerun is the identical campaign on the rerun engine:
// every injection re-executes the program from PC 0 to its site.
func BenchmarkCampaignRerun(b *testing.B) {
	benchCampaignEngine(b, "CLAMR", inject.EngineRerun)
}
