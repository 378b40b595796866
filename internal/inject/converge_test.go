package inject

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"

	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/outcome"
	"github.com/letgo-hpc/letgo/internal/resilience"
	"github.com/letgo-hpc/letgo/internal/vm"
)

// sameMachine reports how a differs from b architecturally — PC, halt
// flag, retirement count, registers bitwise and every mapped byte — or
// "" when it does not.
func sameMachine(a, b *vm.Machine) string {
	switch {
	case a.PC != b.PC:
		return fmt.Sprintf("pc %#x vs %#x", a.PC, b.PC)
	case a.Halted != b.Halted:
		return fmt.Sprintf("halted %v vs %v", a.Halted, b.Halted)
	case a.Retired != b.Retired:
		return fmt.Sprintf("retired %d vs %d", a.Retired, b.Retired)
	case a.X != b.X:
		return fmt.Sprintf("int registers %v vs %v", a.X, b.X)
	}
	for i := range a.F {
		if math.Float64bits(a.F[i]) != math.Float64bits(b.F[i]) {
			return fmt.Sprintf("f%d %v vs %v", i, a.F[i], b.F[i])
		}
	}
	for _, s := range b.Mem.Segments() {
		x, err := a.Mem.ReadBytes(s.Base, s.Size)
		if err != nil {
			return err.Error()
		}
		y, err := b.Mem.ReadBytes(s.Base, s.Size)
		if err != nil {
			return err.Error()
		}
		if !bytes.Equal(x, y) {
			return "segment " + s.Name + " bytes differ"
		}
	}
	return ""
}

// TestConvergedRunsFinishAsGolden is the witness for the early exit:
// every injection the fork engine stops on golden convergence is run to
// the end anyway, and its final machine must equal the golden one. The
// journal must record it as masked with the golden retirement count.
func TestConvergedRunsFinishAsGolden(t *testing.T) {
	n := 24
	if testing.Short() {
		n = 12
	}
	total := 0
	var totalMu sync.Mutex
	t.Cleanup(func() {
		if !t.Failed() && total == 0 {
			t.Error("no injection converged in any campaign: the witness checked nothing")
		}
	})
	for _, app := range apps.All() {
		for _, mode := range []Mode{NoLetGo, LetGoB, LetGoE} {
			app, mode := app, mode
			t.Run(app.Name+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				j, err := resilience.Create(filepath.Join(t.TempDir(), "journal.jsonl"))
				if err != nil {
					t.Fatal(err)
				}
				var mu sync.Mutex
				converged := map[int]bool{}
				c := &Campaign{App: app, Mode: mode, N: n, Seed: 1234, Workers: 2, Journal: j}
				c.afterConverged = func(i int, run, goldenFinal *vm.Machine) {
					w := run.Fork()
					if err := w.Run(math.MaxUint64); err != nil {
						t.Errorf("injection %d: converged run does not finish cleanly: %v", i, err)
						return
					}
					if diff := sameMachine(w, goldenFinal); diff != "" {
						t.Errorf("injection %d: converged run ends unlike golden: %s", i, diff)
					}
					mu.Lock()
					converged[i] = true
					mu.Unlock()
				}
				res, err := c.Run()
				if err != nil {
					t.Fatal(err)
				}
				if uint64(len(converged)) != res.EngineStats.Converged {
					t.Errorf("witnessed %d converged runs, EngineStats.Converged = %d",
						len(converged), res.EngineStats.Converged)
				}
				for _, rec := range j.Records() {
					if !converged[rec.Index] {
						continue
					}
					if rec.Retired != res.GoldenRetired {
						t.Errorf("injection %d: journaled retired %d, golden %d", rec.Index, rec.Retired, res.GoldenRetired)
					}
					if rec.Class != outcome.Benign.String() && rec.Class != outcome.CBenign.String() {
						t.Errorf("injection %d: converged run journaled as %s", rec.Index, rec.Class)
					}
				}
				totalMu.Lock()
				total += len(converged)
				totalMu.Unlock()
			})
		}
	}
}

// TestRetiredCounterCountsExecutedSuffix checks that
// letgo_vm_retired_instructions_total counts the suffix instructions the
// injected runs executed: the rerun engine executes every suffix to its
// end, so it exceeds the fork engine's by exactly the skipped counter.
func TestRetiredCounterCountsExecutedSuffix(t *testing.T) {
	app := testApp(t)
	counters := map[Engine]*obs.Registry{}
	var stats EngineStats
	for _, e := range []Engine{EngineFork, EngineRerun} {
		hub := &obs.Hub{Reg: obs.NewRegistry()}
		c := &Campaign{App: app, Mode: LetGoE, N: 60, Seed: 7, Engine: e, Obs: hub}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		counters[e] = hub.Reg
		if e == EngineFork {
			stats = res.EngineStats
		}
	}
	retired := func(e Engine) uint64 { return counters[e].Counter("letgo_vm_retired_instructions_total").Value() }
	skipped := counters[EngineFork].Counter("letgo_engine_suffix_instructions_skipped_total").Value()
	if skipped == 0 || skipped != stats.SuffixSkipped {
		t.Fatalf("skipped counter = %d, EngineStats.SuffixSkipped = %d; want equal and positive", skipped, stats.SuffixSkipped)
	}
	if got := counters[EngineFork].Counter("letgo_engine_converged_total").Value(); got != stats.Converged {
		t.Errorf("converged counter = %d, EngineStats.Converged = %d", got, stats.Converged)
	}
	if diff := retired(EngineRerun) - retired(EngineFork); diff != skipped {
		t.Errorf("rerun retired %d - fork retired %d = %d, want the skipped count %d",
			retired(EngineRerun), retired(EngineFork), diff, skipped)
	}
	for _, name := range []string{"letgo_engine_converged_total", "letgo_engine_suffix_instructions_skipped_total"} {
		if got := counters[EngineRerun].Counter(name).Value(); got != 0 {
			t.Errorf("rerun %s = %d, want 0", name, got)
		}
	}
}
