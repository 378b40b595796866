package engine

import (
	"bytes"
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/debug"
	"github.com/letgo-hpc/letgo/internal/isa"
	"github.com/letgo-hpc/letgo/internal/mem"
	"github.com/letgo-hpc/letgo/internal/pin"
	"github.com/letgo-hpc/letgo/internal/vm"
)

func record(t *testing.T, name string, every uint64) *Golden {
	t.Helper()
	app, ok := apps.ByName(name)
	if !ok {
		t.Fatalf("unknown app %s", name)
	}
	prog, err := app.Compile()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Record(prog, vm.Config{}, every, 1<<32)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRecordMatchesPlainExecution(t *testing.T) {
	g := record(t, "SNAP", 0)
	app, _ := apps.ByName("SNAP")
	m, err := app.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(1 << 32); err != nil {
		t.Fatal(err)
	}
	if g.Retired != m.Retired || g.Final.X != m.X || g.Final.PC != m.PC {
		t.Fatalf("recorded golden diverges from plain run: retired %d vs %d", g.Retired, m.Retired)
	}
	// The profile observed while recording equals pin's ProfileRun.
	prof, err := pin.Analyze(g.Prog).ProfileRun(vm.Config{}, 1<<32)
	if err != nil {
		t.Fatal(err)
	}
	gp := g.Profile()
	if gp.Total != prof.Total {
		t.Fatalf("profile totals differ: %d vs %d", gp.Total, prof.Total)
	}
	for i := range prof.Counts {
		if gp.Counts[i] != prof.Counts[i] {
			t.Fatalf("count[%d] = %d, want %d", i, gp.Counts[i], prof.Counts[i])
		}
	}
}

func TestForkAtReplayEquivalence(t *testing.T) {
	g := record(t, "SNAP", 1000)
	for _, target := range []uint64{0, 1, 999, 1000, 1001, g.Retired / 2, g.Retired - 1} {
		f, wp := g.ForkAt(target)
		if f.Retired != wp || wp > target {
			t.Fatalf("ForkAt(%d) positioned at %d (waypoint %d)", target, f.Retired, wp)
		}
		if target-wp >= g.Every {
			t.Fatalf("ForkAt(%d) chose waypoint %d, more than Every=%d away", target, wp, g.Every)
		}
		if stop := debug.New(f).RunToDynamic(target); stop != nil {
			t.Fatalf("replay to %d stopped: %+v", target, stop)
		}
		// Reference: plain execution from scratch.
		ref, err := vm.New(g.Prog, vm.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for ref.Retired < target {
			if err := ref.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if f.PC != ref.PC || f.X != ref.X || f.F != ref.F {
			t.Fatalf("replayed state at %d diverges from straight execution", target)
		}
	}
}

func TestAdaptiveThinningBoundsWaypoints(t *testing.T) {
	g := record(t, "SNAP", 16) // far too fine: forces thinning
	if got := g.Waypoints(); got > maxWaypoints+1 {
		t.Fatalf("waypoints = %d, want <= %d", got, maxWaypoints+1)
	}
	if g.Every == 16 && g.Retired/16 > maxWaypoints {
		t.Fatal("spacing never adapted")
	}
	// Invariants: sorted, first at 0, spacing multiples of Every.
	last := uint64(0)
	for i, w := range g.waypoints {
		if i == 0 && w.retired != 0 {
			t.Fatal("first waypoint not at 0")
		}
		if i > 0 && (w.retired <= last || w.retired%g.Every != 0) {
			t.Fatalf("waypoint %d at %d violates ladder invariants (every %d)", i, w.retired, g.Every)
		}
		last = w.retired
	}
}

func TestResolveWhensMatchesBreakpointCounting(t *testing.T) {
	g := record(t, "CLAMR", 0)
	prof := g.Profile()
	// Pick a handful of sites across the execution.
	var sites []pin.Site
	for _, dyn := range []uint64{0, 1, prof.Total / 3, prof.Total / 2, prof.Total - 1} {
		s, err := prof.SiteOf(dyn)
		if err != nil {
			t.Fatal(err)
		}
		sites = append(sites, s)
	}
	whens, err := g.ResolveWhens(sites)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sites {
		// Reference: breakpoint with ignore count, from PC 0.
		m, err := vm.New(g.Prog, vm.Config{})
		if err != nil {
			t.Fatal(err)
		}
		d := debug.New(m)
		if _, err := d.SetBreakpoint(s.Addr, s.Instance-1); err != nil {
			t.Fatal(err)
		}
		if stop := d.Run(1 << 32); stop.Reason != debug.StopBreakpoint {
			t.Fatalf("site %d: stop %+v", i, stop)
		}
		if m.Retired != whens[i] {
			t.Fatalf("site %d (%#x #%d): ResolveWhens=%d, breakpoint=%d",
				i, s.Addr, s.Instance, whens[i], m.Retired)
		}
		if m.PC != s.Addr {
			t.Fatalf("site %d: breakpoint pc %#x != site addr %#x", i, m.PC, s.Addr)
		}
	}
}

func TestConcurrentForkAtIsSafe(t *testing.T) {
	g := record(t, "SNAP", 500)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				target := uint64(w*137+i*911) % g.Retired
				f, _ := g.ForkAt(target)
				if stop := debug.New(f).RunToDynamic(target); stop != nil {
					t.Errorf("worker %d: replay stopped: %+v", w, stop)
					return
				}
				// Mutate the fork to exercise COW under concurrency.
				f.Mem.Write8(isa.StackTop-8, uint64(w))
			}
		}(w)
	}
	wg.Wait()
}

// segmentBytes reads every mapped byte of m, segment by segment.
func segmentBytes(t *testing.T, m *vm.Machine) map[mem.Segment][]byte {
	t.Helper()
	out := map[mem.Segment][]byte{}
	for _, s := range m.Mem.Segments() {
		b, err := m.Mem.ReadBytes(s.Base, s.Size)
		if err != nil {
			t.Fatal(err)
		}
		out[s] = b
	}
	return out
}

// TestDirtySetsCoverChangedPages checks, at every kept waypoint of a
// thinned ladder, that each page whose bytes differ from the previous
// kept waypoint is in that waypoint's dirty set.
func TestDirtySetsCoverChangedPages(t *testing.T) {
	g := record(t, "SNAP", 16) // far too fine: thins several times
	if g.Every == 16 {
		t.Fatal("ladder never thinned")
	}
	prev := segmentBytes(t, g.waypoints[0].m)
	changed := 0
	for i, w := range g.waypoints[1:] {
		if !slices.IsSorted(w.dirty) {
			t.Fatalf("waypoint %d: dirty set not ascending", i+1)
		}
		cur := segmentBytes(t, w.m)
		for s, b := range cur {
			p := prev[s]
			for addr := s.Base; addr < s.End(); {
				end := min((addr/mem.PageSize+1)*mem.PageSize, s.End())
				lo, hi := addr-s.Base, end-s.Base
				if !bytes.Equal(b[lo:hi], p[lo:hi]) {
					changed++
					if _, ok := slices.BinarySearch(w.dirty, addr/mem.PageSize); !ok {
						t.Fatalf("waypoint %d (retired %d): page %#x changed but is not dirty",
							i+1, w.retired, addr/mem.PageSize)
					}
				}
				addr = end
			}
		}
		prev = cur
	}
	if changed == 0 {
		t.Fatal("no page changed between waypoints: the check compared nothing")
	}
}

// TestRejoinMatchesOnlyGoldenState drives forks of the golden run from
// one position to the next waypoint: an untouched fork rejoins, and a
// fork with one flipped register bit or one flipped memory bit does not.
func TestRejoinMatchesOnlyGoldenState(t *testing.T) {
	g := record(t, "SNAP", 1000)
	from := g.waypoints[3].retired + 17
	run := func(corrupt func(m *vm.Machine)) bool {
		t.Helper()
		f, _ := g.ForkAt(from)
		d := debug.New(f)
		if stop := d.RunToDynamic(from); stop != nil {
			t.Fatalf("replay stopped: %+v", stop)
		}
		m := f.Fork()
		corrupt(m)
		rj := g.Rejoin(from)
		next, ok := rj.Next(m.Retired, g.Retired)
		if !ok || next != g.waypoints[4].retired {
			t.Fatalf("Next = %d, %v; want waypoint 4 at %d", next, ok, g.waypoints[4].retired)
		}
		if stop := debug.New(m).Continue(next); stop.Reason != debug.StopBudget {
			t.Fatalf("run to %d stopped: %+v", next, stop)
		}
		return rj.Matches(m)
	}
	if !run(func(*vm.Machine) {}) {
		t.Error("clean fork did not rejoin the golden run")
	}
	if run(func(m *vm.Machine) { m.F[3] = math.Float64frombits(math.Float64bits(m.F[3]) ^ 1<<40) }) {
		t.Error("fork with a flipped float register rejoined")
	}
	// The last heap word: the program never touches its page. Writing
	// zero materializes an all-zero page, which still equals golden's
	// untouched one; writing a set bit does not.
	last := isa.HeapBase + isa.DefaultHeapBytes - 8
	if !run(func(m *vm.Machine) { m.Mem.Write8(last, 0) }) {
		t.Error("fork with a materialized zero page did not rejoin")
	}
	if run(func(m *vm.Machine) { m.Mem.Write8(last, 1<<7) }) {
		t.Error("fork with a flipped memory bit rejoined")
	}

	// Registers moved to the waypoint without executing: the run wrote
	// nothing, so only the golden run's dirty pages show what is missing.
	f, _ := g.ForkAt(from)
	if stop := debug.New(f).RunToDynamic(from); stop != nil {
		t.Fatalf("replay stopped: %+v", stop)
	}
	m := f.Fork()
	rj := g.Rejoin(from)
	if _, ok := rj.Next(m.Retired, g.Retired); !ok {
		t.Fatal("no waypoint after the fork")
	}
	w := g.waypoints[4].m
	if len(g.waypoints[4].dirty) == 0 {
		t.Fatal("golden wrote no page before waypoint 4")
	}
	m.X, m.F, m.PC, m.Retired = w.X, w.F, w.PC, w.Retired
	if rj.Matches(m) {
		t.Error("a fork missing the golden run's writes rejoined")
	}
}
