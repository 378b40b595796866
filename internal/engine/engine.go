// Package engine is the fork-replay execution substrate for injection
// campaigns: it runs the golden execution of a program ONCE, taking
// copy-on-write waypoint snapshots every K retired instructions, and then
// serves cheap machine forks positioned anywhere in the execution by
// forking the nearest waypoint and replaying only the delta.
//
// This turns an N-injection campaign from O(N x prefix) re-execution work
// (every run re-runs the program from PC 0 up to its injection point)
// into O(golden + N x K/2): the golden prefix is executed once and shared
// by every worker through the COW page layers of internal/mem.
//
// Determinism contract: the simulated machine is fully deterministic, a
// fork is bit-identical to its parent, and a replayed prefix is fault-
// free, so a machine positioned at dynamic instruction d by ForkAt +
// replay is architecturally indistinguishable from one that executed the
// whole prefix. Campaign outcomes are therefore byte-identical between
// the fork and rerun engines (enforced by inject's equivalence tests).
package engine

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/letgo-hpc/letgo/internal/isa"
	"github.com/letgo-hpc/letgo/internal/obs"
	"github.com/letgo-hpc/letgo/internal/pin"
	"github.com/letgo-hpc/letgo/internal/vm"
)

// DefaultWaypointEvery is the default waypoint spacing K in retired
// instructions. See docs/ENGINE.md for how K trades replay work (expected
// K/2 instructions per positioning) against waypoint memory.
const DefaultWaypointEvery = 4096

// maxWaypoints bounds the waypoint count: when a recording would exceed
// it, the spacing doubles and every other waypoint is dropped (the
// classic adaptive-checkpointing trick), so unexpectedly long golden runs
// cost memory logarithmically, not linearly.
const maxWaypoints = 128

// waypoint is one frozen machine at a known retirement count. Its machine
// is never stepped or written after capture, which makes concurrent Fork
// calls on it safe.
type waypoint struct {
	retired uint64
	m       *vm.Machine
	// dirty lists, ascending, the pages the golden run wrote since the
	// previous kept waypoint (nil for the initial waypoint): outside
	// them, this waypoint's memory equals its predecessor's.
	dirty []uint64
}

// Golden is the recorded golden execution of one program: the final
// machine, the per-static-instruction execution profile, and the waypoint
// ladder. It is immutable after Record and safe to share across campaign
// workers.
type Golden struct {
	Prog *isa.Program
	// Final is the halted golden machine (acceptance checks and golden
	// output are read from it). Read-only.
	Final *vm.Machine
	// Retired is the golden dynamic instruction count.
	Retired uint64
	// Every is the effective waypoint spacing after adaptive thinning.
	Every uint64

	counts    []uint64
	waypoints []waypoint
}

// Record executes prog to completion on a fresh machine, counting every
// retired instruction (the profiling phase) and forking a waypoint every
// `every` retired instructions (0 selects DefaultWaypointEvery). It fails
// if the fault-free program traps or does not halt within budget.
func Record(prog *isa.Program, cfg vm.Config, every, budget uint64) (*Golden, error) {
	return RecordObs(prog, cfg, every, budget, nil)
}

// RecordObs is Record with optional observability: the recording is
// wrapped in a golden_record span and the resulting waypoint count and
// golden length land in hub's registry. A nil hub records nothing.
func RecordObs(prog *isa.Program, cfg vm.Config, every, budget uint64, hub *obs.Hub) (*Golden, error) {
	defer hub.StartSpan("golden_record").End()
	if every == 0 {
		every = DefaultWaypointEvery
	}
	m, err := vm.New(prog, cfg)
	if err != nil {
		return nil, err
	}
	g := &Golden{
		Prog:   prog,
		Every:  every,
		counts: make([]uint64, len(prog.Instrs)),
	}
	g.waypoints = append(g.waypoints, waypoint{retired: 0, m: m.Fork()})
	// Recording is a Retired-hook configuration of the shared vm driver:
	// the hook observes fully committed machine state after every
	// retirement (so waypoint forks are sound), counts the instruction
	// for the profile, and drops a waypoint on the ladder spacing.
	stop := vm.Drive(m, budget, vm.Hooks{
		Retired: func(m *vm.Machine, idx int) bool {
			g.counts[idx]++
			if !m.Halted && m.Retired%g.Every == 0 {
				// The recording machine's private pages are exactly those
				// written since the last waypoint; list them before Fork
				// seals them.
				dirty := m.Mem.PrivatePages(nil)
				slices.Sort(dirty)
				g.waypoints = append(g.waypoints, waypoint{retired: m.Retired, m: m.Fork(), dirty: dirty})
				if len(g.waypoints) > maxWaypoints {
					g.thin()
				}
			}
			return false
		},
	})
	switch stop.Reason {
	case vm.StopHalted:
	case vm.StopBudget:
		return nil, fmt.Errorf("engine: golden run exceeded budget of %d instructions", budget)
	case vm.StopTrap:
		return nil, fmt.Errorf("engine: fault-free golden run trapped: %w", stop.Trap)
	default:
		return nil, fmt.Errorf("engine: fault-free golden run trapped: %w", stop.Err)
	}
	g.Final = m
	g.Retired = m.Retired
	if hub != nil {
		hub.Gauge("letgo_engine_waypoints").Set(float64(len(g.waypoints)))
		hub.Gauge("letgo_engine_golden_retired_instructions").Set(float64(g.Retired))
	}
	return g, nil
}

// thin doubles the waypoint spacing and drops the waypoints that no
// longer fall on it (the initial waypoint at 0 is always kept). A dropped
// waypoint's dirty pages merge into the next kept one. Waypoints sit at
// 0, K, ..., maxWaypoints·K when thinning fires, so the newest one is
// always kept and no dirty page is left without a successor.
func (g *Golden) thin() {
	g.Every *= 2
	kept := g.waypoints[:1]
	var carry []uint64
	for _, w := range g.waypoints[1:] {
		if w.retired%g.Every != 0 {
			carry = union(carry, w.dirty)
			continue
		}
		w.dirty = union(carry, w.dirty)
		carry = nil
		kept = append(kept, w)
	}
	g.waypoints = kept
}

// union merges two ascending page lists into a new ascending list
// without duplicates.
func union(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case b[0] < a[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// Profile returns the pin.Profile observed during recording — identical
// to what pin's ProfileRun computes, without a second execution.
func (g *Golden) Profile() *pin.Profile {
	return &pin.Profile{Total: g.Retired, Counts: append([]uint64(nil), g.counts...)}
}

// Waypoints returns the number of recorded waypoints.
func (g *Golden) Waypoints() int { return len(g.waypoints) }

// nearest returns the index of the last waypoint at or before retired.
func (g *Golden) nearest(retired uint64) int {
	return sort.Search(len(g.waypoints), func(i int) bool {
		return g.waypoints[i].retired > retired
	}) - 1
}

// NearestRetired returns the retirement count of the closest waypoint at
// or before retired — what a scheduler compares against an already-
// positioned replay machine before deciding to fork.
func (g *Golden) NearestRetired(retired uint64) uint64 {
	return g.waypoints[g.nearest(retired)].retired
}

// ForkAt forks the nearest waypoint at or before retired and returns the
// fresh machine plus the waypoint's retirement count (the caller replays
// the remaining retired-wp delta, e.g. with debug.RunToDynamic). Safe for
// concurrent use from multiple workers.
func (g *Golden) ForkAt(retired uint64) (*vm.Machine, uint64) {
	w := g.waypoints[g.nearest(retired)]
	return w.m.Fork(), w.retired
}

// Rejoin checks one injected run against the golden run at the
// waypoints after its injection. A run that matches golden exactly at a
// waypoint executes the rest of the golden run from there, so the fork
// engine stops it: its outcome is the golden run's.
//
// The run's memory must descend from golden state: forked (ForkAt,
// replay, Fork) at the retirement count passed to Golden.Rejoin, so its
// private pages are every page it wrote since. A Rejoin belongs to one
// run and is not safe for concurrent use.
type Rejoin struct {
	g     *Golden
	base  int      // waypoint the run's starting state descends from
	next  int      // waypoint Next last returned
	pages []uint64 // reused buffer for the run's private page list
}

// Rejoin returns the convergence check for a run whose memory was
// forked from golden state at retirement count from.
func (g *Golden) Rejoin(from uint64) *Rejoin {
	j := g.nearest(from)
	return &Rejoin{g: g, base: j, next: j}
}

// Golden returns the golden run r checks against.
func (r *Rejoin) Golden() *Golden { return r.g }

// Next returns the retirement count of the first waypoint strictly after
// retired and strictly below limit. ok is false when there is none (and
// always for a nil Rejoin, so a run with no golden run to rejoin executes
// in one segment).
func (r *Rejoin) Next(retired, limit uint64) (next uint64, ok bool) {
	if r == nil {
		return 0, false
	}
	wps := r.g.waypoints
	for r.next < len(wps) && wps[r.next].retired <= retired {
		r.next++
	}
	if r.next == len(wps) || wps[r.next].retired >= limit {
		return 0, false
	}
	return wps[r.next].retired, true
}

// Matches reports whether m, paused at the waypoint Next last returned,
// equals the golden machine there exactly: PC, halt flag, retirement
// count, integer registers, float registers bitwise, and every page that
// either the run or the golden run wrote since the run's starting state.
// Any other page is untouched on both sides, hence equal.
func (r *Rejoin) Matches(m *vm.Machine) bool {
	if r.next >= len(r.g.waypoints) {
		return false
	}
	w := r.g.waypoints[r.next]
	gm := w.m
	if m.Retired != w.retired || m.PC != gm.PC || m.Halted != gm.Halted || m.X != gm.X {
		return false
	}
	for i := range m.F {
		if math.Float64bits(m.F[i]) != math.Float64bits(gm.F[i]) {
			return false
		}
	}
	r.pages = m.Mem.PrivatePages(r.pages[:0])
	if !samePages(m, gm, r.pages) {
		return false
	}
	for _, wp := range r.g.waypoints[r.base+1 : r.next+1] {
		if !samePages(m, gm, wp.dirty) {
			return false
		}
	}
	return true
}

// samePages reports whether m and gm agree on every listed page.
func samePages(m, gm *vm.Machine, pages []uint64) bool {
	for _, idx := range pages {
		if !m.Mem.SamePage(gm.Mem, idx) {
			return false
		}
	}
	return true
}

// PagesCopied reports the COW page copies charged to the golden recording
// itself (the recording machine faulting pages out of its own waypoints).
func (g *Golden) PagesCopied() uint64 { return g.Final.Mem.CopiedPages() }

// ResolveWhens maps injection sites — (static address, dynamic instance)
// pairs — to the absolute retired-instruction count at which each site's
// instruction is about to execute, by replaying the golden run once from
// the initial waypoint and counting per-PC occurrences. The returned
// slice is index-aligned with sites.
//
// This replaces per-run breakpoint-instance counting: the temporal
// position of every planned injection is computed in one shared pass.
func (g *Golden) ResolveWhens(sites []pin.Site) ([]uint64, error) {
	whens := make([]uint64, len(sites))
	type key struct{ instr, instance uint64 }
	want := make(map[key][]int, len(sites))
	for i, s := range sites {
		k := key{(s.Addr - isa.CodeBase) / isa.InstrBytes, s.Instance}
		want[k] = append(want[k], i)
	}
	m, _ := g.ForkAt(0)
	occ := make([]uint64, len(g.counts))
	remaining := len(want)
	// Site matching is a Before-hook configuration of the shared driver:
	// each about-to-execute instruction bumps its occurrence counter and,
	// on a match, records the machine's current retirement count. The hook
	// stops the driver once every site is resolved.
	stop := vm.Drive(m, math.MaxUint64, vm.Hooks{
		Before: func(m *vm.Machine) bool {
			idx := (m.PC - isa.CodeBase) / isa.InstrBytes
			occ[idx]++
			if idxs, ok := want[key{idx, occ[idx]}]; ok {
				for _, j := range idxs {
					whens[j] = m.Retired
				}
				remaining--
			}
			return remaining == 0
		},
	})
	if stop.Reason == vm.StopTrap {
		return nil, fmt.Errorf("engine: resolving injection sites: %w", stop.Trap)
	}
	if remaining > 0 {
		return nil, fmt.Errorf("engine: %d injection sites never reached in golden replay", remaining)
	}
	return whens, nil
}
