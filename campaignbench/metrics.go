package main

// metric describes one reported number. BENCHMARK.json at the repository
// root mirrors these tables (TestBenchmarkJSONMatchesTables keeps them in
// step); the Moves and On fields exist only here because the manifest
// format has no place for them.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Moves names the end-to-end metric a per-layer metric should move
	// ("none" for workload properties and canaries).
	Moves string
	// On lists the workloads on which it should move, most to least.
	On string
	// Exact marks a deterministic count: runs at one seed must agree on
	// it exactly.
	Exact bool
}

// endToEnd metrics come from the untraced run (--trace 0).
var endToEnd = []metric{
	{Name: "campaign_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "inject_per_s", Unit: "inj/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	// ok_frac is the complement of the failed share (failed injections
	// divided by attempted ones); a metric that is 0 on every healthy run
	// has no median to take a share of, so the benchmark reports 1 - it.
	{Name: "ok_frac", Unit: "ratio", Better: "higher", Bound: 0.0001},
}

// perLayer metrics come from the traced run (--trace 1). Each value is
// the mean over the run's traced repetitions of the per-repetition value.
var perLayer = []metric{
	{"vm.suffix_instrs", "count", "lower", 0, "inject_per_s,campaign_s", "e-fork >> shard-merge", true},
	{"vm.minstrs_per_s", "Minstr/s", "higher", 0, "inject_per_s,campaign_s", "e-fork >> shard-merge", false},
	{"inject.execute_s", "s", "lower", 0, "inject_per_s,campaign_s", "e-fork >> shard-merge", false},
	{"inject.injection_ms.p50", "ms", "lower", 0, "inject_per_s,campaign_s", "e-fork >> shard-merge", false},
	{"inject.injection_ms.p99", "ms", "lower", 0, "inject_per_s,campaign_s", "e-fork >> shard-merge", false},
	{"inject.injection_ms.samples", "count", "higher", 0, "inject_per_s,campaign_s", "e-fork >> shard-merge", true},
	{"core.repairs", "count", "lower", 0, "inject_per_s", "e-fork only (zero in NoLetGo)", true},
	{"core.repair_s", "s", "lower", 0, "inject_per_s", "e-fork only (zero in NoLetGo)", false},
	{"engine.prefix_instrs", "count", "lower", 0, "inject_per_s", "shard-merge > e-fork", true},
	{"engine.prefix_replay_s", "s", "lower", 0, "inject_per_s", "shard-merge > e-fork", false},
	{"engine.resolve_s", "s", "lower", 0, "inject_per_s", "shard-merge > e-fork", false},
	{"engine.forks", "count", "lower", 0, "peak_rss_mb,inject_per_s", "e-fork, shard-merge", true},
	{"engine.pages_copied", "count", "lower", 0, "peak_rss_mb,inject_per_s", "e-fork, shard-merge", true},
	{"go.alloc_mb", "MiB", "lower", 0, "peak_rss_mb,inject_per_s", "e-fork, shard-merge", false},
	{"go.gc_cycles", "count", "lower", 0, "peak_rss_mb,inject_per_s", "e-fork, shard-merge", false},
	{"lang.compile_s", "s", "lower", 0, "setup_s,campaign_s", "all; largest share on shard-merge", false},
	{"pin.analyze_s", "s", "lower", 0, "setup_s,campaign_s", "all; largest share on shard-merge", false},
	{"analysis.checkpoint_set_s", "s", "lower", 0, "setup_s,campaign_s", "all; largest share on shard-merge", false},
	{"engine.record_s", "s", "lower", 0, "setup_s,campaign_s", "shard-merge, e-fork", false},
	{"engine.golden_instrs", "count", "lower", 0, "setup_s,campaign_s", "all; largest share on shard-merge", true},
	{"engine.waypoints", "count", "lower", 0, "setup_s,campaign_s", "shard-merge, e-fork", true},
	{"inject.plan_s", "s", "lower", 0, "setup_s,campaign_s", "all; largest share on shard-merge", false},
	{"resilience.append_flush_s", "s", "lower", 0, "campaign_s", "shard-merge, e-fork", false},
	{"resilience.write_bytes", "bytes", "lower", 0, "campaign_s", "shard-merge, e-fork", false},
	{"resilience.merge_files_s", "s", "lower", 0, "campaign_s", "shard-merge only", false},
	{"inject.merge_s", "s", "lower", 0, "campaign_s", "shard-merge only", false},
	{"outcome.classify_s", "s", "lower", 0, "inject_per_s,campaign_s", "all (small)", false},
	{"report.render_s", "s", "lower", 0, "campaign_s", "all (small)", false},
	{"outcome.masked_frac", "ratio", "higher", 0, "none", "all; workload property and correctness canary", true},
	{"outcome.crash_frac", "ratio", "lower", 0, "none", "all; workload property and correctness canary", true},
	{"obs.trace_overhead_frac", "ratio", "lower", 0, "none", "all", false},
}
