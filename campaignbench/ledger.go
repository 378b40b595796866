package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// resultSet is one ledger entry: every run of every workload at one
// commit, with the environment it ran in. Entries are appended, never
// rewritten, so the ledger is the benchmark's history.
type resultSet struct {
	Commit     string                      `json:"commit"`
	Dirty      bool                        `json:"dirty"`
	Date       string                      `json:"date"`
	NumCPU     int                         `json:"nproc"`
	GOMAXPROCS int                         `json:"gomaxprocs"`
	GoVersion  string                      `json:"go_version"`
	Seconds    float64                     `json:"run_seconds"`
	Workloads  map[string]*workloadResults `json:"workloads"`
}

type workloadResults struct {
	NPerApp int                 `json:"n_per_app"`
	Runs    []ledgerRun         `json:"runs"`
	Summary map[string]quartile `json:"summary"`
	Traced  []ledgerRun         `json:"traced"`
}

type ledgerRun struct {
	Seed      uint64               `json:"seed"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]float64   `json:"metrics"`
	Reps      map[string][]float64 `json:"reps"`
}

// quartile summarizes one metric's values over a workload's runs. Spread
// is (Q3 - Q1) / median, the figure a metric's bound is compared with.
type quartile struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
}

// ledgerPath is the ledger file, relative to the checkout root.
const ledgerPath = "campaignbench/results/ledger.jsonl"

// A result set makes untracedRuns untraced runs per workload, each with
// its own seed, as the benchmark's steadiness check does, and tracedRuns
// traced runs at the first seed, so that their deterministic counts can be
// compared. Every run measures for runSeconds, BENCHMARK.json's
// run_seconds.
const (
	untracedRuns = 10
	tracedRuns   = 2
	runSeconds   = 10
)

// ledgerMain runs every workload and appends the result set to the
// ledger. It exits non-zero if a run fails or the traced runs disagree on
// a deterministic count; the set is appended either way.
//
//	bash campaignbench/run.sh ledger -seed-base 11
func ledgerMain(args []string) int {
	fs := flag.NewFlagSet("ledger", flag.ExitOnError)
	seedBase := fs.Uint64("seed-base", 1, "first seed; run i uses seed-base+i")
	fs.Parse(args)
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench ledger:", err)
		return 1
	}
	set := resultSet{
		Commit: gitOutput("rev-parse", "HEAD"), Dirty: gitOutput("status", "--porcelain") != "",
		Date: time.Now().UTC().Format(time.RFC3339), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Seconds: runSeconds,
		Workloads: map[string]*workloadResults{},
	}
	status := 0
	for _, w := range workloads {
		wr := &workloadResults{NPerApp: w.N, Summary: map[string]quartile{}}
		set.Workloads[w.Name] = wr
		for i := 0; i < untracedRuns+tracedRuns; i++ {
			trace := i >= untracedRuns
			seed := *seedBase + uint64(i)
			if trace {
				seed = *seedBase
			}
			r, err := runChild(self, w.Name, seed, runSeconds, trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "campaignbench ledger: %s seed %d: %v\n", w.Name, seed, err)
				return 1
			}
			if trace {
				wr.Traced = append(wr.Traced, r)
			} else {
				wr.Runs = append(wr.Runs, r)
			}
			fmt.Fprintf(os.Stderr, "ledger: %s seed %d trace %v correct %v\n", w.Name, seed, trace, r.Correct)
			if !r.Correct {
				status = 1
			}
		}
		for _, m := range endToEnd {
			var vals []float64
			for _, r := range wr.Runs {
				vals = append(vals, r.Metrics[m.Name])
			}
			wr.Summary[m.Name] = quartiles(vals)
		}
		printSummary(w.Name, wr)
		for _, msg := range inexact(wr.Traced) {
			fmt.Fprintf(os.Stderr, "campaignbench ledger: %s: %s\n", w.Name, msg)
			status = 1
		}
	}
	line, err := json.Marshal(set)
	if err == nil {
		err = appendLine(ledgerPath, line)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench ledger:", err)
		return 1
	}
	return status
}

// runChild runs one benchmark process and parses its detail and result
// lines.
func runChild(self, workload string, seed uint64, seconds float64, trace bool) (ledgerRun, error) {
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", t)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return ledgerRun{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if len(lines) < 2 {
		return ledgerRun{}, fmt.Errorf("want a detail and a result line, got %q", stdout)
	}
	var d struct{ Detail detail }
	var res resultLine
	if err := json.Unmarshal(lines[len(lines)-2], &d); err != nil {
		return ledgerRun{}, fmt.Errorf("detail line: %w", err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return ledgerRun{}, fmt.Errorf("result line: %w", err)
	}
	r := ledgerRun{Seed: seed, Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]float64{}, Reps: d.Detail.Reps}
	for name, v := range res.Metrics {
		r.Metrics[name] = v.Value
	}
	return r, nil
}

// quartiles matches Python's statistics.quantiles(values, n=4), whose
// default method is "exclusive".
func quartiles(values []float64) quartile {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) < 2 {
		return quartile{}
	}
	m := len(s) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	spread := 0.0
	if q[1] != 0 {
		spread = (q[2] - q[0]) / q[1]
	}
	return quartile{Q1: q[0], Median: q[1], Q3: q[2], Spread: spread}
}

func printSummary(workload string, wr *workloadResults) {
	fmt.Fprintf(os.Stderr, "%-12s %-14s %12s %12s %8s %8s\n", workload, "metric", "median", "q3-q1", "spread", "bound")
	for _, m := range endToEnd {
		q := wr.Summary[m.Name]
		fmt.Fprintf(os.Stderr, "%-12s %-14s %12.6g %12.6g %8.4f %8.4f\n", "", m.Name, q.Median, q.Q3-q.Q1, q.Spread, m.Bound)
	}
}

// inexact lists the deterministic per-layer counts on which traced runs
// of one seed disagree.
func inexact(traced []ledgerRun) []string {
	var out []string
	for _, m := range perLayer {
		for _, r := range traced[1:] {
			if m.Exact && r.Metrics[m.Name] != traced[0].Metrics[m.Name] {
				out = append(out, fmt.Sprintf("%s differs between traced runs: %g and %g", m.Name, traced[0].Metrics[m.Name], r.Metrics[m.Name]))
			}
		}
	}
	return out
}

func gitOutput(args ...string) string {
	out, err := exec.Command("git", args...).Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
