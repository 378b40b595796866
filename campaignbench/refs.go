package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/letgo-hpc/letgo/internal/apps"
	"github.com/letgo-hpc/letgo/internal/inject"
	"github.com/letgo-hpc/letgo/internal/report"
)

// refs.json holds the reference tables: workload -> seed -> the CSV
// table a correct program renders. They are produced by refsMain with
// single-process campaigns on the rerun engine, the repository's oracle,
// so shard-merge's merged table is compared with the single-process one.
//
//go:embed refs.json
var refsJSON []byte

func loadRefs() (map[string]map[string]string, error) {
	refs := map[string]map[string]string{}
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	return refs, nil
}

// referenceTable renders the workload's table at seed from single-process
// rerun-engine campaigns.
func referenceTable(w workload, seed uint64) ([]byte, error) {
	rows := make([]report.CampaignRow, 0, len(apps.All()))
	for _, app := range apps.All() {
		c := &inject.Campaign{App: app, Mode: w.Mode, N: w.N, Seed: seed, Workers: workers, Engine: inject.EngineRerun}
		res, err := c.RunContext(context.Background())
		if err != nil {
			return nil, err
		}
		rows = append(rows, report.Row(res))
	}
	var buf bytes.Buffer
	err := report.Campaigns(&buf, report.CSV, rows)
	return buf.Bytes(), err
}

// refsPath is the reference file, relative to the checkout root.
const refsPath = "campaignbench/refs.json"

// refsMain (re)generates refs.json entries for the given seeds:
//
//	bash campaignbench/run.sh refs -seeds 1-10,2017,31337
func refsMain(args []string) int {
	fs := flag.NewFlagSet("refs", flag.ExitOnError)
	seedList := fs.String("seeds", fmt.Sprintf("%d,%d", DefaultSeed, HeldOutSeed), "seeds: comma-separated numbers or a-b ranges")
	fs.Parse(args)
	seeds, err := parseSeeds(*seedList)
	if err == nil && len(seeds) == 0 {
		err = fmt.Errorf("no seeds")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench refs:", err)
		return 2
	}
	refs, err := loadRefs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench refs:", err)
		return 1
	}
	for _, w := range workloads {
		if refs[w.Name] == nil {
			refs[w.Name] = map[string]string{}
		}
		for _, seed := range seeds {
			table, err := referenceTable(w, seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, "campaignbench refs:", err)
				return 1
			}
			refs[w.Name][strconv.FormatUint(seed, 10)] = string(table)
			fmt.Fprintf(os.Stderr, "refs: %s seed %d\n", w.Name, seed)
		}
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err == nil {
		err = os.WriteFile(refsPath, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench refs:", err)
		return 1
	}
	return 0
}

// parseSeeds parses "1-10,2017" into its seeds, ascending and distinct.
func parseSeeds(s string) ([]uint64, error) {
	set := map[uint64]bool{}
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(strings.TrimSpace(part), "-")
		a, err := strconv.ParseUint(lo, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", part)
		}
		b := a
		if isRange {
			if b, err = strconv.ParseUint(hi, 10, 64); err != nil || b < a {
				return nil, fmt.Errorf("bad seed range %q", part)
			}
		}
		for x := a; x <= b; x++ {
			set[x] = true
		}
	}
	seeds := make([]uint64, 0, len(set))
	for x := range set {
		seeds = append(seeds, x)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	return seeds, nil
}
