package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// loadReport reads a -report file into values[workload][metric], one
// value per recorded run.
func loadReport(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	values := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if values[rec.Workload] == nil {
			values[rec.Workload] = make(map[string][]float64)
		}
		for name, m := range rec.Metrics {
			values[rec.Workload][name] = append(values[rec.Workload][name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return values, nil
}

// runCompare judges report b (the change) against report a (the
// parent), both sets of runs of the same seed and -seconds: every
// end-to-end metric's median may be worse by at most its bound; a
// pairing whose own run-to-run spread exceeds the bound is unresolved,
// not unchanged; msgs_per_op and the per-layer counts must match
// exactly. It returns the exit code: 1 on a breach or a count mismatch.
func runCompare(w io.Writer, benchPath, pathA, pathB string) int {
	bench, err := loadBenchmarkFile(benchPath)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	a, err := loadReport(pathA)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	b, err := loadReport(pathB)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	exit := 0
	fmt.Fprintf(w, "%-13s %-36s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "a (median)", "b (median)", "worse by", "bound", "spread", "verdict")
	for _, wl := range bench.Workloads {
		for _, m := range bench.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			spread := max(quartileSpread(va), quartileSpread(vb))
			verdict := "ok"
			switch {
			case exactCounts[m.Name]:
				if verdict = "exact"; ma != mb {
					verdict = "COUNT CHANGED"
					exit = 1
				}
			case spread > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "BREACH"
				exit = 1
			}
			fmt.Fprintf(w, "%-13s %-36s %14.6g %14.6g %+8.1f%% %6.0f%% %7.1f%%  %s\n",
				wl.Name, m.Name, ma, mb, 100*worse, 100*m.Bound, 100*spread, verdict)
		}
		for _, m := range bench.PerLayer {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			verdict := "info"
			if exactCounts[m.Name] {
				verdict = "exact"
				if ma != mb {
					verdict = "COUNT CHANGED"
					exit = 1
				}
			}
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / ma
			}
			fmt.Fprintf(w, "%-13s %-36s %14.6g %14.6g %+8.1f%% %7s %8s  %s\n",
				wl.Name, m.Name, ma, mb, 100*change, "-", "-", verdict)
		}
	}
	return exit
}

// exactCounts names the counts that are pure functions of the inputs:
// with the same seed and -seconds they repeat exactly, so any difference
// between two reports is a protocol change.
var exactCounts = map[string]bool{
	"msgs_per_op":                      true,
	"sched.rounds_per_op":              true,
	"sched.msgs_per_op":                true,
	"acs.aba_rounds_per_op":            true,
	"acs.slots_per_op":                 true,
	"broadcast.bracha_msgs_per_op":     true,
	"broadcast.eig_tree_nodes_per_op":  true,
	"consensus.byzantine_drops_per_op": true,
	"minimax.calls_per_op":             true,
	"relax.intersect_lp_solves_per_op": true,
	"lp.solves_per_op":                 true,
	"tverberg.scan_candidates_per_op":  true,
	"batch.trial_errors":               true,
}
