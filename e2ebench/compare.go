package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparison applies.
type benchSpec struct {
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []boundDef `json:"per_layer"`
}

type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runs holds one side's values per workload and metric, keyed by seed; a
// file holds one run per workload and seed, and a later line for the same
// pair replaces an earlier one.
type runs map[string]map[string]map[int64]float64

// compareMain compares two sets of runs written with --out: the parent's
// (A) and the change's (B).
func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: e2ebench compare [--bench BENCHMARK.json] parent.jsonl change.jsonl")
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	a, err := readRuns(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readRuns(fs.Arg(1))
	if err != nil {
		return err
	}
	return compare(spec, a, b, w)
}

func readRuns(path string) (runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := runs{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]map[int64]float64{}
		}
		for name, m := range r.Metrics {
			if out[r.Workload][name] == nil {
				out[r.Workload][name] = map[int64]float64{}
			}
			out[r.Workload][name][r.Seed] = m.Value
		}
	}
	return out, sc.Err()
}

// Verdicts of one workload and metric.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictBetter     = "better"
	verdictMissing    = "missing"
)

// verdict applies a metric's bound to the parent's (a) and the change's (b)
// runs. A change whose median is worse by more than the bound regresses.
// When either side's spread — the distance between its quartiles over its
// median — exceeds the bound, the runs cannot tell a change of that size
// from noise, so the metric is unresolved unless every run of the change
// reads better than every run of the parent.
func verdict(a, b []float64, better string, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return verdictMissing
	}
	if spread(a) > bound || spread(b) > bound {
		if allBetter(a, b, better) {
			return verdictBetter
		}
		return verdictUnresolved
	}
	if worseBy(median(a), median(b), better) > bound {
		return verdictRegression
	}
	return verdictOK
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / median(xs)
}

// worseBy is how much worse b reads than a, as a share of a; negative when
// b is better.
func worseBy(a, b float64, better string) float64 {
	d := b/a - 1
	if better == "higher" {
		return -d
	}
	return d
}

func allBetter(a, b []float64, better string) bool {
	for _, x := range a {
		for _, y := range b {
			if worseBy(x, y, better) >= 0 {
				return false
			}
		}
	}
	return true
}

// pairWins pairs the two sides' runs by seed and counts the pairs the change
// wins; ties count for neither side.
func pairWins(a, b map[int64]float64, better string) (wins, pairs int) {
	for seed, x := range a {
		y, ok := b[seed]
		if !ok {
			continue
		}
		pairs++
		if worseBy(x, y, better) < 0 {
			wins++
		}
	}
	return wins, pairs
}

// gainClaimed applies the rule for claiming a gain: the change wins at least
// nine tenths of the pairs, and the medians differ, in the change's favour,
// by more than the distance between the parent's own quartiles.
func gainClaimed(a, b map[int64]float64, better string) bool {
	wins, pairs := pairWins(a, b, better)
	if pairs == 0 || 10*wins < 9*pairs {
		return false
	}
	av, bv := values(a), values(b)
	gain := median(av) - median(bv)
	if better == "higher" {
		gain = -gain
	}
	return gain > quantile(av, 0.75)-quantile(av, 0.25)
}

func values(m map[int64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

func compare(spec benchSpec, a, b runs, w io.Writer) error {
	workloadSet := map[string]bool{}
	for wl := range a {
		workloadSet[wl] = true
	}
	for wl := range b {
		workloadSet[wl] = true
	}
	var names []string
	for wl := range workloadSet {
		names = append(names, wl)
	}
	sort.Strings(names)

	var regressions []string
	summary := func(xs []float64) string {
		if len(xs) == 0 {
			return "-"
		}
		return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(xs), quantile(xs, 0.25), quantile(xs, 0.75), len(xs))
	}
	for _, wl := range names {
		fmt.Fprintf(w, "%s\n", wl)
		for _, d := range spec.EndToEnd {
			av, bv := values(a[wl][d.Name]), values(b[wl][d.Name])
			v := verdict(av, bv, d.Better, d.Bound)
			change := "-"
			if len(av) > 0 && len(bv) > 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(median(bv)/median(av)-1))
			}
			wins, pairs := pairWins(a[wl][d.Name], b[wl][d.Name], d.Better)
			gain := ""
			if gainClaimed(a[wl][d.Name], b[wl][d.Name], d.Better) {
				gain = " gain"
			}
			fmt.Fprintf(w, "  %-20s A %-36s B %-36s %8s bound %4.0f%% %-10s won %d/%d%s\n",
				d.Name, summary(av), summary(bv), change, 100*d.Bound, v, wins, pairs, gain)
			if v == verdictRegression {
				regressions = append(regressions, wl+" "+d.Name)
			}
		}
		for _, d := range spec.PerLayer {
			av, bv := values(a[wl][d.Name]), values(b[wl][d.Name])
			if len(av) == 0 && len(bv) == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-32s A %-36s B %-36s\n", d.Name, summary(av), summary(bv))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d regression(s): %s", len(regressions), strings.Join(regressions, ", "))
	}
	return nil
}
