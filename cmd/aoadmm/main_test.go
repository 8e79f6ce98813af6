package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aoadmm"
)

func TestParseConstraintsSingleBroadcast(t *testing.T) {
	cs, err := parseConstraints("nonneg", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 || cs[0].Name() != "nonneg" {
		t.Fatalf("parseConstraints = %v", cs)
	}
}

func TestParseConstraintsPerMode(t *testing.T) {
	cs, err := parseConstraints("nonneg; l1:0.1; simplex", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 3 {
		t.Fatalf("%d constraints", len(cs))
	}
	if cs[1].Name() != "l1(0.1)" || cs[2].Name() != "simplex(1)" {
		t.Fatalf("names: %s %s %s", cs[0].Name(), cs[1].Name(), cs[2].Name())
	}
	if _, err := parseConstraints("nonneg;l1:0.1", 3); err == nil {
		t.Error("count mismatch accepted")
	}
	if _, err := parseConstraints("nonneg;bogus;none", 3); err == nil {
		t.Error("bad spec accepted")
	}
}

func TestParseScale(t *testing.T) {
	for _, s := range []string{"small", "medium", "large"} {
		if _, err := parseScale(s); err != nil {
			t.Errorf("parseScale(%q): %v", s, err)
		}
	}
	if _, err := parseScale("huge"); err == nil {
		t.Error("bad scale accepted")
	}
}

func TestResolveTensorValidation(t *testing.T) {
	if _, _, _, err := resolveTensor(runConfig{input: "a.tns", dataset: "reddit", scale: "small"}, 0); err == nil {
		t.Error("both sources accepted")
	}
	if _, _, _, err := resolveTensor(runConfig{scale: "small"}, 0); err == nil {
		t.Error("no source accepted")
	}
	x, st, cleanup, err := resolveTensor(runConfig{dataset: "reddit", scale: "small"}, 0)
	if err != nil {
		t.Fatalf("dataset source: %v", err)
	}
	cleanup()
	if x == nil || st != nil {
		t.Errorf("unbudgeted dataset load should stay in memory (x=%v st=%v)", x != nil, st != nil)
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	// Write a tiny tensor and factorize it through the CLI path.
	x, _, err := aoadmm.GeneratePlanted(aoadmm.GenOptions{
		Dims: []int{10, 12, 14}, NNZ: 300, Rank: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "in.tns")
	if err := aoadmm.SaveTensor(in, x); err != nil {
		t.Fatal(err)
	}
	prefix := filepath.Join(dir, "out")
	if err := run(runConfig{
		input: in, scale: "small", rank: 3, constraint: "nonneg",
		variant: "blocked", structure: "csr", sparsity: true, threads: 1,
		maxOuter: 5, tol: 1e-6, blockSize: 4, seed: 1, output: prefix, quiet: true,
	}); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 3; m++ {
		data, err := os.ReadFile(prefix + "_mode" + string(rune('0'+m)) + ".txt")
		if err != nil {
			t.Fatalf("mode %d output: %v", m, err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != x.Dims[m] {
			t.Fatalf("mode %d: %d rows, want %d", m, len(lines), x.Dims[m])
		}
	}
}

// TestRunOutOfCore drives the full CLI path with -ooc: the input file is
// stream-converted to shards, factorized out-of-core, and the profile
// report must carry the ooc section. A shard directory passed as -input
// must also work directly, for ALS and HALS alike.
func TestRunOutOfCore(t *testing.T) {
	dir := t.TempDir()
	x, _, err := aoadmm.GeneratePlanted(aoadmm.GenOptions{
		Dims: []int{16, 12, 10}, NNZ: 800, Rank: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "in.tns")
	if err := aoadmm.SaveTensor(in, x); err != nil {
		t.Fatal(err)
	}
	profile := filepath.Join(dir, "ooc.json")
	base := runConfig{
		input: in, scale: "small", rank: 3, constraint: "nonneg",
		variant: "blocked", structure: "csr", threads: 1,
		maxOuter: 4, tol: 1e-6, blockSize: 4, seed: 1, quiet: true,
		ooc: true, memBudgetMB: 1, profile: profile,
	}
	if err := run(base); err != nil {
		t.Fatalf("ooc run: %v", err)
	}
	data, err := os.ReadFile(profile)
	if err != nil {
		t.Fatal(err)
	}
	var rep aoadmm.MetricsReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("invalid profile JSON: %v", err)
	}
	if rep.OOC == nil || rep.OOC.ShardLoads == 0 {
		t.Fatalf("profile missing ooc section: %+v", rep.OOC)
	}

	// Pre-converted shard directory as -input.
	shardDir := filepath.Join(dir, "shards")
	if _, err := aoadmm.ConvertToShards(in, shardDir, aoadmm.ShardConvertOptions{}); err != nil {
		t.Fatal(err)
	}
	c := base
	c.input, c.ooc, c.profile, c.algo = shardDir, false, "", "als"
	if err := run(c); err != nil {
		t.Fatalf("shard-dir als run: %v", err)
	}
	c.algo = "hals"
	if err := run(c); err != nil {
		t.Fatalf("shard-dir hals run: %v", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	base := runConfig{
		dataset: "reddit", scale: "small", rank: 4, constraint: "nonneg",
		variant: "base", structure: "csr", maxOuter: 2, tol: 1e-6,
		blockSize: 4, seed: 1, quiet: true,
	}
	bad := base
	bad.variant = "warp"
	if err := run(bad); err == nil {
		t.Error("bad variant accepted")
	}
	bad = base
	bad.structure = "columnar"
	if err := run(bad); err == nil {
		t.Error("bad structure accepted")
	}
	bad = base
	bad.algo = "quantum"
	if err := run(bad); err == nil {
		t.Error("bad algo accepted")
	}
}

// TestRunRejectsUnknownFormat: -format reaches every solver, in memory and
// out-of-core, and a retired or misspelled name fails naming the offender
// and the known set instead of silently running CSF.
func TestRunRejectsUnknownFormat(t *testing.T) {
	for _, ooc := range []bool{false, true} {
		for _, algo := range []string{"aoadmm", "als"} {
			for _, format := range []string{"probe", "blcok-csf"} {
				c := runConfig{
					dataset: "patents", scale: "small", rank: 3, constraint: "nonneg",
					variant: "blocked", structure: "csr", maxOuter: 1, tol: 1e-6,
					blockSize: 16, seed: 1, quiet: true,
					algo: algo, format: format, ooc: ooc,
				}
				err := run(c)
				if err == nil {
					t.Errorf("ooc=%v algo=%s: format %q accepted", ooc, algo, format)
				} else if !strings.Contains(err.Error(), `"`+format+`"`) || !strings.Contains(err.Error(), "csf, alto, auto") {
					t.Errorf("ooc=%v algo=%s: error does not name the offender and the known set: %v", ooc, algo, err)
				}
			}
		}
	}
}

func TestRunAlternativeSolvers(t *testing.T) {
	for _, algo := range []string{"hals", "als"} {
		c := runConfig{
			dataset: "patents", scale: "small", rank: 3, constraint: "nonneg",
			variant: "blocked", structure: "csr", maxOuter: 3, tol: 1e-6,
			blockSize: 16, seed: 1, quiet: true, algo: algo,
		}
		if err := run(c); err != nil {
			t.Errorf("algo %s: %v", algo, err)
		}
	}
}

func TestRunAutoFeatures(t *testing.T) {
	c := runConfig{
		dataset: "reddit", scale: "small", rank: 4, constraint: "nonneg+l1:0.1",
		variant: "blocked", structure: "auto", sparsity: true, maxOuter: 3, tol: 1e-6,
		blockSize: 16, seed: 1, quiet: true,
		singleCSF: true, autoBlock: true,
	}
	if err := run(c); err != nil {
		t.Fatal(err)
	}
}

// -profile must write a valid aoadmm-metrics/v1 JSON report covering all
// four acceptance areas: per-mode kernels, inner-iteration histogram,
// scheduler telemetry, and the density timeline.
func TestRunProfileWritesReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profile.json")
	c := runConfig{
		dataset: "patents", scale: "small", rank: 4, constraint: "nonneg+l1:0.05",
		variant: "blocked", structure: "csr", sparsity: true, threads: 2,
		maxOuter: 4, tol: 1e-6, blockSize: 16, seed: 1, quiet: true,
		adaptiveRho: true, profile: path,
	}
	if err := run(c); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep aoadmm.MetricsReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("profile output is not valid JSON: %v", err)
	}
	if rep.Schema != "aoadmm-metrics/v1" {
		t.Fatalf("schema %q", rep.Schema)
	}
	perMode := false
	for _, k := range rep.Kernels {
		if k.Kernel == "mttkrp" && k.Mode >= 0 {
			perMode = true
		}
	}
	if !perMode {
		t.Fatal("no per-mode mttkrp timing in report")
	}
	if len(rep.ADMM.InnerIterHistogram) == 0 || rep.ADMM.Solves == 0 {
		t.Fatalf("empty ADMM section: %+v", rep.ADMM)
	}
	if len(rep.Scheduler.Threads) == 0 || rep.Scheduler.ImbalanceRatio < 1 {
		t.Fatalf("empty scheduler section: %+v", rep.Scheduler)
	}
	if len(rep.Sparsity) == 0 {
		t.Fatal("empty sparsity timeline")
	}
}

// The profile path must also work for the ALS and HALS solvers.
func TestRunProfileAlternativeSolvers(t *testing.T) {
	for _, algo := range []string{"hals", "als"} {
		path := filepath.Join(t.TempDir(), algo+".json")
		c := runConfig{
			dataset: "patents", scale: "small", rank: 3, constraint: "nonneg",
			variant: "blocked", structure: "csr", maxOuter: 3, tol: 1e-6,
			blockSize: 16, seed: 1, quiet: true, algo: algo, profile: path,
		}
		if err := run(c); err != nil {
			t.Fatalf("algo %s: %v", algo, err)
		}
		var rep aoadmm.MetricsReport
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("algo %s: invalid JSON: %v", algo, err)
		}
		if len(rep.Kernels) == 0 {
			t.Fatalf("algo %s: no kernels in report", algo)
		}
	}
}

// chromeDoc mirrors the Chrome trace_event JSON envelope for test decoding.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func readChromeDoc(t *testing.T, path string) chromeDoc {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X", "i", "M":
		default:
			t.Fatalf("unexpected phase %q for event %q", ev.Ph, ev.Name)
		}
	}
	return doc
}

// -trace must produce a schema-valid Chrome trace with one mttkrp kernel
// span per (outer iteration x mode) and one outer_iter span per iteration,
// for every solver.
func TestRunTraceWritesChromeTrace(t *testing.T) {
	const outers = 4
	for _, algo := range []string{"aoadmm", "hals", "als"} {
		path := filepath.Join(t.TempDir(), algo+".json")
		c := runConfig{
			dataset: "patents", scale: "small", rank: 3, constraint: "nonneg",
			variant: "blocked", structure: "csr", sparsity: true, threads: 2,
			maxOuter: outers, tol: 1e-300, blockSize: 16, seed: 1, quiet: true,
			algo: algo, trace: path,
		}
		if err := run(c); err != nil {
			t.Fatalf("algo %s: %v", algo, err)
		}
		doc := readChromeDoc(t, path)
		mttkrp, outerIters, sched := 0, 0, 0
		for _, ev := range doc.TraceEvents {
			switch {
			case ev.Cat == "kernel" && ev.Name == "mttkrp":
				mttkrp++
			case ev.Cat == "outer" && ev.Name == "outer_iter":
				outerIters++
			case ev.Cat == "sched" && ev.Name == "chunk":
				sched++
			}
		}
		// The patents proxy is an order-3 tensor: one MTTKRP per mode per
		// outer iteration.
		if mttkrp != outers*3 {
			t.Errorf("algo %s: %d mttkrp spans, want %d", algo, mttkrp, outers*3)
		}
		if outerIters != outers {
			t.Errorf("algo %s: %d outer_iter spans, want %d", algo, outerIters, outers)
		}
		if sched == 0 {
			t.Errorf("algo %s: no scheduler chunk spans", algo)
		}
	}
}

// With -ooc the trace must additionally carry shard-pipeline events from
// the prefetcher and the consumer.
func TestRunTraceOutOfCore(t *testing.T) {
	dir := t.TempDir()
	x, _, err := aoadmm.GeneratePlanted(aoadmm.GenOptions{
		Dims: []int{16, 12, 10}, NNZ: 800, Rank: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "in.tns")
	if err := aoadmm.SaveTensor(in, x); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "trace.json")
	if err := run(runConfig{
		input: in, scale: "small", rank: 3, constraint: "nonneg",
		variant: "blocked", structure: "csr", threads: 1,
		maxOuter: 3, tol: 1e-300, blockSize: 4, seed: 1, quiet: true,
		ooc: true, memBudgetMB: 1, trace: path,
	}); err != nil {
		t.Fatal(err)
	}
	doc := readChromeDoc(t, path)
	loads, computes := 0, 0
	for _, ev := range doc.TraceEvents {
		if ev.Cat != "ooc" {
			continue
		}
		switch ev.Name {
		case "shard_load":
			loads++
		case "shard_compute":
			computes++
		}
	}
	if loads == 0 || computes == 0 {
		t.Fatalf("missing ooc spans: %d shard_load, %d shard_compute", loads, computes)
	}
}
