package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"aoadmm"
	"aoadmm/internal/obs"
)

// hardDeadline bounds one run end to end: past it the process exits with an
// error, whatever the solver or daemon under test is doing.
const hardDeadline = 170 * time.Second

// workDirRoot holds each run's scratch files, relative to the checkout root.
const workDirRoot = ".bench_build/work"

// workload is one fixed scenario the benchmark runs.
type workload struct {
	name string
	run  func(rc *runCtx) error
}

var workloads = []workload{
	{"fit-patents", runFitPatents},
	{"fit-nell", runFitNell},
	{"ooc-patents", runOOCPatents},
	{"dist-reddit", runDistReddit},
	{"serve-amazon", runServeAmazon},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// value is one reported number plus the sample count behind it.
type value struct {
	v float64
	n int
}

// runCtx carries one run's settings in and its measurements out.
type runCtx struct {
	seed   int64
	budget time.Duration
	traced bool
	scale  aoadmm.Scale
	work   string
	log    io.Writer

	// tracer receives the bench-side spans of a traced run; procs are the
	// extra process tracks (distnet coordinator and workers) merged into the
	// Chrome trace.
	tracer *obs.Tracer
	procs  []obs.ProcessTrace

	e2e       map[string]value
	layer     map[string]value
	attempted int
	failed    int
	problems  []string
}

func newRunCtx(seed int64, budget time.Duration, traced bool, scale aoadmm.Scale, work string, log io.Writer) *runCtx {
	rc := &runCtx{
		seed: seed, budget: budget, traced: traced, scale: scale, work: work, log: log,
		e2e: map[string]value{}, layer: map[string]value{},
	}
	if traced {
		// One ring per load connection as well as per scheduler thread: each
		// sender goroutine must be the only writer of its ring.
		rc.tracer = obs.NewWithCapacity(max(runtime.GOMAXPROCS(0), loadConns), 1<<15)
	}
	return rc
}

// maxProblems bounds how many failed-check messages a run keeps for its
// report; every failure is still counted.
const maxProblems = 20

func (rc *runCtx) setE2E(name string, v float64, n int)   { rc.e2e[name] = value{v, n} }
func (rc *runCtx) setLayer(name string, v float64, n int) { rc.layer[name] = value{v, n} }

// check counts one correctness check; a false ok is a failed operation.
func (rc *runCtx) check(ok bool, format string, args ...any) {
	rc.attempted++
	if !ok {
		rc.failed++
		if len(rc.problems) < maxProblems {
			rc.problems = append(rc.problems, fmt.Sprintf(format, args...))
		}
	}
}

func (rc *runCtx) logf(format string, args ...any) {
	fmt.Fprintf(rc.log, format+"\n", args...)
}

// result is the line the benchmark prints last: exactly these keys.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one line of an --out file: a result tagged with its run.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench compare:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name     = flag.String("workload", "", "workload to run, or \"all\" for every workload in its own child process")
		seed     = flag.Int64("seed", 1, "input seed: drives the tensor sample, factor init, and the query and append streams")
		secs     = flag.Int("seconds", 15, "measurement budget per run in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced pass that reports per-layer metrics")
		traceOut = flag.String("trace-out", "", "Chrome trace path for traced runs (default .bench_build/trace-<workload>-<seed>.json)")
		out      = flag.String("out", "", "append each run's result as one JSON line to this file")
	)
	flag.Parse()
	if err := run(*name, *seed, *secs, *trace, *traceOut, *out); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, secs, trace int, traceOut, out string) error {
	if secs < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", secs)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if name == "all" {
		return runAll(seed, secs, trace, out)
	}
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown --workload %q (want one of %v or all)", name, workloadNames())
	}

	timer := time.AfterFunc(hardDeadline, func() {
		fmt.Fprintf(os.Stderr, "e2ebench: %s exceeded %v; aborting\n", name, hardDeadline)
		os.Exit(3)
	})
	defer timer.Stop()

	work := filepath.Join(workDirRoot, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	rc := newRunCtx(seed, time.Duration(secs)*time.Second, trace == 1, aoadmm.ScaleMedium, work, os.Stdout)
	rc.logf("%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d", name, seed, secs, trace, runtime.GOMAXPROCS(0))
	start := time.Now()
	if rc.traced {
		calibrate(rc)
	}
	res, err := measure(rc, w)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	rc.printSummary(res, time.Since(start))
	if rc.traced {
		path := traceOut
		if path == "" {
			path = filepath.Join(filepath.Dir(workDirRoot), fmt.Sprintf("trace-%s-%d.json", name, seed))
		}
		if err := rc.writeTrace(path, name); err != nil {
			return err
		}
		rc.logf("chrome trace: %s", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if out != "" {
		if err := appendRecord(out, record{Workload: name, Seed: seed, Trace: trace, result: res}); err != nil {
			return err
		}
	}
	fmt.Println(string(line))
	return nil
}

// measure runs one workload and assembles its result.
func measure(rc *runCtx, w workload) (result, error) {
	if err := w.run(rc); err != nil {
		return result{}, err
	}
	if rc.traced {
		rc.setLayer("obs.dropped_spans", float64(rc.tracer.Dropped()), 1)
	} else {
		rc.setE2E("peak_rss_mb", peakRSSMB(), 1)
	}
	return rc.result()
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runAll runs every workload in its own child process, so no workload's heap,
// caches, or goroutines leak into the next one's measurement.
func runAll(seed int64, secs, trace int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(secs), "--trace", strconv.Itoa(trace), "--out", out)
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return nil
}

// result assembles the final line: every end-to-end metric on an untraced
// run, every per-layer metric on a traced one. Per-layer metrics a workload
// does not exercise read 0; a missing or non-finite end-to-end metric is an
// error, since it would make the run unusable for comparison.
func (rc *runCtx) result() (result, error) {
	res := result{Attempted: rc.attempted, Failed: rc.failed, Metrics: map[string]jsonMetric{}}
	defs, got := e2eMetrics, rc.e2e
	if rc.traced {
		defs, got = layerMetrics, rc.layer
	}
	for name := range got {
		if _, ok := findDef(defs, name); !ok {
			return res, fmt.Errorf("metric %q is not in the catalogue", name)
		}
	}
	for _, d := range defs {
		v, ok := got[d.name]
		switch {
		case !ok && !rc.traced:
			return res, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		case math.IsNaN(v.v) || math.IsInf(v.v, 0):
			return res, fmt.Errorf("metric %s is not finite (%v)", d.name, v.v)
		case !rc.traced && v.v <= 0:
			return res, fmt.Errorf("end-to-end metric %s must be positive, got %v", d.name, v.v)
		}
		res.Metrics[d.name] = jsonMetric{Value: v.v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return res, errors.New("no operation was attempted")
	}
	res.Correct = rc.failed == 0
	return res, nil
}

func (rc *runCtx) printSummary(res result, elapsed time.Duration) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	got := rc.e2e
	if rc.traced {
		got = rc.layer
	}
	for _, n := range names {
		m := res.Metrics[n]
		rc.logf("  %-32s %14.6g %-8s n=%d", n, m.Value, m.Unit, got[n].n)
	}
	for _, p := range rc.problems {
		rc.logf("  FAILED CHECK: %s", p)
	}
	rc.logf("  attempted=%d failed=%d correct=%v wall=%.1fs", res.Attempted, res.Failed, res.Correct, elapsed.Seconds())
}

func (rc *runCtx) writeTrace(path, name string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	procs := []obs.ProcessTrace{{
		PID: 1, Name: "e2ebench " + name, SortIndex: -2,
		Workers: rc.tracer.Workers(), Events: rc.tracer.Events(),
	}}
	procs = append(procs, rc.procs...)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeProcesses(f, procs, map[string]any{
		"workload": name, "seed": rc.seed, "dropped_spans": rc.tracer.Dropped(),
	}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
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

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
