package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"aoadmm"
)

// TestWorkloadsSmoke runs every workload on the small proxies with a
// one-second budget, untraced and traced, and requires a complete, correct
// result: every correctness check passes and every metric of the catalogue
// is reported.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				var log strings.Builder
				rc := newRunCtx(3, time.Second, traced, aoadmm.ScaleSmall, t.TempDir(), &log)
				res, err := measure(rc, w)
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d/%d: %v\n%s", res.Correct, res.Failed, res.Attempted, rc.problems, log.String())
				}
				defs := e2eMetrics
				if traced {
					defs = layerMetrics
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, catalogue has %d", len(res.Metrics), len(defs))
				}
			})
		}
	}
}

// BENCHMARK.json at the repository root must list exactly the metrics the
// runner reports, with the same units.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		benchSpec
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []boundDef, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the runner %d", kind, len(got), len(want))
		}
		for _, g := range got {
			d, ok := findDef(want, g.Name)
			if !ok || d.unit != g.Unit {
				t.Errorf("%s metric %s (%s) does not match the runner's catalogue", kind, g.Name, g.Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the runner %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		if _, ok := findWorkload(wl.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the runner", wl.Name)
		}
	}
}
