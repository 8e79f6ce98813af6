package core

import (
	"testing"

	"aoadmm/internal/prox"
	"aoadmm/internal/stats"
)

// End-to-end check of the observability subsystem against the acceptance
// criteria: per-mode kernel timings, per-block inner-iteration histogram,
// per-thread scheduler telemetry, and the per-iteration density timeline.
func TestFactorizeCollectMetrics(t *testing.T) {
	x := testTensor(t, 141)
	res, err := Factorize(x, Options{
		Rank:            6,
		Constraints:     []prox.Operator{prox.NonNegL1{Lambda: 0.05}},
		Variant:         Blocked,
		Threads:         2,
		MaxOuterIters:   8,
		ExploitSparsity: true,
		AdaptiveRho:     true,
		Seed:            1,
		CollectMetrics:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("CollectMetrics did not populate Result.Metrics")
	}
	rep := res.Metrics.Report()
	if rep.Schema != stats.MetricsSchema {
		t.Fatalf("schema %q", rep.Schema)
	}

	// Per-mode kernels: mttkrp, gram, admm_inner, cholesky, and prox must
	// appear for every mode; csf_setup and fit are modeless.
	order := x.Order()
	seen := map[string]map[int]bool{}
	for _, k := range rep.Kernels {
		if k.Calls <= 0 {
			t.Fatalf("kernel %s mode %d has %d calls", k.Kernel, k.Mode, k.Calls)
		}
		if seen[k.Kernel] == nil {
			seen[k.Kernel] = map[int]bool{}
		}
		seen[k.Kernel][k.Mode] = true
	}
	for _, kernel := range []string{"mttkrp", "gram", "admm_inner", "cholesky", "prox"} {
		for m := 0; m < order; m++ {
			if !seen[kernel][m] {
				t.Errorf("kernel %s missing mode %d (have %v)", kernel, m, seen[kernel])
			}
		}
	}
	for _, kernel := range []string{"csf_setup", "fit"} {
		if !seen[kernel][stats.ModeNone] {
			t.Errorf("kernel %s missing ModeNone entry", kernel)
		}
	}

	// ADMM counters: one solve per mode per outer iteration, and the
	// histogram must account for every block processed.
	if want := int64(order * res.OuterIters); rep.ADMM.Solves != want {
		t.Fatalf("ADMM solves = %d, want %d", rep.ADMM.Solves, want)
	}
	if rep.ADMM.Blocks <= 0 {
		t.Fatal("no blocks recorded")
	}
	var histTotal int64
	for _, n := range rep.ADMM.InnerIterHistogram {
		histTotal += n
	}
	if histTotal != rep.ADMM.Blocks {
		t.Fatalf("histogram accounts for %d blocks, want %d", histTotal, rep.ADMM.Blocks)
	}

	// Scheduler telemetry: some thread claimed chunks, and the imbalance
	// ratio is defined (>= 1) once work was done.
	if len(rep.Scheduler.Threads) == 0 {
		t.Fatal("no scheduler telemetry")
	}
	var chunks int64
	for _, s := range rep.Scheduler.Threads {
		chunks += s.Chunks
	}
	if chunks <= 0 {
		t.Fatal("no chunks recorded")
	}
	if rep.Scheduler.ImbalanceRatio < 1 {
		t.Fatalf("imbalance ratio %v, want >= 1", rep.Scheduler.ImbalanceRatio)
	}

	// Density timeline: one sample per mode per outer iteration, with a
	// recognized structure label.
	if want := order * res.OuterIters; len(rep.Sparsity) != want {
		t.Fatalf("sparsity timeline has %d samples, want %d", len(rep.Sparsity), want)
	}
	for _, s := range rep.Sparsity {
		if s.Density < 0 || s.Density > 1 {
			t.Fatalf("density %v out of range", s.Density)
		}
		switch s.Structure {
		case "DENSE", "CSR", "CSR-H":
		default:
			t.Fatalf("unknown structure %q", s.Structure)
		}
	}
}

// Metrics must default off with no Result footprint.
func TestFactorizeMetricsDisabledByDefault(t *testing.T) {
	x := testTensor(t, 142)
	res, err := Factorize(x, Options{
		Rank: 4, Constraints: []prox.Operator{prox.NonNegative{}},
		MaxOuterIters: 3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics != nil {
		t.Fatal("Metrics populated without CollectMetrics")
	}
}

// Enabling metrics must not change the solve path's numerics.
func TestFactorizeMetricsDoNotPerturbResult(t *testing.T) {
	x := testTensor(t, 143)
	opts := Options{
		Rank: 4, Constraints: []prox.Operator{prox.NonNegative{}},
		MaxOuterIters: 5, Threads: 2, Seed: 1, AdaptiveRho: true,
	}
	plain, err := Factorize(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.CollectMetrics = true
	collected, err := Factorize(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.RelErr != collected.RelErr || plain.OuterIters != collected.OuterIters {
		t.Fatalf("metrics changed the result: relerr %v vs %v, outer %d vs %d",
			plain.RelErr, collected.RelErr, plain.OuterIters, collected.OuterIters)
	}
}

func TestALSCollectMetrics(t *testing.T) {
	x := testTensor(t, 144)
	res, err := Factorize(x, Options{Variant: ALS,
		Rank: 4, MaxOuterIters: 4, Threads: 2, Seed: 1,
		CollectMetrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Metrics.Report()
	if len(rep.Kernels) == 0 || len(rep.Sparsity) == 0 || len(rep.Scheduler.Threads) == 0 {
		t.Fatalf("ALS metrics incomplete: %d kernels, %d sparsity, %d threads",
			len(rep.Kernels), len(rep.Sparsity), len(rep.Scheduler.Threads))
	}
	for _, k := range rep.Kernels {
		if k.Kernel == "admm_inner" {
			t.Fatal("ALS recorded an ADMM kernel")
		}
	}
}

func TestHALSCollectMetrics(t *testing.T) {
	x := testTensor(t, 145)
	res, err := Factorize(x, Options{Variant: HALS,
		Rank: 4, MaxOuterIters: 4, Threads: 2, Seed: 1,
		CollectMetrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Metrics.Report()
	found := false
	for _, k := range rep.Kernels {
		if k.Kernel == string(stats.KernelHALSUpdate) {
			found = true
		}
	}
	if !found {
		t.Fatal("HALS metrics missing hals_update kernel")
	}
	if len(rep.Sparsity) == 0 || len(rep.Scheduler.Threads) == 0 {
		t.Fatalf("HALS metrics incomplete: %d sparsity, %d threads",
			len(rep.Sparsity), len(rep.Scheduler.Threads))
	}
}
