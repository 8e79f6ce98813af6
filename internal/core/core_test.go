package core

import (
	"math"
	"testing"
	"time"

	"aoadmm/internal/prox"
	"aoadmm/internal/stats"
	"aoadmm/internal/tensor"
)

// testTensor generates a modest planted non-negative low-rank tensor that
// both solvers should fit well.
func testTensor(t *testing.T, seed int64) *tensor.COO {
	t.Helper()
	x, _, err := tensor.PlantedLowRank(tensor.GenOptions{
		Dims: []int{40, 45, 50}, NNZ: 6000, Rank: 4, Seed: seed,
		NoiseStd: 0.05, Skew: []float64{1.3, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestFactorizeNonNegConverges(t *testing.T) {
	x := testTensor(t, 101)
	res, err := Factorize(x, Options{
		Rank:        6,
		Constraints: []prox.Operator{prox.NonNegative{}},
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RelErr >= 0.8 {
		t.Fatalf("rel err %v too high for planted rank-4 data", res.RelErr)
	}
	if res.OuterIters == 0 || res.OuterIters > DefaultMaxOuterIters {
		t.Fatalf("outer iters %d", res.OuterIters)
	}
	// Non-negativity must hold on every factor.
	for m, f := range res.Factors.Factors {
		for _, v := range f.Data {
			if v < 0 {
				t.Fatalf("mode %d factor has negative entry %v", m, v)
			}
		}
	}
	if len(res.Trace.Points) != res.OuterIters {
		t.Fatalf("trace has %d points for %d iters", len(res.Trace.Points), res.OuterIters)
	}
	if res.Breakdown.Total() <= 0 {
		t.Fatal("empty breakdown")
	}
}

func TestFactorizeErrorDecreasesOverall(t *testing.T) {
	x := testTensor(t, 102)
	res, err := Factorize(x, Options{Rank: 5, Constraints: []prox.Operator{prox.NonNegative{}}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Trace.Points
	if len(pts) < 3 {
		t.Fatalf("only %d trace points", len(pts))
	}
	first, last := pts[0].RelErr, pts[len(pts)-1].RelErr
	if last >= first {
		t.Fatalf("error did not decrease: %v -> %v", first, last)
	}
	// AO gives monotone objective in exact arithmetic; allow tiny inner-
	// solver slack but catch real regressions.
	for i := 1; i < len(pts); i++ {
		if pts[i].RelErr > pts[i-1].RelErr+5e-3 {
			t.Fatalf("error jumped at iter %d: %v -> %v", pts[i].Iteration, pts[i-1].RelErr, pts[i].RelErr)
		}
	}
}

func TestBaselineAndBlockedReachSimilarFits(t *testing.T) {
	x := testTensor(t, 103)
	var errs [2]float64
	for i, v := range []Variant{Baseline, Blocked} {
		res, err := Factorize(x, Options{
			Rank: 5, Constraints: []prox.Operator{prox.NonNegative{}},
			Variant: v, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		errs[i] = res.RelErr
	}
	if math.Abs(errs[0]-errs[1]) > 0.05 {
		t.Fatalf("baseline %v vs blocked %v differ too much", errs[0], errs[1])
	}
}

func TestUnconstrainedMatchesALS(t *testing.T) {
	x := testTensor(t, 104)
	ao, err := Factorize(x, Options{Rank: 5, Seed: 4, MaxOuterIters: 60})
	if err != nil {
		t.Fatal(err)
	}
	als, err := FactorizeALS(x, ALSOptions{Rank: 5, Seed: 4, MaxOuterIters: 60})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ao.RelErr-als.RelErr) > 0.05 {
		t.Fatalf("AO-ADMM %v vs ALS %v: unconstrained fits must agree", ao.RelErr, als.RelErr)
	}
}

func TestL1ProducesSparserFactorsThanUnconstrained(t *testing.T) {
	x, _, err := tensor.PlantedLowRank(tensor.GenOptions{
		Dims: []int{60, 60, 60}, NNZ: 4000, Rank: 4, Seed: 105,
		FactorDensity: 0.3, NoiseStd: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Factorize(x, Options{Rank: 8, Seed: 5, MaxOuterIters: 40})
	if err != nil {
		t.Fatal(err)
	}
	l1, err := Factorize(x, Options{
		Rank: 8, Seed: 5, MaxOuterIters: 40,
		Constraints: []prox.Operator{prox.NonNegL1{Lambda: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var dPlain, dL1 float64
	for m := range plain.FactorDensities {
		dPlain += plain.FactorDensities[m]
		dL1 += l1.FactorDensities[m]
	}
	if dL1 >= dPlain {
		t.Fatalf("l1 densities %v not below unconstrained %v", l1.FactorDensities, plain.FactorDensities)
	}
}

func TestSparseMTTKRPStructuresAgree(t *testing.T) {
	x, _, err := tensor.PlantedLowRank(tensor.GenOptions{
		Dims: []int{50, 55, 60}, NNZ: 5000, Rank: 3, Seed: 106,
		FactorDensity: 0.2, NoiseStd: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := Options{
		Rank: 6, Seed: 6, MaxOuterIters: 30,
		Constraints: []prox.Operator{prox.NonNegL1{Lambda: 0.3}},
	}
	var results []*Result
	for _, s := range []Structure{StructDense, StructCSR, StructHybrid} {
		o := base
		o.ExploitSparsity = s != StructDense
		o.Structure = s
		res, err := Factorize(x, o)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		results = append(results, res)
	}
	// The compressed structures are exact: identical trajectories.
	for i := 1; i < len(results); i++ {
		if math.Abs(results[i].RelErr-results[0].RelErr) > 1e-9 {
			t.Fatalf("structure %d relerr %v != dense %v (compression must be exact)",
				i, results[i].RelErr, results[0].RelErr)
		}
	}
	// With an aggressive l1 on planted-sparse data, some sparse MTTKRPs
	// should have fired.
	if results[1].SparseMTTKRPs == 0 {
		t.Log("warning: CSR path never engaged (density stayed above threshold)")
	}
}

func TestOptionsValidation(t *testing.T) {
	x := testTensor(t, 107)
	if _, err := Factorize(x, Options{Rank: 0}); err == nil {
		t.Fatal("Rank=0 accepted")
	}
	if _, err := Factorize(x, Options{Rank: 2, Constraints: []prox.Operator{prox.NonNegative{}, prox.NonNegative{}}}); err == nil {
		t.Fatal("wrong constraint count accepted")
	}
	empty := tensor.NewCOO([]int{3, 3}, 0)
	if _, err := Factorize(empty, Options{Rank: 2}); err == nil {
		t.Fatal("empty tensor accepted")
	}
	if _, err := FactorizeALS(x, ALSOptions{Rank: 0}); err == nil {
		t.Fatal("ALS Rank=0 accepted")
	}
	if _, err := FactorizeALS(empty, ALSOptions{Rank: 2}); err == nil {
		t.Fatal("ALS empty tensor accepted")
	}
}

func TestPerModeConstraints(t *testing.T) {
	x := testTensor(t, 108)
	res, err := Factorize(x, Options{
		Rank: 4, Seed: 7, MaxOuterIters: 25,
		Constraints: []prox.Operator{prox.NonNegative{}, prox.Unconstrained{}, prox.Simplex{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Mode 0 non-negative.
	for _, v := range res.Factors.Factors[0].Data {
		if v < 0 {
			t.Fatalf("mode 0 has negative entry %v", v)
		}
	}
	// Mode 2 rows on the simplex.
	f := res.Factors.Factors[2]
	for i := 0; i < f.Rows; i++ {
		var s float64
		for _, v := range f.Row(i) {
			if v < -1e-9 {
				t.Fatalf("mode 2 row %d has negative entry", i)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-6 {
			t.Fatalf("mode 2 row %d sums to %v", i, s)
		}
	}
}

// TestOnIterationEarlyStop checks that the OnIteration hook stops every
// solver after the iteration it returns false on: the hook lives in the one
// outer loop the solvers share, so the behaviour must not depend on the step.
func TestOnIterationEarlyStop(t *testing.T) {
	x := testTensor(t, 109)
	st, _ := shardedFor(t, x)
	solvers := []struct {
		name string
		run  func(hook func(stats.TracePoint) bool) (*Result, error)
	}{
		{"aoadmm", func(hook func(stats.TracePoint) bool) (*Result, error) {
			return Factorize(x, Options{Rank: 4, Seed: 8, OnIteration: hook})
		}},
		{"als", func(hook func(stats.TracePoint) bool) (*Result, error) {
			return FactorizeALS(x, ALSOptions{Rank: 4, Seed: 8, OnIteration: hook})
		}},
		{"als-ooc", func(hook func(stats.TracePoint) bool) (*Result, error) {
			return FactorizeALSOOC(st, ALSOptions{Rank: 4, Seed: 8, OnIteration: hook})
		}},
		{"hals", func(hook func(stats.TracePoint) bool) (*Result, error) {
			return FactorizeHALS(x, HALSOptions{Rank: 4, Seed: 8, OnIteration: hook})
		}},
	}
	for _, sv := range solvers {
		t.Run(sv.name, func(t *testing.T) {
			calls := 0
			res, err := sv.run(func(p stats.TracePoint) bool {
				calls++
				return p.Iteration < 3
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.OuterIters != 3 || calls != 3 {
				t.Fatalf("outer=%d calls=%d, want 3/3", res.OuterIters, calls)
			}
			if len(res.Trace.Points) != res.OuterIters {
				t.Fatalf("%d trace points for %d outer iterations", len(res.Trace.Points), res.OuterIters)
			}
		})
	}
}

func TestMaxTimeStops(t *testing.T) {
	x := testTensor(t, 110)
	res, err := Factorize(x, Options{
		Rank: 6, Seed: 9, MaxTime: time.Millisecond, Tol: 1e-300,
		MaxOuterIters: 10000, InnerMaxIters: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OuterIters >= 10000 {
		t.Fatal("MaxTime did not stop the run")
	}
	if res.Converged {
		t.Fatal("time-limited run must not report convergence")
	}
}

func TestALSFitsPlantedData(t *testing.T) {
	x := testTensor(t, 111)
	res, err := FactorizeALS(x, ALSOptions{Rank: 6, Seed: 10, Ridge: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if res.RelErr >= 0.8 {
		t.Fatalf("ALS rel err %v too high", res.RelErr)
	}
	if len(res.Trace.Points) == 0 || res.Breakdown.Total() <= 0 {
		t.Fatal("missing trace/breakdown")
	}
}

func TestDeterministicForFixedSeed(t *testing.T) {
	x := testTensor(t, 112)
	o := Options{Rank: 4, Seed: 11, MaxOuterIters: 10, Constraints: []prox.Operator{prox.NonNegative{}}}
	a, err := Factorize(x, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Factorize(x, o)
	if err != nil {
		t.Fatal(err)
	}
	if a.RelErr != b.RelErr {
		t.Fatalf("same seed, different results: %v vs %v", a.RelErr, b.RelErr)
	}
}

func TestVariantAndStructureStrings(t *testing.T) {
	if Baseline.String() != "base" || Blocked.String() != "blocked" {
		t.Fatal("variant names")
	}
	if StructDense.String() != "DENSE" || StructCSR.String() != "CSR" || StructHybrid.String() != "CSR-H" {
		t.Fatal("structure names")
	}
}

func TestRejectsNonFiniteTensor(t *testing.T) {
	x := testTensor(t, 480)
	x.Vals[0] = math.NaN()
	if _, err := Factorize(x, Options{Rank: 3}); err == nil {
		t.Fatal("NaN tensor accepted by Factorize")
	}
	if _, err := FactorizeALS(x, ALSOptions{Rank: 3}); err == nil {
		t.Fatal("NaN tensor accepted by ALS")
	}
	if _, err := FactorizeHALS(x, HALSOptions{Rank: 3}); err == nil {
		t.Fatal("NaN tensor accepted by HALS")
	}
}
