package core

import (
	"math"
	"testing"

	"aoadmm/internal/prox"
)

func TestHALSConvergesOnPlantedData(t *testing.T) {
	x := testTensor(t, 420)
	res, err := Factorize(x, Options{Variant: HALS, Rank: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.RelErr >= 0.8 {
		t.Fatalf("HALS rel err %v too high", res.RelErr)
	}
	for m, f := range res.Factors.Factors {
		for _, v := range f.Data {
			if v < 0 {
				t.Fatalf("mode %d has negative entry %v", m, v)
			}
		}
	}
	pts := res.Trace.Points
	if len(pts) < 2 || pts[len(pts)-1].RelErr >= pts[0].RelErr {
		t.Fatalf("no progress: %v", pts)
	}
}

func TestHALSComparableToAOADMM(t *testing.T) {
	x := testTensor(t, 421)
	hals, err := Factorize(x, Options{Variant: HALS, Rank: 5, Seed: 2, MaxOuterIters: 60})
	if err != nil {
		t.Fatal(err)
	}
	ao, err := Factorize(x, Options{
		Rank: 5, Seed: 2, MaxOuterIters: 60,
		Constraints: []prox.Operator{prox.NonNegative{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both solve the same non-negative CPD; final errors must be in the
	// same neighborhood.
	if math.Abs(hals.RelErr-ao.RelErr) > 0.1 {
		t.Fatalf("HALS %v vs AO-ADMM %v diverge", hals.RelErr, ao.RelErr)
	}
}

func TestHALSErrorNearMonotone(t *testing.T) {
	x := testTensor(t, 422)
	res, err := Factorize(x, Options{Variant: HALS, Rank: 4, Seed: 3, MaxOuterIters: 40})
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Trace.Points
	for i := 1; i < len(pts); i++ {
		if pts[i].RelErr > pts[i-1].RelErr+1e-6 {
			t.Fatalf("HALS error increased at iter %d: %v -> %v (block coordinate descent must be monotone)",
				pts[i].Iteration, pts[i-1].RelErr, pts[i].RelErr)
		}
	}
}

func TestHALSValidation(t *testing.T) {
	x := testTensor(t, 423)
	if _, err := Factorize(x, Options{Variant: HALS, Rank: 0}); err == nil {
		t.Fatal("Rank=0 accepted")
	}
}

func TestHALSParallelConsistent(t *testing.T) {
	x := testTensor(t, 424)
	a, err := Factorize(x, Options{Variant: HALS, Rank: 4, Seed: 4, MaxOuterIters: 10, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Factorize(x, Options{Variant: HALS, Rank: 4, Seed: 4, MaxOuterIters: 10, Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Row-parallel updates change no arithmetic; results differ only via
	// the Gram reductions' association.
	if math.Abs(a.RelErr-b.RelErr) > 1e-9 {
		t.Fatalf("threads changed HALS result: %v vs %v", a.RelErr, b.RelErr)
	}
}
