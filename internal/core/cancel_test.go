package core

import (
	"context"
	"path/filepath"
	"testing"

	"aoadmm/internal/kruskal"
	"aoadmm/internal/prox"
	"aoadmm/internal/stats"
)

func TestCtxCancelStopsWithinOneOuterIteration(t *testing.T) {
	x := testTensor(t, 460)
	ctx, cancel := context.WithCancel(context.Background())
	stopAt := 0
	res, err := Factorize(x, Options{
		Rank: 4, Seed: 1, MaxOuterIters: 500, Tol: 1e-300,
		Constraints: []prox.Operator{prox.NonNegative{}},
		Ctx:         ctx,
		OnIteration: func(p stats.TracePoint) bool {
			if p.Iteration == 3 {
				stopAt = p.Iteration
				cancel()
			}
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("Stopped not reported")
	}
	if res.Converged {
		t.Fatal("cancelled run reported converged")
	}
	if res.OuterIters != stopAt {
		t.Fatalf("ran %d outer iterations after cancel at %d", res.OuterIters, stopAt)
	}
	if res.Factors == nil || res.Factors.Rank() != 4 {
		t.Fatal("partial factors missing")
	}
}

func TestCtxCancelledBeforeStart(t *testing.T) {
	x := testTensor(t, 461)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Factorize(x, Options{Rank: 3, Seed: 1, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || res.OuterIters != 0 {
		t.Fatalf("pre-cancelled run executed %d iterations", res.OuterIters)
	}
}

func TestCtxCancelALSAndHALS(t *testing.T) {
	x := testTensor(t, 462)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	als, err := Factorize(x, Options{Variant: ALS, Rank: 3, Seed: 1, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if !als.Stopped || als.OuterIters != 0 {
		t.Fatalf("ALS ran %d iterations after cancel", als.OuterIters)
	}
	hals, err := Factorize(x, Options{Variant: HALS, Rank: 3, Seed: 1, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if !hals.Stopped || hals.OuterIters != 0 {
		t.Fatalf("HALS ran %d iterations after cancel", hals.OuterIters)
	}
}

func TestCheckpointIsAtomicAndErrorsSurface(t *testing.T) {
	x := testTensor(t, 463)
	base := t.TempDir()
	dir := filepath.Join(base, "ckpt")
	res, err := Factorize(x, Options{
		Rank: 4, Seed: 1, MaxOuterIters: 6, Tol: 1e-300,
		Constraints:     []prox.Operator{prox.NonNegative{}},
		CheckpointDir:   dir,
		CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointErr != nil {
		t.Fatalf("checkpoint error: %v", res.CheckpointErr)
	}
	if _, err := kruskal.Load(dir); err != nil {
		t.Fatalf("checkpoint unreadable: %v", err)
	}

	// A checkpoint dir that cannot be written must surface on the result
	// without failing the run (retried at the next interval).
	res2, err := Factorize(x, Options{
		Rank: 4, Seed: 1, MaxOuterIters: 4, Tol: 1e-300,
		CheckpointDir:   filepath.Join(base, "ckpt", "mode0.txt", "impossible"),
		CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.CheckpointErr == nil {
		t.Fatal("unwritable checkpoint dir reported no error")
	}
}
