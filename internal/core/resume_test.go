package core

import (
	"errors"
	"math"
	"path/filepath"
	"testing"

	"aoadmm/internal/faults"
	"aoadmm/internal/kruskal"
	"aoadmm/internal/prox"
)

// TestResumeExactlyReproducesUninterruptedRun is the core of crash recovery:
// a run interrupted at a checkpoint and resumed with the full checkpointed
// state (factors + duals + meta) must land on the same final fit as the run
// that was never interrupted. Single-threaded, the trajectories are
// deterministic, so the final errors agree far inside the 1e-6 acceptance
// window.
func TestResumeExactlyReproducesUninterruptedRun(t *testing.T) {
	x := testTensor(t, 460)
	opts := Options{
		Rank: 4, Seed: 9, MaxOuterIters: 12, Tol: 1e-300, Threads: 1,
		Constraints: []prox.Operator{prox.NonNegative{}},
	}

	full, err := Factorize(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.OuterIters != 12 {
		t.Fatalf("full run did %d iterations", full.OuterIters)
	}

	// Interrupted run: same options plus checkpointing, stopped by the
	// iteration cap at iteration 7.
	dir := filepath.Join(t.TempDir(), "ckpt")
	half := opts
	half.MaxOuterIters = 7
	half.CheckpointDir = dir
	half.CheckpointEvery = 7
	if _, err := Factorize(x, half); err != nil {
		t.Fatal(err)
	}
	ckpt, err := kruskal.LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.Meta == nil || ckpt.Meta.Iteration != 7 || ckpt.Duals == nil {
		t.Fatalf("checkpoint incomplete: meta=%+v duals=%v", ckpt.Meta, ckpt.Duals != nil)
	}

	resumed := opts
	resumed.InitFactors = ckpt.Factors
	resumed.InitDuals = ckpt.Duals
	resumed.StartIter = ckpt.Meta.Iteration
	resumed.PrevRelErr = ckpt.Meta.RelErr
	res, err := Factorize(x, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.OuterIters != 12 {
		t.Fatalf("resumed run ended at iteration %d, want 12", res.OuterIters)
	}
	if diff := math.Abs(res.RelErr - full.RelErr); diff > 1e-6 {
		t.Fatalf("resumed fit %v vs uninterrupted %v (diff %v)", res.RelErr, full.RelErr, diff)
	}
	// Trace iterations continue the interrupted numbering.
	pts := res.Trace.Points
	if len(pts) == 0 || pts[0].Iteration != 8 {
		t.Fatalf("resumed trace starts at %+v", pts)
	}
}

// TestResumeBeyondCapReturnsCheckpointState: a checkpoint taken at or past
// the iteration budget resumes as an immediate no-op that reports the
// checkpointed fit rather than doing more work.
func TestResumeBeyondCapReturnsCheckpointState(t *testing.T) {
	x := testTensor(t, 461)
	dir := filepath.Join(t.TempDir(), "ckpt")
	first, err := Factorize(x, Options{
		Rank: 4, Seed: 2, MaxOuterIters: 5, Tol: 1e-300, Threads: 1,
		Constraints:   []prox.Operator{prox.NonNegative{}},
		CheckpointDir: dir, CheckpointEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := kruskal.LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Factorize(x, Options{
		Rank: 4, MaxOuterIters: 5, Tol: 1e-300, Threads: 1,
		Constraints: []prox.Operator{prox.NonNegative{}},
		InitFactors: ckpt.Factors, InitDuals: ckpt.Duals,
		StartIter: ckpt.Meta.Iteration, PrevRelErr: ckpt.Meta.RelErr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OuterIters != 5 || res.RelErr != first.RelErr {
		t.Fatalf("no-op resume: iters=%d relerr=%v want iters=5 relerr=%v",
			res.OuterIters, res.RelErr, first.RelErr)
	}
}

// TestCheckpointSaveFaultSurfacesOnResult: an injected checkpoint-save failure
// must land in Result.CheckpointErr instead of being dropped, and a later
// successful save clears it (retry-at-next-interval semantics).
func TestCheckpointSaveFaultSurfacesOnResult(t *testing.T) {
	x := testTensor(t, 462)
	dir := filepath.Join(t.TempDir(), "ckpt")
	inj := faults.New()

	// Every save fails: the error must surface.
	inj.Arm(faults.CheckpointSave, 0, -1, errors.New("disk full"))
	res, err := Factorize(x, Options{
		Rank: 4, Seed: 3, MaxOuterIters: 4, Tol: 1e-300,
		Constraints:   []prox.Operator{prox.NonNegative{}},
		CheckpointDir: dir, CheckpointEvery: 2, Faults: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointErr == nil {
		t.Fatal("injected checkpoint failure dropped")
	}
	if _, err := kruskal.LoadCheckpoint(dir); err == nil {
		t.Fatal("checkpoint written despite injected failure")
	}

	// First save fails, the retry at the next interval succeeds and clears
	// the error.
	inj2 := faults.New()
	inj2.Arm(faults.CheckpointSave, 0, 1, errors.New("transient"))
	res2, err := Factorize(x, Options{
		Rank: 4, Seed: 3, MaxOuterIters: 4, Tol: 1e-300,
		Constraints:   []prox.Operator{prox.NonNegative{}},
		CheckpointDir: dir, CheckpointEvery: 2, Faults: inj2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.CheckpointErr != nil {
		t.Fatalf("recovered checkpoint error still set: %v", res2.CheckpointErr)
	}
	ckpt, err := kruskal.LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.Meta.Iteration != 4 {
		t.Fatalf("retried checkpoint at iteration %d", ckpt.Meta.Iteration)
	}
}

// TestCheckpointCarriesJobIdentity: the job/attempt stamps land in the meta.
func TestCheckpointCarriesJobIdentity(t *testing.T) {
	x := testTensor(t, 463)
	dir := filepath.Join(t.TempDir(), "ckpt")
	_, err := Factorize(x, Options{
		Rank: 4, Seed: 4, MaxOuterIters: 2, Tol: 1e-300,
		CheckpointDir: dir, CheckpointEvery: 1,
		CheckpointJobID: "j000007", CheckpointAttempt: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := kruskal.LoadCheckpointMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.JobID != "j000007" || meta.Attempt != 3 || meta.Iteration != 2 {
		t.Fatalf("meta %+v", meta)
	}
}
