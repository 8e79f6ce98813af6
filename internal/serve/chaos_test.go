package serve

import (
	"errors"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aoadmm/internal/faults"
)

// The chaos suite drives the durability machinery through every injected
// failure mode and asserts the ISSUE's invariant: no job is ever lost,
// duplicated, or left torn — whatever fails, each submitted job ends in
// exactly one coherent terminal state and the registry holds at most one
// model per job.

// newChaosManager assembles a Manager over dataDir the way Server.New does,
// but hands the pieces back so tests can crash and reopen at will.
func newChaosManager(t *testing.T, dataDir string, inj *faults.Injector, cfg ManagerConfig) *Manager {
	t.Helper()
	reg, _, err := OpenRegistry(filepath.Join(dataDir, "models"))
	if err != nil {
		t.Fatal(err)
	}
	jnl, recovered, warns, err := OpenJournal(filepath.Join(dataDir, "journal.jsonl"), inj)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range warns {
		t.Logf("journal warning: %v", w)
	}
	cfg.Faults = inj
	m := NewManager(reg, dataDir, jnl, recovered, cfg)
	t.Cleanup(func() { m.Shutdown(10 * time.Second) })
	return m
}

// quickSpec is a job small enough to finish in well under a second.
func quickSpec(t *testing.T, seed int64) JobSpec {
	t.Helper()
	return JobSpec{
		TensorPath:    testTNS(t, []int{12, 10, 8}, 400, seed),
		Rank:          3,
		Constraint:    "nonneg",
		MaxOuterIters: 5,
		Seed:          1,
		Threads:       1,
	}
}

// pollManagerJob polls a manager-held job until it reaches want.
func pollManagerJob(t *testing.T, m *Manager, id string, want JobStatus, deadline time.Duration) JobView {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		j, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		v := j.View()
		if JobStatus(v.Status) == want {
			return v
		}
		if time.Now().After(stop) {
			t.Fatalf("job %s stuck in %q (err=%q), want %q", id, v.Status, v.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitCrash waits for a fault-triggered crash to finish tearing down.
func waitCrash(t *testing.T, m *Manager, deadline time.Duration) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for !m.Crashed() {
		if time.Now().After(stop) {
			t.Fatal("manager never crashed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Join the teardown: Crash returns immediately once closed, so a second
	// call only returns after the async teardown released the worker pool.
	m.Crash()
}

// TestChaosJournalFailureRejectsSubmit: a job that cannot be journaled must
// be rejected at submission — the durability contract is never silently void.
func TestChaosJournalFailureRejectsSubmit(t *testing.T) {
	inj := faults.New()
	m := newChaosManager(t, t.TempDir(), inj, ManagerConfig{Workers: 1})

	spec := quickSpec(t, 21)
	inj.Arm(faults.JournalAppend, 0, 1, errors.New("disk gone"))
	if _, err := m.Submit(spec); err == nil {
		t.Fatal("unjournaled submission accepted")
	}
	if len(m.List()) != 0 {
		t.Fatalf("rejected job leaked into the table: %+v", m.List())
	}

	// The injector is spent: the next submission goes through, and the job
	// id sequence has no gap from the rejected attempt.
	v, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != "j000001" {
		t.Fatalf("first accepted job got id %s", v.ID)
	}
	pollManagerJob(t, m, v.ID, JobDone, 60*time.Second)
}

// TestChaosWorkerPanicRetriesThenSucceeds: an injected worker panic becomes
// a retryable attempt failure, and the retry (with the panic disarmed by its
// budget) completes the job.
func TestChaosWorkerPanicRetriesThenSucceeds(t *testing.T) {
	inj := faults.New()
	inj.ArmPanic(faults.WorkerRun, 1, "chaos monkey")
	m := newChaosManager(t, t.TempDir(), inj, ManagerConfig{
		Workers: 1, MaxAttempts: 3, RetryBackoff: 10 * time.Millisecond,
	})
	v, err := m.Submit(quickSpec(t, 22))
	if err != nil {
		t.Fatal(err)
	}
	done := pollManagerJob(t, m, v.ID, JobDone, 60*time.Second)
	if done.Attempt != 2 {
		t.Fatalf("job finished on attempt %d, want 2", done.Attempt)
	}
	if len(done.Errors) != 1 || !strings.Contains(done.Errors[0], "worker panic") ||
		!strings.Contains(done.Errors[0], "chaos monkey") {
		t.Fatalf("error chain %v", done.Errors)
	}
	if done.ModelID == "" {
		t.Fatal("retried job registered no model")
	}
	stats := m.DurabilityStats()
	if stats["panics"].(int64) != 1 || stats["retries"].(int64) != 1 {
		t.Fatalf("durability stats %+v", stats)
	}
}

// TestChaosRetryExhaustionFailsTerminally: a persistently failing job burns
// its attempt budget and lands in failed with the full error chain.
func TestChaosRetryExhaustionFailsTerminally(t *testing.T) {
	inj := faults.New()
	inj.Arm(faults.WorkerRun, 0, -1, errors.New("persistent fault"))
	m := newChaosManager(t, t.TempDir(), inj, ManagerConfig{
		Workers: 1, MaxAttempts: 2, RetryBackoff: 5 * time.Millisecond,
	})
	v, err := m.Submit(quickSpec(t, 23))
	if err != nil {
		t.Fatal(err)
	}
	failed := pollManagerJob(t, m, v.ID, JobFailed, 60*time.Second)
	if failed.Attempt != 2 || len(failed.Errors) != 2 {
		t.Fatalf("failed after attempt %d with chain %v", failed.Attempt, failed.Errors)
	}
	for i, e := range failed.Errors {
		if !strings.Contains(e, "persistent fault") {
			t.Fatalf("error %d: %q", i, e)
		}
	}
}

// TestChaosCancelDuringBackoffWins: canceling a job parked in retry backoff
// takes effect immediately and the pending retry timer must not revive it.
func TestChaosCancelDuringBackoffWins(t *testing.T) {
	inj := faults.New()
	inj.Arm(faults.WorkerRun, 0, 1, errors.New("transient"))
	m := newChaosManager(t, t.TempDir(), inj, ManagerConfig{
		Workers: 1, MaxAttempts: 3, RetryBackoff: 150 * time.Millisecond, RetryBackoffMax: 200 * time.Millisecond,
	})
	v, err := m.Submit(quickSpec(t, 24))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first attempt to fail back into queued.
	stop := time.Now().Add(30 * time.Second)
	for {
		j, _ := m.Get(v.ID)
		view := j.View()
		if view.Status == string(JobQueued) && view.Attempt == 1 {
			break
		}
		if time.Now().After(stop) {
			t.Fatalf("job never re-queued: %+v", view)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := m.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond) // let the retry timer fire into the void
	j, _ := m.Get(v.ID)
	if got := j.View(); got.Status != string(JobCanceled) || got.Attempt != 1 {
		t.Fatalf("canceled job revived: %+v", got)
	}
}

// TestChaosCheckpointFailureSurfacesOnJobView is the satellite-5 end of the
// CheckpointErr propagation path: an injected checkpoint-save failure inside the
// solver must reach the job's API view while the job itself still succeeds.
func TestChaosCheckpointFailureSurfacesOnJobView(t *testing.T) {
	inj := faults.New()
	inj.Arm(faults.CheckpointSave, 0, -1, errors.New("disk full"))
	m := newChaosManager(t, t.TempDir(), inj, ManagerConfig{Workers: 1})
	spec := quickSpec(t, 25)
	spec.CheckpointEvery = 1
	v, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := pollManagerJob(t, m, v.ID, JobDone, 60*time.Second)
	if done.CheckpointErr == "" {
		t.Fatal("injected checkpoint failure never reached the job view")
	}
	if !strings.Contains(done.CheckpointErr, "disk full") {
		t.Fatalf("checkpoint error %q", done.CheckpointErr)
	}
	if done.ModelID == "" {
		t.Fatal("checkpoint failure must not fail the run itself")
	}
}

// TestChaosJobTimeoutFailsTerminally: a job that exceeds its wall-clock
// budget fails terminally (no retry — it would just time out again).
func TestChaosJobTimeoutFailsTerminally(t *testing.T) {
	m := newChaosManager(t, t.TempDir(), nil, ManagerConfig{
		Workers: 1, MaxAttempts: 3, RetryBackoff: 5 * time.Millisecond,
	})
	spec := slowJobSpec(t, 26)
	spec.TimeoutSec = 0.4
	v, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	failed := pollManagerJob(t, m, v.ID, JobFailed, 60*time.Second)
	if failed.Attempt != 1 {
		t.Fatalf("timed-out job retried: %+v", failed)
	}
	if !strings.Contains(failed.Error, "timeout") {
		t.Fatalf("error %q", failed.Error)
	}
	if m.DurabilityStats()["timeouts"].(int64) != 1 {
		t.Fatalf("timeouts counter %+v", m.DurabilityStats())
	}
}

// TestChaosCrashBeforeCommitRerunsJob: a crash between solver completion and
// model registration loses the attempt but not the job — recovery re-runs it
// and exactly one model comes out the other side.
func TestChaosCrashBeforeCommitRerunsJob(t *testing.T) {
	dataDir := t.TempDir()
	inj := faults.New()
	inj.ArmCrash(faults.CrashBeforeCommit)
	m := newChaosManager(t, dataDir, inj, ManagerConfig{Workers: 1})
	v, err := m.Submit(quickSpec(t, 27))
	if err != nil {
		t.Fatal(err)
	}
	waitCrash(t, m, 60*time.Second)
	if m.reg.Len() != 0 {
		t.Fatalf("model registered before commit crash: %d", m.reg.Len())
	}

	m2 := newChaosManager(t, dataDir, faults.New(), ManagerConfig{Workers: 1})
	rec := m2.Recovery()
	if rec.Resumed+rec.Restarted != 1 || rec.Adopted != 0 {
		t.Fatalf("recovery %+v", rec)
	}
	done := pollManagerJob(t, m2, v.ID, JobDone, 60*time.Second)
	if done.ModelID == "" {
		t.Fatalf("recovered job has no model: %+v", done)
	}
	if m2.reg.Len() != 1 {
		t.Fatalf("registry has %d models, want 1", m2.reg.Len())
	}
	if len(m2.List()) != 1 {
		t.Fatalf("job duplicated across the crash: %+v", m2.List())
	}
}

// TestChaosCrashAfterCommitAdoptsModel: a crash between model registration
// and the terminal journal record must NOT re-run the job — recovery finds
// the model by job id and adopts it, keeping exactly one model.
func TestChaosCrashAfterCommitAdoptsModel(t *testing.T) {
	dataDir := t.TempDir()
	inj := faults.New()
	inj.ArmCrash(faults.CrashAfterCommit)
	m := newChaosManager(t, dataDir, inj, ManagerConfig{Workers: 1})
	v, err := m.Submit(quickSpec(t, 28))
	if err != nil {
		t.Fatal(err)
	}
	waitCrash(t, m, 60*time.Second)
	if m.reg.Len() != 1 {
		t.Fatalf("commit did not land before crash: %d models", m.reg.Len())
	}

	m2 := newChaosManager(t, dataDir, faults.New(), ManagerConfig{Workers: 1})
	rec := m2.Recovery()
	if rec.Adopted != 1 || rec.Resumed+rec.Restarted+rec.Requeued != 0 {
		t.Fatalf("recovery %+v", rec)
	}
	j, ok := m2.Get(v.ID)
	if !ok {
		t.Fatalf("job %s lost", v.ID)
	}
	got := j.View()
	if got.Status != string(JobDone) || got.ModelID == "" {
		t.Fatalf("adopted job %+v", got)
	}
	if m2.reg.Len() != 1 {
		t.Fatalf("model duplicated: %d", m2.reg.Len())
	}
	if _, ok := m2.reg.Get(got.ModelID); !ok {
		t.Fatalf("adopted model id %s not in registry", got.ModelID)
	}
}

// TestChaosCrashRequeuesQueuedJobsExactlyOnce: jobs that never reached a
// worker before the crash are re-enqueued exactly once and complete.
func TestChaosCrashRequeuesQueuedJobsExactlyOnce(t *testing.T) {
	dataDir := t.TempDir()
	m := newChaosManager(t, dataDir, nil, ManagerConfig{Workers: 1, QueueCap: 8})
	// One slow job to occupy the single worker, two quick ones stuck queued.
	slow, err := m.Submit(slowJobSpec(t, 29))
	if err != nil {
		t.Fatal(err)
	}
	pollManagerJob(t, m, slow.ID, JobRunning, 60*time.Second)
	q1, err := m.Submit(quickSpec(t, 30))
	if err != nil {
		t.Fatal(err)
	}
	q2, err := m.Submit(quickSpec(t, 31))
	if err != nil {
		t.Fatal(err)
	}
	m.Crash()

	// Two workers on restart so the re-run slow job cannot starve the two
	// recovered queued jobs.
	m2 := newChaosManager(t, dataDir, nil, ManagerConfig{Workers: 2, QueueCap: 8})
	rec := m2.Recovery()
	if rec.Requeued != 2 || rec.Resumed+rec.Restarted != 1 {
		t.Fatalf("recovery %+v", rec)
	}
	if len(m2.List()) != 3 {
		t.Fatalf("job table after recovery: %+v", m2.List())
	}
	pollManagerJob(t, m2, q1.ID, JobDone, 120*time.Second)
	pollManagerJob(t, m2, q2.ID, JobDone, 120*time.Second)
	if m2.reg.Len() != 2 {
		t.Fatalf("registry has %d models, want 2", m2.reg.Len())
	}
	m2.Cancel(slow.ID)
}

// TestCrashRecoveryResumesFromCheckpoint is the acceptance-criteria e2e: a
// running job is crashed after at least one checkpoint, the daemon restarts
// over the same data dir, and the job resumes from the checkpoint — finishing
// with the same iteration count and a final fit within 1e-6 of a run that
// was never interrupted, with no duplicate jobs or models.
func TestCrashRecoveryResumesFromCheckpoint(t *testing.T) {
	spec := JobSpec{
		TensorPath:      testTNS(t, []int{40, 40, 40}, 20000, 77),
		Rank:            4,
		Constraint:      "nonneg",
		MaxOuterIters:   40,
		Tol:             1e-300,
		Threads:         1,
		Seed:            5,
		CheckpointEvery: 1,
	}

	// Reference: the same job, never interrupted.
	refMgr := newChaosManager(t, t.TempDir(), nil, ManagerConfig{Workers: 1})
	refView, err := refMgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref := pollManagerJob(t, refMgr, refView.ID, JobDone, 300*time.Second)
	if ref.OuterIters != 40 {
		t.Fatalf("reference run did %d iterations", ref.OuterIters)
	}

	// Crash run: kill the manager as soon as a checkpoint is durable.
	dataDir := t.TempDir()
	m := newChaosManager(t, dataDir, nil, ManagerConfig{Workers: 1})
	v, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ckptFile := filepath.Join(dataDir, "checkpoints", v.ID, "checkpoint.json")
	stop := time.Now().Add(120 * time.Second)
	for {
		if _, err := os.Stat(ckptFile); err == nil {
			break
		}
		if time.Now().After(stop) {
			t.Fatal("no checkpoint ever appeared")
		}
		time.Sleep(time.Millisecond)
	}
	m.Crash()
	if j, _ := m.Get(v.ID); JobStatus(j.View().Status) == JobDone {
		t.Skip("job finished before the crash landed; no resume to test")
	}

	// Restart over the same data dir: the job must resume, not restart.
	m2 := newChaosManager(t, dataDir, nil, ManagerConfig{Workers: 1})
	rec := m2.Recovery()
	if rec.Resumed != 1 {
		t.Fatalf("recovery %+v, want exactly one resumed job", rec)
	}
	done := pollManagerJob(t, m2, v.ID, JobDone, 300*time.Second)
	if done.ResumedFromIter < 1 {
		t.Fatalf("job did not warm-restart: %+v", done)
	}
	if done.OuterIters != 40 {
		t.Fatalf("resumed job ended at iteration %d, want 40", done.OuterIters)
	}
	if diff := math.Abs(done.RelErr - ref.RelErr); diff > 1e-6 {
		t.Fatalf("resumed fit %v vs uninterrupted %v (diff %v)", done.RelErr, ref.RelErr, diff)
	}
	if len(m2.List()) != 1 {
		t.Fatalf("job duplicated: %+v", m2.List())
	}
	if m2.reg.Len() != 1 {
		t.Fatalf("registry has %d models, want 1", m2.reg.Len())
	}
}

// TestCrashRecoveryResumesALSFromCheckpoint crashes an ALS job after its
// first checkpoint (factors only: ALS carries no duals) and restarts the
// daemon: the job resumes, and its model holds bit for bit the factors of
// an uninterrupted single-threaded run.
func TestCrashRecoveryResumesALSFromCheckpoint(t *testing.T) {
	spec := JobSpec{
		TensorPath:      testTNS(t, []int{40, 40, 40}, 20000, 78),
		Algo:            "als",
		Rank:            4,
		MaxOuterIters:   60,
		Tol:             1e-300,
		Threads:         1,
		Seed:            5,
		CheckpointEvery: 1,
	}

	refMgr := newChaosManager(t, t.TempDir(), nil, ManagerConfig{Workers: 1})
	refView, err := refMgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref := pollManagerJob(t, refMgr, refView.ID, JobDone, 300*time.Second)
	refModel, ok := refMgr.reg.Get(ref.ModelID)
	if !ok || ref.OuterIters != 60 {
		t.Fatalf("reference run: %+v", ref)
	}

	dataDir := t.TempDir()
	m := newChaosManager(t, dataDir, nil, ManagerConfig{Workers: 1})
	v, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ckptFile := filepath.Join(dataDir, "checkpoints", v.ID, "checkpoint.json")
	stop := time.Now().Add(120 * time.Second)
	for {
		if _, err := os.Stat(ckptFile); err == nil {
			break
		}
		if time.Now().After(stop) {
			t.Fatal("no checkpoint ever appeared")
		}
		time.Sleep(time.Millisecond)
	}
	m.Crash()
	if j, _ := m.Get(v.ID); JobStatus(j.View().Status) == JobDone {
		t.Skip("job finished before the crash landed; no resume to test")
	}

	m2 := newChaosManager(t, dataDir, nil, ManagerConfig{Workers: 1})
	if rec := m2.Recovery(); rec.Resumed != 1 {
		t.Fatalf("recovery %+v, want exactly one resumed job", rec)
	}
	done := pollManagerJob(t, m2, v.ID, JobDone, 300*time.Second)
	if done.ResumedFromIter < 1 || done.OuterIters != 60 {
		t.Fatalf("job did not resume to iteration 60: %+v", done)
	}
	// The resumed attempt's density timeline starts after the checkpoint.
	if rep := m2.Reports()[v.ID]; rep == nil || len(rep.Sparsity) == 0 || rep.Sparsity[0].Outer != done.ResumedFromIter+1 {
		t.Fatalf("resumed run did not start at iteration %d: %+v", done.ResumedFromIter+1, rep)
	}
	got, ok := m2.reg.Get(done.ModelID)
	if !ok {
		t.Fatalf("resumed job's model %s not registered", done.ModelID)
	}
	for mode, f := range got.K.Factors {
		want := refModel.K.Factors[mode]
		for i := range f.Data {
			if math.Float64bits(f.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("mode %d entry %d: resumed %v, uninterrupted %v", mode, i, f.Data[i], want.Data[i])
			}
		}
	}
}

// TestChaosServerCrashRecoveryOverHTTP drives the same crash through the
// HTTP surface, checking /metrics reports the recovery and the finished job.
func TestChaosServerCrashRecoveryOverHTTP(t *testing.T) {
	dataDir := t.TempDir()
	s, ts := newTestServer(t, dataDir)
	spec := slowJobSpec(t, 33)
	spec.CheckpointEvery = 1
	spec.MaxOuterIters = 1_000_000
	var v JobView
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/jobs", spec, &v); code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, raw)
	}
	ckptFile := filepath.Join(dataDir, "checkpoints", v.ID, "checkpoint.json")
	stop := time.Now().Add(120 * time.Second)
	for {
		if _, err := os.Stat(ckptFile); err == nil {
			break
		}
		if time.Now().After(stop) {
			t.Fatal("no checkpoint ever appeared")
		}
		time.Sleep(time.Millisecond)
	}
	s.Crash()
	ts.Close()

	s2, ts2 := newTestServer(t, dataDir)
	if rec := s2.Recovery(); rec.Resumed != 1 {
		t.Fatalf("recovery %+v", rec)
	}
	running := pollJob(t, ts2.URL, v.ID, JobRunning, 60*time.Second)
	if running.ResumedFromIter < 1 {
		t.Fatalf("recovered job not resumed from a checkpoint: %+v", running)
	}
	var metrics struct {
		Durability struct {
			Recovery RecoveryReport `json:"recovery"`
			Journal  struct {
				Appends int64 `json:"appends"`
			} `json:"journal"`
		} `json:"durability"`
	}
	if code, raw := doJSON(t, http.MethodGet, ts2.URL+"/metrics", nil, &metrics); code != http.StatusOK {
		t.Fatalf("metrics: %d %s", code, raw)
	}
	if metrics.Durability.Recovery.Resumed != 1 || metrics.Durability.Journal.Appends < 1 {
		t.Fatalf("durability metrics %+v", metrics.Durability)
	}
	doJSON(t, http.MethodPost, ts2.URL+"/jobs/"+v.ID+"/cancel", nil, nil)
	pollJob(t, ts2.URL, v.ID, JobCanceled, 60*time.Second)
}
