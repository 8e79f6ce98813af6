package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"aoadmm/internal/faults"
	"aoadmm/internal/ooc"
	"aoadmm/internal/tensor"
)

var errInjected = errors.New("injected fault")

func openTestStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, warns, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range warns {
		t.Logf("open warning: %v", w)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// batch3 builds a mode-major order-3 batch from coordinate triples.
func batch3(coords [][3]int32, vals []float64) ([][]int32, []float64) {
	inds := make([][]int32, 3)
	for _, c := range coords {
		inds[0] = append(inds[0], c[0])
		inds[1] = append(inds[1], c[1])
		inds[2] = append(inds[2], c[2])
	}
	return inds, vals
}

func TestEnsureAppendSnapshot(t *testing.T) {
	s := openTestStore(t, Config{})
	if _, err := s.Ensure("m1", []int{4, 3, 2}, 0, json.RawMessage(`{"rank":2}`)); err != nil {
		t.Fatal(err)
	}
	// Idempotent, and a matching explicit decay is fine.
	if _, err := s.Ensure("m1", []int{4, 3, 2}, 1, nil); err != nil {
		t.Fatal(err)
	}
	// A conflicting decay on an existing lineage must be rejected.
	if _, err := s.Ensure("m1", []int{4, 3, 2}, 0.5, nil); err == nil {
		t.Fatal("conflicting decay accepted")
	}

	inds, vals := batch3([][3]int32{{0, 0, 0}, {1, 2, 1}}, []float64{1, 2})
	res, err := s.Append("m1", inds, vals)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 1 || res.PendingBatches != 1 || res.PendingNNZ != 2 {
		t.Fatalf("unexpected append result %+v", res)
	}
	res, err = s.Append("m1", inds, vals)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 2 || res.PendingBatches != 2 || res.PendingNNZ != 4 {
		t.Fatalf("unexpected second append result %+v", res)
	}

	snap, err := s.Snapshot("m1")
	if err != nil {
		t.Fatal(err)
	}
	if snap.LatestSeq != 2 || snap.AppliedSeq != 0 || snap.PendingNNZ != 4 {
		t.Fatalf("unexpected snapshot %+v", snap)
	}
	var src struct {
		Rank int `json:"rank"`
	}
	if err := json.Unmarshal(snap.SourceSpec, &src); err != nil || src.Rank != 2 {
		t.Fatalf("source spec not preserved: %q (%v)", snap.SourceSpec, err)
	}

	st := s.Stats()
	if st.Lineages != 1 || st.Appends != 2 || st.AppendNNZ != 4 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

func TestAppendValidation(t *testing.T) {
	s := openTestStore(t, Config{MaxBatchNNZ: 3})
	if _, err := s.Ensure("m1", []int{4, 3, 2}, 0, nil); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		inds [][]int32
		vals []float64
	}{
		{"no lineage order", [][]int32{{0}, {0}}, []float64{1}},
		{"empty", [][]int32{{}, {}, {}}, nil},
		{"length mismatch", [][]int32{{0, 1}, {0}, {0, 0}}, []float64{1, 2}},
		{"out of range", [][]int32{{4}, {0}, {0}}, []float64{1}},
		{"negative index", [][]int32{{-1}, {0}, {0}}, []float64{1}},
		{"nan value", [][]int32{{0}, {0}, {0}}, []float64{math.NaN()}},
		{"over batch cap", [][]int32{{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}}, []float64{1, 1, 1, 1}},
	}
	for _, tc := range cases {
		if _, err := s.Append("m1", tc.inds, tc.vals); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := s.Append("nope", [][]int32{{0}, {0}, {0}}, []float64{1}); err != ErrNoLineage {
		t.Fatalf("append to unknown lineage: %v", err)
	}
	// Rejected batches must not advance the journal.
	snap, err := s.Snapshot("m1")
	if err != nil {
		t.Fatal(err)
	}
	if snap.LatestSeq != 0 || snap.PendingBatches != 0 {
		t.Fatalf("rejected batches leaked into the journal: %+v", snap)
	}
}

func TestReopenRestoresPending(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, Config{Dir: dir})
	if _, err := s.Ensure("m1", []int{4, 3, 2}, 0.5, nil); err != nil {
		t.Fatal(err)
	}
	inds, vals := batch3([][3]int32{{1, 1, 1}}, []float64{3})
	for i := 0; i < 3; i++ {
		if _, err := s.Append("m1", inds, vals); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2 := openTestStore(t, Config{Dir: dir})
	snap, err := s2.Snapshot("m1")
	if err != nil {
		t.Fatal(err)
	}
	if snap.LatestSeq != 3 || snap.PendingBatches != 3 || snap.PendingNNZ != 3 {
		t.Fatalf("reopen lost state: %+v", snap)
	}
	if snap.Decay != 0.5 {
		t.Fatalf("decay not persisted: %v", snap.Decay)
	}
	// Appends continue the seq numbering.
	res, err := s2.Append("m1", inds, vals)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 4 {
		t.Fatalf("seq restarted at %d", res.Seq)
	}
}

func TestTornJournalTailDropped(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, Config{Dir: dir})
	if _, err := s.Ensure("m1", []int{4, 3, 2}, 0, nil); err != nil {
		t.Fatal(err)
	}
	inds, vals := batch3([][3]int32{{0, 0, 0}}, []float64{1})
	for i := 0; i < 2; i++ {
		if _, err := s.Append("m1", inds, vals); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Tear the last record mid-line, as a crash mid-write would.
	jpath := filepath.Join(dir, "m1", JournalFileName)
	raw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jpath, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, Config{Dir: dir})
	snap, err := s2.Snapshot("m1")
	if err != nil {
		t.Fatal(err)
	}
	if snap.LatestSeq != 1 || snap.PendingBatches != 1 {
		t.Fatalf("torn tail not dropped: %+v", snap)
	}
	// The torn record is compacted away; the next append must land cleanly
	// and re-reads must see both.
	if _, err := s2.Append("m1", inds, vals); err != nil {
		t.Fatal(err)
	}
	snap, _ = s2.Snapshot("m1")
	if snap.LatestSeq != 2 || snap.PendingBatches != 2 {
		t.Fatalf("append after torn-tail recovery: %+v", snap)
	}
}

// A corrupt interior journal line is skipped with a warning; the durable
// batches after it stay pending and are materialized. A corrupt final line
// is still a torn tail, dropped without a warning.
func TestJournalInteriorCorruptionKeepsLaterBatches(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, Config{Dir: dir})
	if _, err := s.Ensure("m1", []int{4, 3, 2}, 0, nil); err != nil {
		t.Fatal(err)
	}
	for i, c := range [][3]int32{{1, 0, 0}, {2, 0, 0}, {3, 0, 0}} {
		inds, vals := batch3([][3]int32{c}, []float64{float64(i + 1)})
		if _, err := s.Append("m1", inds, vals); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Overwrite batch 2's line in place with garbage of the same length.
	jpath := filepath.Join(dir, "m1", JournalFileName)
	raw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	lines[1] = append(bytes.Repeat([]byte("#"), len(lines[1])-1), '\n')
	if err := os.WriteFile(jpath, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, warns, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.Close() })
	if len(warns) != 1 {
		t.Fatalf("interior corruption warnings: %v", warns)
	}
	snap, err := s2.Snapshot("m1")
	if err != nil {
		t.Fatal(err)
	}
	if snap.LatestSeq != 3 || snap.PendingBatches != 2 || snap.PendingNNZ != 2 {
		t.Fatalf("batches after the corrupt line lost: %+v", snap)
	}
	mat, err := s2.Materialize("m1", COOSource{T: tensor.NewCOO([]int{4, 3, 2}, 0)})
	if err != nil {
		t.Fatal(err)
	}
	got := cooOf(t, mat.Tensor)
	if mat.Batches != 2 || len(got) != 2 || got[[3]int32{1, 0, 0}] == 0 || got[[3]int32{3, 0, 0}] == 0 {
		t.Fatalf("materialized %d batches: %v", mat.Batches, got)
	}
	s2.Close()

	// Open compacted the corrupt line away; a corrupt final line is a torn
	// tail and reopens without a warning.
	f, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("not a batch\n")
	f.Close()
	s3, warns, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s3.Close() })
	if len(warns) != 0 {
		t.Fatalf("torn tail reported as corruption: %v", warns)
	}
	if snap, _ := s3.Snapshot("m1"); snap.LatestSeq != 3 || snap.PendingBatches != 2 {
		t.Fatalf("after torn tail: %+v", snap)
	}
}

// cooOf reads a sharded tensor fully and indexes it by coordinate.
func cooOf(t *testing.T, st *ooc.ShardedTensor) map[[3]int32]float64 {
	t.Helper()
	x, err := st.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[[3]int32]float64, x.NNZ())
	for p := 0; p < x.NNZ(); p++ {
		out[[3]int32{x.Inds[0][p], x.Inds[1][p], x.Inds[2][p]}] += x.Vals[p]
	}
	return out
}

func TestMaterializeDecayWeighting(t *testing.T) {
	s := openTestStore(t, Config{Decay: 0.5})
	if _, err := s.Ensure("m1", []int{4, 3, 2}, 0, nil); err != nil {
		t.Fatal(err)
	}
	base := tensor.NewCOO([]int{4, 3, 2}, 0)
	base.Inds[0] = append(base.Inds[0], 0)
	base.Inds[1] = append(base.Inds[1], 0)
	base.Inds[2] = append(base.Inds[2], 0)
	base.Vals = append(base.Vals, 8)

	// Batch 1 hits the base coordinate (coalesces additively); batch 2 is a
	// fresh coordinate.
	i1, v1 := batch3([][3]int32{{0, 0, 0}}, []float64{2})
	i2, v2 := batch3([][3]int32{{3, 2, 1}}, []float64{4})
	if _, err := s.Append("m1", i1, v1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("m1", i2, v2); err != nil {
		t.Fatal(err)
	}

	mat, err := s.Materialize("m1", COOSource{T: base})
	if err != nil {
		t.Fatal(err)
	}
	if mat.AsOfSeq != 2 || mat.Batches != 2 || mat.DeltaNNZ != 2 {
		t.Fatalf("unexpected materialize result %+v", mat)
	}
	// As-of seq 2 with lambda 0.5: base scaled by 0.5^2, batch 1 by 0.5^1,
	// batch 2 by 0.5^0.
	if mat.BaseScale != 0.25 {
		t.Fatalf("base scale %v, want 0.25", mat.BaseScale)
	}
	got := cooOf(t, mat.Tensor)
	want := map[[3]int32]float64{
		{0, 0, 0}: 8*0.25 + 2*0.5,
		{3, 2, 1}: 4,
	}
	if len(got) != len(want) {
		t.Fatalf("materialized %d coords, want %d: %v", len(got), len(want), got)
	}
	for c, w := range want {
		if math.Abs(got[c]-w) > 1e-12 {
			t.Errorf("coord %v = %v, want %v", c, got[c], w)
		}
	}
	if mat.Tensor.NNZ() != 2 {
		t.Fatalf("coalesced nnz %d, want 2", mat.Tensor.NNZ())
	}

	// Idempotent: a second materialize at the same seq reopens the same
	// generation instead of rebuilding.
	mat2, err := s.Materialize("m1", COOSource{T: base})
	if err != nil {
		t.Fatal(err)
	}
	if mat2.Dir != mat.Dir || mat2.Batches != 2 {
		t.Fatalf("re-materialize diverged: %+v vs %+v", mat2, mat)
	}
}

func TestCommitAdvancesAndIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, Config{Dir: dir})
	if _, err := s.Ensure("m1", []int{4, 3, 2}, 0, nil); err != nil {
		t.Fatal(err)
	}
	base := tensor.NewCOO([]int{4, 3, 2}, 0)
	base.Inds[0] = append(base.Inds[0], 1)
	base.Inds[1] = append(base.Inds[1], 1)
	base.Inds[2] = append(base.Inds[2], 1)
	base.Vals = append(base.Vals, 1)

	inds, vals := batch3([][3]int32{{0, 0, 0}}, []float64{1})
	if _, err := s.Append("m1", inds, vals); err != nil {
		t.Fatal(err)
	}
	mat, err := s.Materialize("m1", COOSource{T: base})
	if err != nil {
		t.Fatal(err)
	}

	applied, err := s.Commit("m1", mat.AsOfSeq)
	if err != nil || !applied {
		t.Fatalf("commit: applied=%v err=%v", applied, err)
	}
	snap, _ := s.Snapshot("m1")
	if snap.AppliedSeq != 1 || snap.PendingBatches != 0 || snap.BaseGenDir == "" {
		t.Fatalf("post-commit snapshot %+v", snap)
	}
	// Committing the same seq again (crash-recovery re-commit) is a no-op.
	applied, err = s.Commit("m1", mat.AsOfSeq)
	if err != nil || applied {
		t.Fatalf("re-commit: applied=%v err=%v", applied, err)
	}

	// No pending batches left: materialize refuses.
	if _, err := s.Materialize("m1", COOSource{T: base}); err != ErrNoPending {
		t.Fatalf("materialize with nothing pending: %v", err)
	}

	// The next generation bases on the committed one, and decay compounds
	// from the new applied seq.
	if _, err := s.Append("m1", inds, vals); err != nil {
		t.Fatal(err)
	}
	st2, err := ooc.Open(snap.BaseGenDir)
	if err != nil {
		t.Fatal(err)
	}
	mat2, err := s.Materialize("m1", ShardSource{T: st2})
	if err != nil {
		t.Fatal(err)
	}
	if mat2.AsOfSeq != 2 || mat2.Batches != 1 {
		t.Fatalf("second generation %+v", mat2)
	}
	got := cooOf(t, mat2.Tensor)
	// Base gen held {0,0,0}:1 and {1,1,1}:1; second batch adds 1 at {0,0,0}.
	if math.Abs(got[[3]int32{0, 0, 0}]-2) > 1e-12 || math.Abs(got[[3]int32{1, 1, 1}]-1) > 1e-12 {
		t.Fatalf("second generation values %v", got)
	}

	// Commit gen 2 and confirm gen 1's directory was garbage-collected.
	if _, err := s.Commit("m1", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(mat.Dir); !os.IsNotExist(err) {
		t.Fatalf("superseded generation %s not GC'd: %v", mat.Dir, err)
	}
}

func TestNNZTriggerFires(t *testing.T) {
	var fired atomic.Int64
	var reason atomic.Value
	s := openTestStore(t, Config{
		RefitNNZ: 3,
		OnTrigger: func(root, r string) {
			fired.Add(1)
			reason.Store(r)
		},
	})
	if _, err := s.Ensure("m1", []int{4, 3, 2}, 0, nil); err != nil {
		t.Fatal(err)
	}
	inds, vals := batch3([][3]int32{{0, 0, 0}, {1, 1, 1}}, []float64{1, 1})
	if _, err := s.Append("m1", inds, vals); err != nil {
		t.Fatal(err)
	}
	if fired.Load() != 0 {
		t.Fatal("trigger fired below threshold")
	}
	res, err := s.Append("m1", inds, vals)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Triggered || fired.Load() != 1 {
		t.Fatalf("nnz trigger: triggered=%v fired=%d", res.Triggered, fired.Load())
	}
	if got := reason.Load(); got != TriggerNNZ {
		t.Fatalf("trigger reason %v", got)
	}
}

func TestStalenessTriggerFires(t *testing.T) {
	ch := make(chan string, 8)
	s := openTestStore(t, Config{
		RefitStaleness: 30 * time.Millisecond,
		OnTrigger:      func(root, r string) { ch <- r },
	})
	if _, err := s.Ensure("m1", []int{4, 3, 2}, 0, nil); err != nil {
		t.Fatal(err)
	}
	inds, vals := batch3([][3]int32{{0, 0, 0}}, []float64{1})
	if _, err := s.Append("m1", inds, vals); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-ch:
		if r != TriggerStaleness {
			t.Fatalf("trigger reason %q", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("staleness trigger never fired")
	}
}

func TestAppendFaultRejectsWithoutJournaling(t *testing.T) {
	inj := faults.New()
	s := openTestStore(t, Config{Faults: inj})
	if _, err := s.Ensure("m1", []int{4, 3, 2}, 0, nil); err != nil {
		t.Fatal(err)
	}
	inds, vals := batch3([][3]int32{{0, 0, 0}}, []float64{1})
	inj.Arm(faults.StreamAppend, 0, 1, errInjected)
	if _, err := s.Append("m1", inds, vals); err == nil {
		t.Fatal("armed append fault did not reject")
	}
	snap, _ := s.Snapshot("m1")
	if snap.LatestSeq != 0 || snap.PendingBatches != 0 {
		t.Fatalf("failed append leaked into journal: %+v", snap)
	}
	// The next append (fault disarmed) proceeds normally.
	if _, err := s.Append("m1", inds, vals); err != nil {
		t.Fatal(err)
	}
}

func TestMaterializeCrashLeavesReplayableState(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New()
	s := openTestStore(t, Config{Dir: dir, Faults: inj})
	if _, err := s.Ensure("m1", []int{4, 3, 2}, 0, nil); err != nil {
		t.Fatal(err)
	}
	base := tensor.NewCOO([]int{4, 3, 2}, 0)
	base.Inds[0] = append(base.Inds[0], 0)
	base.Inds[1] = append(base.Inds[1], 0)
	base.Inds[2] = append(base.Inds[2], 0)
	base.Vals = append(base.Vals, 1)
	inds, vals := batch3([][3]int32{{1, 1, 1}}, []float64{1})
	if _, err := s.Append("m1", inds, vals); err != nil {
		t.Fatal(err)
	}

	inj.Arm(faults.StreamMaterialize, 0, 1, errInjected)
	if _, err := s.Materialize("m1", COOSource{T: base}); err == nil {
		t.Fatal("armed materialize fault did not fail")
	}
	// Nothing applied, journal intact: a retry succeeds from scratch.
	snap, _ := s.Snapshot("m1")
	if snap.PendingBatches != 1 || snap.AppliedSeq != 0 {
		t.Fatalf("failed materialize mutated state: %+v", snap)
	}
	mat, err := s.Materialize("m1", COOSource{T: base})
	if err != nil {
		t.Fatal(err)
	}
	if mat.Batches != 1 || mat.Tensor.NNZ() != 2 {
		t.Fatalf("retry after fault: %+v", mat)
	}
}

func TestCommitFaultLeavesOldState(t *testing.T) {
	inj := faults.New()
	s := openTestStore(t, Config{Faults: inj})
	if _, err := s.Ensure("m1", []int{4, 3, 2}, 0, nil); err != nil {
		t.Fatal(err)
	}
	base := tensor.NewCOO([]int{4, 3, 2}, 0)
	base.Inds[0] = append(base.Inds[0], 0)
	base.Inds[1] = append(base.Inds[1], 0)
	base.Inds[2] = append(base.Inds[2], 0)
	base.Vals = append(base.Vals, 1)
	inds, vals := batch3([][3]int32{{1, 1, 1}}, []float64{1})
	if _, err := s.Append("m1", inds, vals); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Materialize("m1", COOSource{T: base}); err != nil {
		t.Fatal(err)
	}
	inj.Arm(faults.StreamStateSave, 0, 1, errInjected)
	if _, err := s.Commit("m1", 1); err == nil {
		t.Fatal("armed state-save fault did not fail")
	}
	snap, _ := s.Snapshot("m1")
	if snap.AppliedSeq != 0 || snap.PendingBatches != 1 {
		t.Fatalf("failed commit mutated state: %+v", snap)
	}
	if applied, err := s.Commit("m1", 1); err != nil || !applied {
		t.Fatalf("retry commit: applied=%v err=%v", applied, err)
	}
}

func TestReadInfo(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, Config{Dir: dir, Decay: 0.9})
	if _, err := s.Ensure("m1", []int{4, 3, 2}, 0, nil); err != nil {
		t.Fatal(err)
	}
	inds, vals := batch3([][3]int32{{0, 0, 0}, {1, 1, 1}}, []float64{1, 2})
	if _, err := s.Append("m1", inds, vals); err != nil {
		t.Fatal(err)
	}
	ldir := filepath.Join(dir, "m1")
	if !IsStreamDir(ldir) {
		t.Fatal("IsStreamDir false on a lineage dir")
	}
	if IsStreamDir(dir) {
		t.Fatal("IsStreamDir true on the store root")
	}
	info, err := ReadInfo(ldir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Root != "m1" || info.Decay != 0.9 || info.LatestSeq != 1 ||
		info.PendingBatches != 1 || info.PendingNNZ != 2 || info.JournalBytes == 0 {
		t.Fatalf("unexpected info %+v", info)
	}
}
