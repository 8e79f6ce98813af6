package stream

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"aoadmm/internal/durable"
	"aoadmm/internal/faults"
	"aoadmm/internal/ooc"
	"aoadmm/internal/tensor"
)

// Source streams a base tensor's non-zeros into the materializer. The emit
// callback may retain neither slice.
type Source interface {
	Stream(emit func(coord []int32, val float64) error) error
}

// ShardSource streams an on-disk sharded tensor, one shard in memory at a
// time.
type ShardSource struct{ T *ooc.ShardedTensor }

// Stream implements Source.
func (s ShardSource) Stream(emit func([]int32, float64) error) error {
	order := s.T.Order()
	coord := make([]int32, order)
	for i := 0; i < s.T.NumShards(); i++ {
		sh, err := s.T.LoadShard(i)
		if err != nil {
			return err
		}
		for p := 0; p < sh.NNZ(); p++ {
			for m := 0; m < order; m++ {
				coord[m] = sh.Inds[m][p]
			}
			if err := emit(coord, sh.Vals[p]); err != nil {
				return err
			}
		}
	}
	return nil
}

// COOSource streams an in-memory tensor.
type COOSource struct{ T *tensor.COO }

// Stream implements Source.
func (s COOSource) Stream(emit func([]int32, float64) error) error {
	order := s.T.Order()
	coord := make([]int32, order)
	for p := 0; p < s.T.NNZ(); p++ {
		for m := 0; m < order; m++ {
			coord[m] = s.T.Inds[m][p]
		}
		if err := emit(coord, s.T.Vals[p]); err != nil {
			return err
		}
	}
	return nil
}

// MaterializeResult describes one materialized refit input generation.
type MaterializeResult struct {
	// Dir is the generation's shard directory (gen-<seq>.shards).
	Dir string
	// AsOfSeq is the newest batch seq folded in; a successful refit commits
	// this value.
	AsOfSeq int64
	// Batches and DeltaNNZ count the delta batches folded in (pre-coalesce
	// record count).
	Batches  int
	DeltaNNZ int64
	// BaseScale is the decay applied to the base tensor (decay^(AsOfSeq -
	// base's as-of seq)).
	BaseScale float64
	// Tensor is the opened generation.
	Tensor *ooc.ShardedTensor
}

// Materialize folds the lineage's pending delta batches over the base tensor
// into a new shard generation via the external-merge-sort converter:
// duplicate coordinates coalesce additively, the base fades by
// decay^(S-baseSeq), and a batch appended at seq s carries decay^(S-s),
// where S is the newest appended seq. The base Source must be the lineage's
// current base (Snapshot().BaseGenDir when set, the original training source
// otherwise). Materialization is idempotent: a generation that already
// exists on disk (a crashed refit's output) is reopened, not rebuilt. The
// generation is built in a durable.ReplaceDir staging directory, so a crash
// mid-build never leaves a partial gen-<seq>.shards.
func (s *Store) Materialize(root string, base Source) (*MaterializeResult, error) {
	l, ok := s.Get(root)
	if !ok {
		return nil, ErrNoLineage
	}
	l.opMu.Lock()
	defer l.opMu.Unlock()

	snap := l.Snapshot()
	upTo := snap.LatestSeq
	if upTo <= snap.AppliedSeq {
		return nil, ErrNoPending
	}
	baseScale := math.Pow(snap.Decay, float64(upTo-snap.AppliedSeq))
	res := &MaterializeResult{
		Dir:       l.GenDir(upTo),
		AsOfSeq:   upTo,
		BaseScale: baseScale,
	}
	journalPath := filepath.Join(l.dir, JournalFileName)
	count := func(line batchLine) error {
		res.Batches++
		res.DeltaNNZ += int64(len(line.Vals))
		return nil
	}

	if ooc.IsShardDir(res.Dir) {
		if t, err := ooc.Open(res.Dir); err == nil {
			if err := visitPending(journalPath, snap.AppliedSeq, upTo, count); err != nil {
				return nil, err
			}
			res.Tensor = t
			return res, nil
		}
		// Unopenable generation dir (torn by a crash mid-rename is not
		// possible, but a partial copy is): ReplaceDir rebuilds it.
	}

	err := durable.ReplaceDir(res.Dir, func(build string) error {
		cv, err := ooc.NewConverter(snap.Dims, build, ooc.ConvertOptions{
			MemBudgetBytes: s.cfg.MemBudgetBytes,
			TmpDir:         res.Dir + ".tmp",
			Coalesce:       true,
		})
		if err != nil {
			return err
		}
		fail := func(err error) error {
			cv.Abort()
			return err
		}
		if err := base.Stream(func(coord []int32, val float64) error {
			return cv.Add(coord, val*baseScale)
		}); err != nil {
			return fail(fmt.Errorf("stream: base tensor: %w", err))
		}
		err = visitPending(journalPath, snap.AppliedSeq, upTo, func(line batchLine) error {
			if len(line.Inds) != len(snap.Dims) {
				return fmt.Errorf("stream: batch %d has order %d, lineage has %d", line.Seq, len(line.Inds), len(snap.Dims))
			}
			scale := math.Pow(snap.Decay, float64(upTo-line.Seq))
			coord := make([]int32, len(snap.Dims))
			for p := range line.Vals {
				for m := range coord {
					coord[m] = line.Inds[m][p]
				}
				if err := cv.Add(coord, line.Vals[p]*scale); err != nil {
					return err
				}
			}
			return count(line)
		})
		if err != nil {
			return fail(err)
		}
		if res.Batches == 0 {
			// The journal lost the pending batches the counters promised —
			// refuse to quietly refit on the stale base alone.
			return fail(fmt.Errorf("stream: journal has no batches in (%d, %d]", snap.AppliedSeq, upTo))
		}
		if _, err := cv.Finish(); err != nil {
			return fail(err)
		}
		return s.cfg.Faults.Fire(faults.StreamMaterialize)
	})
	if err != nil {
		return nil, err
	}
	t, err := ooc.Open(res.Dir)
	if err != nil {
		return nil, err
	}
	res.Tensor = t
	return res, nil
}

// Commit durably records that a refit trained as of asOf has been
// registered: the applied seq advances, the journal drops the folded
// batches, and superseded generations are garbage-collected. Idempotent —
// committing an already-applied seq is a no-op (false), which is what makes
// crash recovery's re-commit of an adopted refit model safe.
func (s *Store) Commit(root string, asOf int64) (bool, error) {
	l, ok := s.Get(root)
	if !ok {
		return false, ErrNoLineage
	}
	l.opMu.Lock()
	defer l.opMu.Unlock()

	l.mu.Lock()
	if asOf <= l.st.AppliedSeq {
		l.mu.Unlock()
		return false, nil
	}
	next := l.st
	next.AppliedSeq = asOf
	next.BaseGen = asOf
	if err := s.cfg.Faults.Fire(faults.StreamStateSave); err != nil {
		l.mu.Unlock()
		return false, err
	}
	if err := writeStateFile(l.dir, next); err != nil {
		l.mu.Unlock()
		return false, err
	}
	l.st = next
	// Swap the journal handle across compaction so concurrent appends never
	// write to the unlinked pre-compaction file.
	if l.log != nil {
		l.log.Close()
		l.log = nil
	}
	warns, err := l.openJournal()
	l.mu.Unlock()
	for _, w := range warns {
		s.cfg.Logger.Warn("stream: journal replay", "lineage", root, "err", w)
	}
	if err != nil {
		return true, err
	}
	s.gcGenerations(l, asOf)
	return true, nil
}

// gcGenerations removes every materialized generation except the one the
// lineage now bases on, plus what a crashed build left: spill (.tmp) and
// staging directories.
func (s *Store) gcGenerations(l *Lineage, keep int64) {
	if err := durable.Sweep(l.dir); err != nil {
		s.cfg.Logger.Warn("stream: staging sweep failed", "lineage", l.Root(), "err", err)
	}
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	keepName := filepath.Base(l.GenDir(keep))
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || !strings.HasPrefix(name, "gen-") {
			continue
		}
		if name == keepName {
			continue
		}
		if err := os.RemoveAll(filepath.Join(l.dir, name)); err != nil {
			s.cfg.Logger.Warn("stream: generation gc failed", "lineage", l.Root(), "dir", name, "err", err)
		}
	}
}
