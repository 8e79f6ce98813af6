package stream

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"

	"aoadmm/internal/durable"
)

// batchLine is one journaled append: a full batch per JSONL line, so replay
// and materialization decode one bounded batch at a time and never hold more
// than MaxBatchNNZ records in memory.
type batchLine struct {
	V        int       `json:"v"`
	Seq      int64     `json:"seq"`
	UnixNano int64     `json:"unix_nano"`
	Inds     [][]int32 `json:"inds"` // mode-major, order x nnz
	Vals     []float64 `json:"vals"`
}

func (b *batchLine) check() error {
	if b.V != 1 {
		return fmt.Errorf("unsupported batch version %d", b.V)
	}
	if b.Seq <= 0 {
		return fmt.Errorf("batch seq %d", b.Seq)
	}
	n := len(b.Vals)
	if n == 0 {
		return fmt.Errorf("batch %d is empty", b.Seq)
	}
	for m, col := range b.Inds {
		if len(col) != n {
			return fmt.Errorf("batch %d mode %d has %d indices for %d values", b.Seq, m, len(col), n)
		}
	}
	return nil
}

func decodeBatch(raw []byte) (batchLine, error) {
	var line batchLine
	if err := json.Unmarshal(raw, &line); err != nil {
		return line, err
	}
	return line, line.check()
}

// pendingCounts tallies a journal replay against the lineage's applied seq.
type pendingCounts struct {
	appliedSeq        int64
	maxSeq            int64
	pendingBatches    int
	pendingNNZ        int64
	oldestPendingNano int64
	stale             int // batches with seq <= appliedSeq (compaction due)
}

func (p *pendingCounts) add(line batchLine) error {
	if line.Seq > p.maxSeq {
		p.maxSeq = line.Seq
	}
	if line.Seq <= p.appliedSeq {
		p.stale++
		return nil
	}
	p.pendingBatches++
	p.pendingNNZ += int64(len(line.Vals))
	if p.oldestPendingNano == 0 || line.UnixNano < p.oldestPendingNano {
		p.oldestPendingNano = line.UnixNano
	}
	return nil
}

// visitPending streams the journal's batches with seq in (afterSeq, upToSeq]
// through fn, one decoded batch at a time.
func visitPending(path string, afterSeq, upToSeq int64, fn func(batchLine) error) error {
	_, err := durable.Replay(path, decodeBatch, func(line batchLine) error {
		if line.Seq <= afterSeq || line.Seq > upToSeq {
			return nil
		}
		return fn(line)
	})
	return err
}

// openJournal replays the lineage's delta journal, restores the in-memory
// counters, and opens the journal for append. A journal holding applied
// batches or corrupt lines is compacted down to its pending batches, each
// line copied byte for byte. Called with no locks held (lineage not yet
// published) and by Commit under l.mu. It returns the replay's warnings.
func (l *Lineage) openJournal() ([]error, error) {
	path := filepath.Join(l.dir, JournalFileName)
	applied := l.st.AppliedSeq
	p := &pendingCounts{appliedSeq: applied, maxSeq: applied}
	log, warns, err := durable.OpenLog(path, decodeBatch, p.add)
	if err != nil {
		return warns, err
	}
	if p.stale > 0 || len(warns) > 0 {
		pendingRaw := func(raw []byte) ([]byte, error) {
			line, err := decodeBatch(raw)
			if err != nil || line.Seq <= applied {
				return nil, err
			}
			return raw, nil
		}
		err := log.Rewrite(func(w io.Writer) error {
			_, err := durable.Replay(path, pendingRaw, func(raw []byte) error {
				if raw == nil {
					return nil
				}
				if _, err := w.Write(raw); err != nil {
					return err
				}
				_, err := w.Write([]byte{'\n'})
				return err
			})
			return err
		})
		if err != nil {
			return warns, err
		}
	}
	l.log = log
	l.nextSeq = p.maxSeq + 1
	l.pendingBatches = p.pendingBatches
	l.pendingNNZ = p.pendingNNZ
	l.oldestPendingNano = p.oldestPendingNano
	return warns, nil
}
