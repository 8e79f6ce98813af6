package kruskal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"aoadmm/internal/dense"
	"aoadmm/internal/durable"
)

// CheckpointMeta is the resume bookkeeping written beside checkpointed
// factors as checkpoint.json. It is what lets a restarted service continue a
// run where it left off instead of merely warm-starting: Iteration anchors
// the outer-iteration counter, RelErr seeds the convergence comparison, and
// JobID/Attempt tie the checkpoint back to the job that wrote it.
type CheckpointMeta struct {
	// Iteration is the outer iteration the checkpoint was taken after.
	Iteration int `json:"iteration"`
	// RelErr is the relative error at that iteration.
	RelErr float64 `json:"rel_err"`
	// JobID and Attempt identify the writer (empty outside the daemon).
	JobID   string `json:"job_id,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	// SavedUnixNano is the save time.
	SavedUnixNano int64 `json:"saved_unix_nano,omitempty"`
}

// Checkpoint is the full resumable state of an interrupted AO-ADMM run: the
// factors, optionally the per-mode scaled ADMM dual variables (restoring
// them makes a single-threaded resumed run reproduce the uninterrupted
// trajectory bit for bit instead of re-converging duals from zero), and
// optionally the meta record. Duals and Meta may be nil — a plain factor
// directory written by Save loads as a Checkpoint with both unset.
type Checkpoint struct {
	Factors *Tensor
	Duals   []*dense.Matrix
	Meta    *CheckpointMeta
}

// Write lays the checkpoint out under dir (created if needed) without any
// atomicity protocol: the kruskal.Save factor layout at the top level,
// dual<N>.txt beside the mode files, and checkpoint.json for the meta. It is
// for callers that stage the directory themselves (the model registry writes
// factors and duals inside its own durable.ReplaceDir); use
// SaveCheckpointAtomic everywhere a reader may race the write.
func (c Checkpoint) Write(dir string) error {
	if c.Factors == nil {
		return fmt.Errorf("kruskal: checkpoint without factors")
	}
	if err := c.Factors.Save(dir); err != nil {
		return err
	}
	if err := writeMatrices(dir, "dual", c.Duals); err != nil {
		return err
	}
	if c.Meta == nil {
		return nil
	}
	raw, err := json.MarshalIndent(c.Meta, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "checkpoint.json"), append(raw, '\n'), 0o644)
}

// SaveCheckpointAtomic writes the checkpoint under dir through
// durable.ReplaceDir: the files are staged in a sibling directory, fsync'd,
// and swapped in by rename, so a reader (or a daemon restarted after a crash
// or power cut mid-save) only ever observes the previous complete checkpoint
// or the new one, never a torn mix.
func SaveCheckpointAtomic(dir string, c Checkpoint) error {
	return durable.ReplaceDir(dir, c.Write)
}

// LoadCheckpoint reads a checkpoint directory, first recovering the previous
// checkpoint if a crash interrupted SaveCheckpointAtomic between its renames
// (durable.Recover). Missing duals or meta load as nil (back-compat with
// plain Save factor dirs); present duals must match the factor shapes or the
// whole checkpoint is rejected as torn.
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	if err := durable.Recover(dir); err != nil {
		return nil, err
	}
	k, err := Load(dir)
	if err != nil {
		return nil, err
	}
	c := &Checkpoint{Factors: k}
	if c.Duals, err = readMatrices(dir, "dual"); err != nil {
		return nil, err
	}
	if c.Duals != nil {
		if len(c.Duals) != k.Order() {
			return nil, fmt.Errorf("kruskal: checkpoint has %d duals for order %d", len(c.Duals), k.Order())
		}
		for m, d := range c.Duals {
			f := k.Factors[m]
			if d.Rows != f.Rows || d.Cols != f.Cols {
				return nil, fmt.Errorf("kruskal: dual %d is %dx%d, factor is %dx%d",
					m, d.Rows, d.Cols, f.Rows, f.Cols)
			}
		}
	}
	if raw, err := os.ReadFile(filepath.Join(dir, "checkpoint.json")); err == nil {
		var meta CheckpointMeta
		if err := json.Unmarshal(raw, &meta); err != nil {
			return nil, fmt.Errorf("kruskal: checkpoint.json: %w", err)
		}
		if meta.Iteration < 0 {
			return nil, fmt.Errorf("kruskal: checkpoint.json iteration %d", meta.Iteration)
		}
		c.Meta = &meta
	}
	return c, nil
}

// LoadCheckpointMeta reads only the meta record of a checkpoint directory —
// the cheap existence/progress check services poll while a run is live.
func LoadCheckpointMeta(dir string) (*CheckpointMeta, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "checkpoint.json"))
	if err != nil {
		return nil, err
	}
	var meta CheckpointMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, fmt.Errorf("kruskal: checkpoint.json: %w", err)
	}
	return &meta, nil
}
