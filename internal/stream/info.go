package stream

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"aoadmm/internal/durable"
)

// Info is a read-only summary of a lineage directory, for inspection tools
// (cmd/tninfo) that must not take the daemon's locks or append handle.
type Info struct {
	Root           string  `json:"root"`
	Dims           []int   `json:"dims"`
	Decay          float64 `json:"decay"`
	AppliedSeq     int64   `json:"applied_seq"`
	BaseGen        int64   `json:"base_gen"`
	LatestSeq      int64   `json:"latest_seq"`
	PendingBatches int     `json:"pending_batches"`
	PendingNNZ     int64   `json:"pending_nnz"`
	JournalBytes   int64   `json:"journal_bytes"`
	// Gens lists the materialized generation seqs present on disk.
	Gens []int64 `json:"gens,omitempty"`
	// Drift is the recorded per-refit aligned factor-drift history,
	// newest last.
	Drift []DriftEntry `json:"drift,omitempty"`
}

// IsStreamDir reports whether dir holds a stream lineage (a stream.json
// state file).
func IsStreamDir(dir string) bool {
	fi, err := os.Stat(filepath.Join(dir, StateFileName))
	return err == nil && fi.Mode().IsRegular()
}

// ReadInfo summarizes a lineage directory without opening it for writes: the
// state file, a replay-only journal walk, and the materialized generations
// present.
func ReadInfo(dir string) (*Info, error) {
	st, err := readStateFile(dir)
	if err != nil {
		return nil, err
	}
	info := &Info{
		Root:       st.Root,
		Dims:       st.Dims,
		Decay:      st.Decay,
		AppliedSeq: st.AppliedSeq,
		BaseGen:    st.BaseGen,
		Drift:      st.Drift,
	}
	jpath := filepath.Join(dir, JournalFileName)
	if fi, err := os.Stat(jpath); err == nil {
		info.JournalBytes = fi.Size()
	}
	p := &pendingCounts{appliedSeq: st.AppliedSeq, maxSeq: st.AppliedSeq}
	if _, err := durable.Replay(jpath, decodeBatch, p.add); err != nil {
		return nil, err
	}
	info.LatestSeq = p.maxSeq
	info.PendingBatches = p.pendingBatches
	info.PendingNNZ = p.pendingNNZ
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || !strings.HasPrefix(name, "gen-") || !strings.HasSuffix(name, ".shards") {
			continue
		}
		var seq int64
		if _, err := fmt.Sscanf(name, "gen-%d.shards", &seq); err == nil {
			info.Gens = append(info.Gens, seq)
		}
	}
	sort.Slice(info.Gens, func(a, b int) bool { return info.Gens[a] < info.Gens[b] })
	return info, nil
}
