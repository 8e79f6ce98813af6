// Package stream is the daemon's streaming-ingestion subsystem: it accepts
// batches of appended non-zeros for a live model into a per-lineage fsync'd
// delta journal, materializes the base tensor plus pending deltas through the
// out-of-core external-merge-sort converter (so no update path ever holds the
// tensor in RAM), and decides when a warm-started refit should run (nnz
// threshold, staleness timer, or explicit request). The serving layer owns
// model versions and job scheduling; this package owns the durable delta
// state and its sliding-window decay semantics — see docs/STREAMING.md.
package stream

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aoadmm/internal/durable"
	"aoadmm/internal/faults"
)

// Trigger reasons handed to Config.OnTrigger and recorded per refit.
const (
	TriggerNNZ       = "nnz"
	TriggerStaleness = "staleness"
	TriggerManual    = "manual"
	TriggerDrift     = "drift"
)

// Sentinel errors the serving layer maps onto HTTP statuses.
var (
	// ErrNoLineage is returned for a root model with no streaming state.
	ErrNoLineage = fmt.Errorf("stream: no lineage")
	// ErrNoPending is returned by Materialize when every appended batch has
	// already been folded into the applied generation.
	ErrNoPending = fmt.Errorf("stream: no pending delta batches")
)

// Config configures a Store.
type Config struct {
	// Dir is the root directory; each lineage lives in Dir/<rootModelID>/.
	Dir string
	// Decay is the default per-batch exponential decay lambda in (0, 1]
	// applied at materialization: a batch appended at seq s is weighted
	// decay^(S-s) when refitting as of seq S, and the base tensor fades the
	// same way. <= 0 or >= 1 means no decay (lambda = 1).
	Decay float64
	// RefitNNZ triggers OnTrigger("nnz") when a lineage's pending delta
	// non-zeros reach this count (0 = off).
	RefitNNZ int64
	// RefitStaleness triggers OnTrigger("staleness") when a lineage has had
	// pending batches for at least this long (0 = off).
	RefitStaleness time.Duration
	// MaxBatchNNZ bounds one append (default 1<<20): the journal holds one
	// batch per line and replay decodes a line at a time, so this is also
	// the subsystem's per-batch memory high-water mark.
	MaxBatchNNZ int
	// MemBudgetBytes is the materialization converter's memory budget
	// (0 = the ooc default).
	MemBudgetBytes int64
	// Faults is the optional fault-injection registry; nil = no-op.
	Faults *faults.Injector
	// Logger receives replay warnings and trigger decisions (nil = discard).
	Logger *slog.Logger
	// OnTrigger, when non-nil, is invoked (outside all Store locks) when a
	// lineage crosses a refit policy threshold. It fires repeatedly while
	// the condition holds; the callee dedupes against refits in flight.
	OnTrigger func(root, reason string)
}

func (c Config) fill() Config {
	if c.MaxBatchNNZ <= 0 {
		c.MaxBatchNNZ = 1 << 20
	}
	if c.Decay <= 0 || c.Decay >= 1 {
		c.Decay = 1
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// State is a lineage's durable record, persisted as stream.json in the
// lineage directory and swapped atomically on every commit.
type State struct {
	V    int    `json:"v"`
	Root string `json:"root"`
	Dims []int  `json:"dims"`
	// Decay is the lineage's lambda, fixed at creation.
	Decay float64 `json:"decay"`
	// AppliedSeq is the newest batch seq folded into a committed refit;
	// batches with larger seqs are pending.
	AppliedSeq int64 `json:"applied_seq"`
	// BaseGen names the materialized generation directory (gen-<seq>.shards)
	// the next refit starts from; 0 = the original training source.
	BaseGen int64 `json:"base_gen"`
	// SourceSpec is the verbatim job spec that trained the root model, kept
	// so restarts can re-derive the original tensor source without the job
	// table.
	SourceSpec      json.RawMessage `json:"source_spec,omitempty"`
	CreatedUnixNano int64           `json:"created_unix_nano"`
	// Drift is the newest-last history of per-mode aligned factor drift
	// between consecutive committed refit versions, capped at
	// maxDriftHistory entries.
	Drift []DriftEntry `json:"drift,omitempty"`
}

// DriftEntry records the aligned factor drift one committed refit introduced
// relative to the version it warm-started from (see eval.FactorDrift).
type DriftEntry struct {
	// Version is the refit model id whose factors were compared against its
	// parent's.
	Version string `json:"version"`
	// AsOfSeq is the batch seq the refit folded in.
	AsOfSeq int64 `json:"as_of_seq"`
	// PerMode is the drift per tensor mode, each in [0, 1].
	PerMode  []float64 `json:"per_mode"`
	UnixNano int64     `json:"unix_nano"`
}

// maxDriftHistory bounds the drift records kept in stream.json so the state
// file stays O(1) over a long-lived lineage.
const maxDriftHistory = 32

const stateVersion = 1

// Lineage directory layout.
const (
	StateFileName   = "stream.json"
	JournalFileName = "delta.jsonl"
)

// Lineage is one model family's live streaming state: the durable State plus
// the replayed journal counters and the open append handle.
type Lineage struct {
	mu  sync.Mutex // counters, state, journal handle
	dir string
	st  State
	log *durable.Log

	nextSeq           int64
	pendingBatches    int
	pendingNNZ        int64
	oldestPendingNano int64

	// opMu serializes the heavy operations (Materialize, Commit) so a
	// commit never compacts the journal out from under a materialization.
	opMu sync.Mutex
}

// Snapshot is a consistent point-in-time view of a lineage.
type Snapshot struct {
	Root           string
	Dims           []int
	Decay          float64
	AppliedSeq     int64
	BaseGen        int64
	BaseGenDir     string // shard dir of BaseGen ("" when BaseGen == 0)
	LatestSeq      int64  // newest appended batch seq (0 = none yet)
	PendingBatches int
	PendingNNZ     int64
	SourceSpec     json.RawMessage
}

// Stats aggregates the store's counters for /metrics.
type Stats struct {
	Lineages       int
	PendingBatches int
	PendingNNZ     int64
	Appends        int64
	AppendNNZ      int64
}

// Store manages every lineage under one root directory.
type Store struct {
	cfg Config

	mu       sync.Mutex
	lineages map[string]*Lineage

	appends   atomic.Int64
	appendNNZ atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// Open loads every lineage under cfg.Dir (created if missing), replaying and
// compacting each delta journal. Corrupt lineage directories are skipped and
// reported as warnings, mirroring the model registry's startup contract.
func Open(cfg Config) (*Store, []error, error) {
	if cfg.Dir == "" {
		return nil, nil, fmt.Errorf("stream: Config.Dir required")
	}
	cfg = cfg.fill()
	if err := durable.MkdirAll(cfg.Dir); err != nil {
		return nil, nil, err
	}
	s := &Store{
		cfg:      cfg,
		lineages: make(map[string]*Lineage),
		stop:     make(chan struct{}),
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, nil, err
	}
	var warnings []error
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || strings.HasPrefix(name, ".") {
			continue
		}
		dir := filepath.Join(cfg.Dir, name)
		if !IsStreamDir(dir) {
			continue
		}
		l, warns, err := openLineage(dir, name)
		for _, w := range warns {
			warnings = append(warnings, fmt.Errorf("lineage %s: %w", name, w))
		}
		if err != nil {
			warnings = append(warnings, fmt.Errorf("lineage %s: %w", name, err))
			continue
		}
		s.lineages[name] = l
	}
	if cfg.RefitStaleness > 0 && cfg.OnTrigger != nil {
		s.wg.Add(1)
		go s.stalenessLoop()
	}
	return s, warnings, nil
}

// Close stops the staleness timer and closes every journal handle.
func (s *Store) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, l := range s.lineages {
		l.mu.Lock()
		if l.log != nil {
			if err := l.log.Close(); err != nil && first == nil {
				first = err
			}
			l.log = nil
		}
		l.mu.Unlock()
	}
	return first
}

// Ensure returns the root's lineage, creating it (durable before return) on
// first use. decay <= 0 takes the store default; an explicit decay on an
// existing lineage must match the one it was created with.
func (s *Store) Ensure(root string, dims []int, decay float64, sourceSpec json.RawMessage) (*Lineage, error) {
	if root == "" {
		return nil, fmt.Errorf("stream: empty root id")
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("stream: lineage needs dims")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok := s.lineages[root]; ok {
		l.mu.Lock()
		defer l.mu.Unlock()
		if decay > 0 && decay != l.st.Decay {
			return nil, fmt.Errorf("stream: lineage %s has decay %g, got %g (decay is fixed at creation)", root, l.st.Decay, decay)
		}
		return l, nil
	}
	if decay <= 0 || decay >= 1 {
		decay = s.cfg.Decay
	}
	dir := filepath.Join(s.cfg.Dir, root)
	st := State{
		V:               stateVersion,
		Root:            root,
		Dims:            append([]int(nil), dims...),
		Decay:           decay,
		SourceSpec:      sourceSpec,
		CreatedUnixNano: time.Now().UnixNano(),
	}
	if err := durable.MkdirAll(dir); err != nil {
		return nil, err
	}
	if err := writeStateFile(dir, st); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	l, _, err := openLineage(dir, root)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.lineages[root] = l
	return l, nil
}

// Get returns the root's lineage, if any.
func (s *Store) Get(root string) (*Lineage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.lineages[root]
	return l, ok
}

// Roots lists every lineage root in sorted order.
func (s *Store) Roots() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.lineages))
	for root := range s.lineages {
		out = append(out, root)
	}
	sort.Strings(out)
	return out
}

// AppendResult reports one accepted batch.
type AppendResult struct {
	Seq            int64
	PendingBatches int
	PendingNNZ     int64
	Triggered      bool // the append crossed the nnz refit threshold
}

// Append validates and durably journals one batch of non-zeros for root.
// inds is mode-major (order slices, each len(vals)); coordinates are 0-based
// and must lie within the lineage dims (streamed models never grow modes —
// fold-in covers unseen rows; see docs/STREAMING.md).
func (s *Store) Append(root string, inds [][]int32, vals []float64) (*AppendResult, error) {
	l, ok := s.Get(root)
	if !ok {
		return nil, ErrNoLineage
	}
	if err := validateBatch(l.Dims(), inds, vals, s.cfg.MaxBatchNNZ); err != nil {
		return nil, err
	}
	if err := s.cfg.Faults.Fire(faults.StreamAppend); err != nil {
		return nil, err
	}

	l.mu.Lock()
	if l.log == nil {
		l.mu.Unlock()
		return nil, fmt.Errorf("stream: lineage %s is closed", root)
	}
	now := time.Now().UnixNano()
	line := batchLine{V: 1, Seq: l.nextSeq, UnixNano: now, Inds: inds, Vals: vals}
	raw, err := json.Marshal(line)
	if err == nil {
		err = l.log.Append(raw, nil)
	}
	if err != nil {
		l.mu.Unlock()
		return nil, err
	}
	res := &AppendResult{Seq: line.Seq}
	l.nextSeq++
	l.pendingBatches++
	l.pendingNNZ += int64(len(vals))
	if l.oldestPendingNano == 0 {
		l.oldestPendingNano = now
	}
	res.PendingBatches = l.pendingBatches
	res.PendingNNZ = l.pendingNNZ
	l.mu.Unlock()

	s.appends.Add(1)
	s.appendNNZ.Add(int64(len(vals)))
	if s.cfg.RefitNNZ > 0 && res.PendingNNZ >= s.cfg.RefitNNZ {
		res.Triggered = true
		if s.cfg.OnTrigger != nil {
			s.cfg.OnTrigger(root, TriggerNNZ)
		}
	}
	return res, nil
}

// RecordDrift durably appends one refit's aligned factor-drift record to the
// lineage's bounded history. Called by the serving layer after it registers a
// refit version; a failure here is reported but must not unwind the already
// committed refit, so callers log rather than abort.
func (s *Store) RecordDrift(root, version string, asOf int64, perMode []float64) error {
	l, ok := s.Get(root)
	if !ok {
		return ErrNoLineage
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	next := l.st
	entry := DriftEntry{
		Version:  version,
		AsOfSeq:  asOf,
		PerMode:  append([]float64(nil), perMode...),
		UnixNano: time.Now().UnixNano(),
	}
	// Copy-on-write so a failed state swap leaves the in-memory history
	// untouched and no caller ever sees a shared backing array mutate.
	hist := make([]DriftEntry, 0, len(l.st.Drift)+1)
	hist = append(hist, l.st.Drift...)
	hist = append(hist, entry)
	if len(hist) > maxDriftHistory {
		hist = hist[len(hist)-maxDriftHistory:]
	}
	next.Drift = hist
	if err := writeStateFile(l.dir, next); err != nil {
		return err
	}
	l.st = next
	return nil
}

// DriftHistory returns the lineage's recorded drift entries, newest last.
func (s *Store) DriftHistory(root string) ([]DriftEntry, error) {
	l, ok := s.Get(root)
	if !ok {
		return nil, ErrNoLineage
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]DriftEntry(nil), l.st.Drift...), nil
}

// Snapshot returns a consistent view of the root's lineage.
func (s *Store) Snapshot(root string) (Snapshot, error) {
	l, ok := s.Get(root)
	if !ok {
		return Snapshot{}, ErrNoLineage
	}
	return l.Snapshot(), nil
}

// Stats aggregates the live counters across all lineages.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	lineages := make([]*Lineage, 0, len(s.lineages))
	for _, l := range s.lineages {
		lineages = append(lineages, l)
	}
	s.mu.Unlock()
	st := Stats{
		Lineages:  len(lineages),
		Appends:   s.appends.Load(),
		AppendNNZ: s.appendNNZ.Load(),
	}
	for _, l := range lineages {
		l.mu.Lock()
		st.PendingBatches += l.pendingBatches
		st.PendingNNZ += l.pendingNNZ
		l.mu.Unlock()
	}
	return st
}

// stalenessLoop periodically fires the staleness trigger for lineages whose
// oldest pending batch has outlived the configured window.
func (s *Store) stalenessLoop() {
	defer s.wg.Done()
	period := s.cfg.RefitStaleness / 2
	if period > 30*time.Second {
		period = 30 * time.Second
	}
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		now := time.Now().UnixNano()
		s.mu.Lock()
		var stale []string
		for root, l := range s.lineages {
			l.mu.Lock()
			if l.pendingBatches > 0 && l.oldestPendingNano > 0 &&
				now-l.oldestPendingNano >= s.cfg.RefitStaleness.Nanoseconds() {
				stale = append(stale, root)
			}
			l.mu.Unlock()
		}
		s.mu.Unlock()
		for _, root := range stale {
			s.cfg.OnTrigger(root, TriggerStaleness)
		}
	}
}

// openLineage loads state, replays + compacts the journal, and opens the
// append handle. It returns the journal replay's warnings.
func openLineage(dir, root string) (*Lineage, []error, error) {
	st, err := readStateFile(dir)
	if err != nil {
		return nil, nil, err
	}
	if st.Root != root {
		return nil, nil, fmt.Errorf("state root %q in directory %q", st.Root, root)
	}
	l := &Lineage{dir: dir, st: *st}
	warns, err := l.openJournal()
	if err != nil {
		return nil, warns, err
	}
	return l, warns, nil
}

// Root returns the lineage's root model id.
func (l *Lineage) Root() string { return l.st.Root }

// Dir returns the lineage directory.
func (l *Lineage) Dir() string { return l.dir }

// Dims returns the lineage's tensor mode lengths.
func (l *Lineage) Dims() []int {
	return append([]int(nil), l.st.Dims...)
}

// GenDir returns the shard directory path of the materialized generation at
// the given seq.
func (l *Lineage) GenDir(seq int64) string {
	return filepath.Join(l.dir, fmt.Sprintf("gen-%08d.shards", seq))
}

// Snapshot returns a consistent view of the lineage's counters and state.
func (l *Lineage) Snapshot() Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	snap := Snapshot{
		Root:           l.st.Root,
		Dims:           append([]int(nil), l.st.Dims...),
		Decay:          l.st.Decay,
		AppliedSeq:     l.st.AppliedSeq,
		BaseGen:        l.st.BaseGen,
		LatestSeq:      l.nextSeq - 1,
		PendingBatches: l.pendingBatches,
		PendingNNZ:     l.pendingNNZ,
		SourceSpec:     l.st.SourceSpec,
	}
	if l.st.BaseGen > 0 {
		snap.BaseGenDir = l.GenDir(l.st.BaseGen)
	}
	return snap
}

// validateBatch checks one append payload against the lineage shape.
func validateBatch(dims []int, inds [][]int32, vals []float64, maxNNZ int) error {
	if len(inds) != len(dims) {
		return fmt.Errorf("stream: batch has %d index modes for order-%d tensor", len(inds), len(dims))
	}
	n := len(vals)
	if n == 0 {
		return fmt.Errorf("stream: empty batch")
	}
	if n > maxNNZ {
		return fmt.Errorf("stream: batch of %d non-zeros exceeds the %d cap", n, maxNNZ)
	}
	for m, col := range inds {
		if len(col) != n {
			return fmt.Errorf("stream: mode %d has %d indices for %d values", m, len(col), n)
		}
		for p, idx := range col {
			if idx < 0 || int(idx) >= dims[m] {
				return fmt.Errorf("stream: non-zero %d mode %d index %d out of range [0, %d)", p, m, idx, dims[m])
			}
		}
	}
	for p, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("stream: non-zero %d has non-finite value %v", p, v)
		}
	}
	return nil
}

// writeStateFile durably replaces stream.json.
func writeStateFile(dir string, st State) error {
	raw, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return durable.ReplaceFile(filepath.Join(dir, StateFileName), func(w io.Writer) error {
		_, err := w.Write(append(raw, '\n'))
		return err
	})
}

func readStateFile(dir string) (*State, error) {
	raw, err := os.ReadFile(filepath.Join(dir, StateFileName))
	if err != nil {
		return nil, err
	}
	var st State
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, fmt.Errorf("%s: %w", StateFileName, err)
	}
	if st.V != stateVersion {
		return nil, fmt.Errorf("%s: unsupported version %d", StateFileName, st.V)
	}
	if st.Root == "" || len(st.Dims) == 0 {
		return nil, fmt.Errorf("%s: missing root or dims", StateFileName)
	}
	for m, d := range st.Dims {
		if d <= 0 {
			return nil, fmt.Errorf("%s: dim %d is %d", StateFileName, m, d)
		}
	}
	if st.Decay <= 0 || st.Decay > 1 {
		return nil, fmt.Errorf("%s: decay %g outside (0, 1]", StateFileName, st.Decay)
	}
	if st.AppliedSeq < 0 || st.BaseGen < 0 {
		return nil, fmt.Errorf("%s: negative seq", StateFileName)
	}
	return &st, nil
}
