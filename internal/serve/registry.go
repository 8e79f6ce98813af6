// Package serve is the long-running factorization service behind cmd/aoadmmd:
// an async job manager that runs constrained factorizations through a bounded
// worker pool, a crash-safe on-disk model registry, and a low-latency query
// engine (entry reconstruction and top-K completion) over registered Kruskal
// models. It turns the batch library into the serving system the ROADMAP's
// north star describes: models are fitted once, persisted, and then queried
// many times at interactive latency.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"aoadmm/internal/dense"
	"aoadmm/internal/durable"
	"aoadmm/internal/kruskal"
	"aoadmm/internal/sparse"
	"aoadmm/internal/stats"
)

// queryCSRThreshold is the factor density below which the registry keeps a
// CSR image of a mode for the top-K kernel — the serving-path counterpart of
// the paper's §IV-C sparsity exploitation (same 20% operating point).
const queryCSRThreshold = 0.20

// queryIndexMinRows is the mode length at which the registry also builds a
// cluster index over the factor's rows (kruskal.RowIndex): below it a brute
// scan is already sub-millisecond and the index is pure overhead. A var so
// tests can force index builds on small models.
var queryIndexMinRows = 4096

// ModelMeta is the durable description of a registered model, persisted as
// meta.json beside the factor matrices.
type ModelMeta struct {
	// ID is the registry-assigned identifier ("m000001", ...).
	ID string `json:"id"`
	// Name is the optional human-readable label from the job spec.
	Name string `json:"name,omitempty"`
	// JobID is the job that produced the model.
	JobID string `json:"job_id,omitempty"`
	// Algo is the solver that fitted it: "aoadmm", "als", or "hals".
	Algo string `json:"algo"`
	// Dims are the tensor mode lengths; Rank the CPD rank.
	Dims []int `json:"dims"`
	Rank int   `json:"rank"`
	// Constraint is the CLI-style constraint spec the job ran with.
	Constraint string `json:"constraint,omitempty"`
	// RelErr, OuterIters, Converged summarize the fit.
	RelErr     float64 `json:"rel_err"`
	OuterIters int     `json:"outer_iters"`
	Converged  bool    `json:"converged"`
	// FactorDensities is the final per-mode factor density.
	FactorDensities []float64 `json:"factor_densities,omitempty"`
	// CreatedUnixNano is the registration time.
	CreatedUnixNano int64 `json:"created_unix_nano"`

	// Lineage fields (streaming refits, docs/STREAMING.md). Version numbers
	// a model within its family, starting at 1; ParentID names the version
	// the refit warm-started from; RootID names version 1 (every pre-lineage
	// model is its own root, normalized at load). A refit commit moves the
	// lineage head to the new version; queries follow the head by default or
	// pin a version explicitly.
	Version  int    `json:"version,omitempty"`
	ParentID string `json:"parent_id,omitempty"`
	RootID   string `json:"root_id,omitempty"`
	// Pinned protects the version from retention GC (and answers version
	// spec "pinned"); toggled via POST /models/{id}/pin.
	Pinned bool `json:"pinned,omitempty"`
	// AsOfSeq is the newest delta-journal batch folded into this version's
	// training input; DeltaBatches/DeltaNNZ record the delta provenance.
	AsOfSeq      int64 `json:"as_of_seq,omitempty"`
	DeltaBatches int   `json:"delta_batches,omitempty"`
	DeltaNNZ     int64 `json:"delta_nnz,omitempty"`
	// Drift is the per-mode aligned factor drift between this refit's
	// factors and its parent version's (eval.FactorDrift): 0 = identical up
	// to permutation and scaling, 1 = orthogonal. Empty for fresh models.
	Drift []float64 `json:"drift,omitempty"`
}

// Model is one registered model held in memory: metadata, the Kruskal
// factors, per-mode CSR images of sparse factors for the query kernel, and
// the job's final metrics report when one was collected. A Model is
// immutable after registration.
type Model struct {
	Meta   ModelMeta
	K      *kruskal.Tensor
	Report *stats.Report
	// Duals are the per-mode scaled ADMM duals at convergence (nil for ALS/
	// HALS models and pre-duals registrations): the warm-start state the
	// next streaming refit scales by the window decay.
	Duals []*dense.Matrix

	leaves  []*sparse.CSR
	indexes []*kruskal.RowIndex
}

// Leaf returns the mode's cached CSR image, or nil when the factor is dense
// enough that the dense scoring path wins.
func (m *Model) Leaf(mode int) *sparse.CSR {
	if mode < 0 || mode >= len(m.leaves) {
		return nil
	}
	return m.leaves[mode]
}

// Index returns the mode's cluster index, or nil when the mode is too short
// to benefit from one.
func (m *Model) Index(mode int) *kruskal.RowIndex {
	if mode < 0 || mode >= len(m.indexes) {
		return nil
	}
	return m.indexes[mode]
}

// buildQueryStructures caches the per-mode accelerators the query path uses:
// CSR images of factors below the density threshold, and cluster indexes
// over modes long enough for pruning to pay. Models are immutable after
// registration, so both are built exactly once and never go stale.
func (m *Model) buildQueryStructures() {
	m.leaves = make([]*sparse.CSR, m.K.Order())
	m.indexes = make([]*kruskal.RowIndex, m.K.Order())
	for mode, f := range m.K.Factors {
		if dense.Density(f, 0) < queryCSRThreshold {
			m.leaves[mode] = sparse.FromDense(f, 0)
		}
		if f.Rows >= queryIndexMinRows {
			if ix, err := m.K.BuildIndex(mode, 0, 0); err == nil {
				m.indexes[mode] = ix
			}
		}
	}
}

// Registry is the concurrent-safe model store. Models live under
// <dir>/<id>/ as factors/ (kruskal.Save layout), meta.json, and optionally
// metrics.json. Every write goes through internal/durable: a model directory
// is staged and renamed into place (ReplaceDir), meta.json is replaced
// whole (ReplaceFile), and a deleted version is renamed to trash before it is
// removed (RemoveDir), so a crash never leaves a half-written or
// half-deleted model for the next startup to trip over.
type Registry struct {
	mu     sync.RWMutex
	dir    string
	models map[string]*Model
	ids    []string
	heads  map[string]string // root id -> highest-version model id
	seq    int
}

// OpenRegistry loads every model directory under dir (created if missing),
// after removing what crashed writes and deletions left behind. Corrupt or
// unreadable model directories are skipped and reported as warnings rather
// than failing startup — the registry loads untrusted dirs and must degrade
// gracefully.
func OpenRegistry(dir string) (*Registry, []error, error) {
	if err := durable.MkdirAll(dir); err != nil {
		return nil, nil, err
	}
	if err := durable.Sweep(dir); err != nil {
		return nil, nil, err
	}
	r := &Registry{dir: dir, models: make(map[string]*Model), heads: make(map[string]string)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var warnings []error
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || strings.HasPrefix(name, ".") {
			continue
		}
		if strings.HasSuffix(name, ".old") {
			// A deleted version older registries' GC leaked by crashing
			// mid-delete. Model dirs are never replaced, so it is never a
			// swap to recover.
			os.RemoveAll(filepath.Join(dir, name))
			continue
		}
		// Advance the id sequence past every model-shaped directory name,
		// even ones that fail to load — a later Register must never collide
		// with a corrupt dir left on disk.
		if n, ok := modelSeq(name); ok && n > r.seq {
			r.seq = n
		}
		m, err := loadModelDir(filepath.Join(dir, name))
		if err != nil {
			warnings = append(warnings, fmt.Errorf("model %s: %w", name, err))
			continue
		}
		if m.Meta.ID == "" {
			m.Meta.ID = name
		}
		normalizeLineage(&m.Meta)
		r.models[m.Meta.ID] = m
		r.ids = append(r.ids, m.Meta.ID)
	}
	sort.Strings(r.ids)
	for _, id := range r.ids {
		r.updateHeadLocked(r.models[id].Meta)
	}
	return r, warnings, nil
}

// normalizeLineage back-fills the lineage fields of pre-streaming metas so
// every model is version 1 of its own single-member family.
func normalizeLineage(meta *ModelMeta) {
	if meta.Version <= 0 {
		meta.Version = 1
	}
	if meta.RootID == "" {
		meta.RootID = meta.ID
	}
}

// updateHeadLocked advances the lineage head if meta outranks the current
// one. Caller holds r.mu.
func (r *Registry) updateHeadLocked(meta ModelMeta) {
	cur, ok := r.heads[meta.RootID]
	if !ok {
		r.heads[meta.RootID] = meta.ID
		return
	}
	c := r.models[cur]
	if c == nil || meta.Version > c.Meta.Version ||
		(meta.Version == c.Meta.Version && meta.ID > cur) {
		r.heads[meta.RootID] = meta.ID
	}
}

// modelSeq extracts the numeric suffix of a registry-assigned id.
func modelSeq(id string) (int, bool) {
	if !strings.HasPrefix(id, "m") {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil {
		return 0, false
	}
	return n, true
}

func loadModelDir(dir string) (*Model, error) {
	// Factors load through the checkpoint reader so the optional dual
	// matrices written beside them (streaming warm-start state) come back
	// too; plain pre-duals model dirs load with Duals nil.
	ck, err := kruskal.LoadCheckpoint(filepath.Join(dir, "factors"))
	if err != nil {
		return nil, err
	}
	k := ck.Factors
	m := &Model{K: k, Duals: ck.Duals}
	raw, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, fmt.Errorf("meta.json: %w", err)
	}
	if err := json.Unmarshal(raw, &m.Meta); err != nil {
		return nil, fmt.Errorf("meta.json: %w", err)
	}
	if err := checkMetaShape(m.Meta, k); err != nil {
		return nil, err
	}
	if raw, err := os.ReadFile(filepath.Join(dir, "metrics.json")); err == nil {
		var rep stats.Report
		if err := json.Unmarshal(raw, &rep); err == nil {
			m.Report = &rep
		}
	}
	m.buildQueryStructures()
	return m, nil
}

// checkMetaShape cross-validates meta.json against the loaded factors so a
// model dir whose pieces disagree is rejected as a unit.
func checkMetaShape(meta ModelMeta, k *kruskal.Tensor) error {
	if meta.Rank != k.Rank() {
		return fmt.Errorf("meta rank %d, factors rank %d", meta.Rank, k.Rank())
	}
	dims := k.Dims()
	if len(meta.Dims) != len(dims) {
		return fmt.Errorf("meta order %d, factors order %d", len(meta.Dims), len(dims))
	}
	for m, d := range meta.Dims {
		if d != dims[m] {
			return fmt.Errorf("meta mode %d length %d, factor has %d rows", m, d, dims[m])
		}
	}
	return nil
}

// Register persists a fitted model and makes it queryable. The meta's ID and
// creation time are assigned here.
func (r *Registry) Register(meta ModelMeta, k *kruskal.Tensor, report *stats.Report) (*Model, error) {
	return r.RegisterModel(meta, k, nil, report)
}

// RegisterModel is Register plus the converged ADMM duals, persisted beside
// the factors so streaming refits can warm-start from the live model's full
// state. Lineage fields pass through meta: a refit sets Version/ParentID/
// RootID and the delta provenance; a fresh model leaves them zero and is
// normalized to version 1 of its own family.
func (r *Registry) RegisterModel(meta ModelMeta, k *kruskal.Tensor, duals []*dense.Matrix, report *stats.Report) (*Model, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	meta.ID = fmt.Sprintf("m%06d", r.seq)
	meta.Dims = k.Dims()
	meta.Rank = k.Rank()
	meta.CreatedUnixNano = time.Now().UnixNano()
	normalizeLineage(&meta)

	err := durable.ReplaceDir(filepath.Join(r.dir, meta.ID), func(tmp string) error {
		ck := kruskal.Checkpoint{Factors: k, Duals: duals}
		if err := ck.Write(filepath.Join(tmp, "factors")); err != nil {
			return err
		}
		if err := writeJSONFile(filepath.Join(tmp, "meta.json"), meta); err != nil {
			return err
		}
		if report != nil {
			return writeJSONFile(filepath.Join(tmp, "metrics.json"), report)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	m := &Model{Meta: meta, K: k.Clone(), Report: report}
	for _, d := range duals {
		m.Duals = append(m.Duals, d.Clone())
	}
	m.buildQueryStructures()
	r.models[meta.ID] = m
	r.ids = append(r.ids, meta.ID)
	sort.Strings(r.ids)
	r.updateHeadLocked(meta)
	return m, nil
}

// FindByJob returns the model registered by the given job, if any. Crash
// recovery uses it to detect the register-then-crash window: a job journaled
// as running whose model already exists must be adopted, not re-run.
func (r *Registry) FindByJob(jobID string) (*Model, bool) {
	if jobID == "" {
		return nil, false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, id := range r.ids {
		if m := r.models[id]; m.Meta.JobID == jobID {
			return m, true
		}
	}
	return nil, false
}

// Get returns a model by id.
func (r *Registry) Get(id string) (*Model, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.models[id]
	return m, ok
}

// List returns every model's metadata in id order.
func (r *Registry) List() []ModelMeta {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]ModelMeta, 0, len(r.ids))
	for _, id := range r.ids {
		out = append(out, r.models[id].Meta)
	}
	return out
}

// Len returns the number of registered models.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.models)
}

// ErrNoModel distinguishes "model/version not found" (HTTP 404) from an
// invalid version spec (HTTP 400) on the resolve path.
var ErrNoModel = fmt.Errorf("serve: no such model")

// Resolve maps a model id plus a version spec onto the concrete model to
// serve. Specs:
//
//	"" or "latest"  the lineage head (the atomic post-refit swap: version
//	                resolution happens per request against the head map)
//	"this"          exactly id, even when superseded (per-request pinning)
//	"pinned"        the newest pinned version in id's lineage
//	"N" or "vN"     version N in id's lineage
func (r *Registry) Resolve(id, version string) (*Model, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.models[id]
	if !ok {
		return nil, ErrNoModel
	}
	switch version {
	case "", "latest":
		if head, ok := r.models[r.heads[m.Meta.RootID]]; ok {
			return head, nil
		}
		return m, nil
	case "this":
		return m, nil
	case "pinned":
		var best *Model
		for _, sib := range r.models {
			if sib.Meta.RootID == m.Meta.RootID && sib.Meta.Pinned &&
				(best == nil || sib.Meta.Version > best.Meta.Version) {
				best = sib
			}
		}
		if best == nil {
			return nil, fmt.Errorf("%w: lineage %s has no pinned version", ErrNoModel, m.Meta.RootID)
		}
		return best, nil
	default:
		n, err := strconv.Atoi(strings.TrimPrefix(version, "v"))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("serve: bad version spec %q (want latest, this, pinned, or v<N>)", version)
		}
		for _, sib := range r.models {
			if sib.Meta.RootID == m.Meta.RootID && sib.Meta.Version == n {
				return sib, nil
			}
		}
		return nil, fmt.Errorf("%w: lineage %s has no version %d", ErrNoModel, m.Meta.RootID, n)
	}
}

// Head returns the lineage head of the given model id.
func (r *Registry) Head(id string) (*Model, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.models[id]
	if !ok {
		return nil, false
	}
	head, ok := r.models[r.heads[m.Meta.RootID]]
	if !ok {
		return m, true
	}
	return head, true
}

// Lineage returns every version in the given model's family in version
// order.
func (r *Registry) Lineage(id string) ([]ModelMeta, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.models[id]
	if !ok {
		return nil, false
	}
	var out []ModelMeta
	for _, sid := range r.ids {
		if sib := r.models[sid]; sib.Meta.RootID == m.Meta.RootID {
			out = append(out, sib.Meta)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Version < out[b].Version })
	return out, true
}

// SetPinned toggles a version's GC protection, durably rewriting its
// meta.json. The in-memory model is replaced by a shallow copy so readers
// holding the old pointer never observe a mutation.
func (r *Registry) SetPinned(id string, pinned bool) (*Model, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.models[id]
	if !ok {
		return nil, ErrNoModel
	}
	if m.Meta.Pinned == pinned {
		return m, nil
	}
	next := *m
	next.Meta.Pinned = pinned
	if err := durable.ReplaceFile(filepath.Join(r.dir, id, "meta.json"), func(w io.Writer) error {
		return encodeJSON(w, next.Meta)
	}); err != nil {
		return nil, err
	}
	r.models[id] = &next
	return &next, nil
}

// GCVersions applies the keep-last-N retention policy to the given model's
// lineage: superseded versions beyond the newest keep are removed from disk
// and the registry. The head, the pinned versions and the root are never
// deleted: the root's id names the lineage, so every lineage-addressed
// request resolves through it. In-flight queries holding a removed *Model
// keep serving from memory. Returns the removed ids.
func (r *Registry) GCVersions(id string, keep int) []string {
	if keep < 1 {
		keep = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.models[id]
	if !ok {
		return nil
	}
	var family []*Model
	for _, sid := range r.ids {
		if sib := r.models[sid]; sib.Meta.RootID == m.Meta.RootID {
			family = append(family, sib)
		}
	}
	sort.Slice(family, func(a, b int) bool { return family[a].Meta.Version > family[b].Meta.Version })
	headID := r.heads[m.Meta.RootID]
	var gced []string
	for i, sib := range family {
		if i < keep || sib.Meta.Pinned || sib.Meta.ID == headID || sib.Meta.ID == sib.Meta.RootID {
			continue
		}
		if err := r.removeLocked(sib.Meta.ID); err != nil {
			continue
		}
		gced = append(gced, sib.Meta.ID)
	}
	return gced
}

// removeLocked deletes one model from disk and memory. Caller holds r.mu.
func (r *Registry) removeLocked(id string) error {
	if err := durable.RemoveDir(filepath.Join(r.dir, id)); err != nil {
		return err
	}
	delete(r.models, id)
	for i, mid := range r.ids {
		if mid == id {
			r.ids = append(r.ids[:i], r.ids[i+1:]...)
			break
		}
	}
	return nil
}

func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := encodeJSON(f, v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
