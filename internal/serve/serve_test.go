package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"aoadmm/internal/kruskal"
	"aoadmm/internal/ooc"
	"aoadmm/internal/tensor"
)

// newTestServer starts a serve.Server over a fresh (or given) data dir.
func newTestServer(t *testing.T, dataDir string) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{DataDir: dataDir, Workers: 2, QueueCap: 8, RequestTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(10 * time.Second)
	})
	return s, ts
}

// testTNS writes a small random tensor to a .tns file and returns its path.
func testTNS(t *testing.T, dims []int, nnz int, seed int64) string {
	t.Helper()
	x, err := tensor.Uniform(tensor.GenOptions{Dims: dims, NNZ: nnz, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.tns")
	if err := tensor.SaveTNSFile(path, x); err != nil {
		t.Fatal(err)
	}
	return path
}

func doJSON(t *testing.T, method, url string, body any, out any) (int, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, raw.String(), err)
		}
	}
	return resp.StatusCode, raw.Bytes()
}

// slowJobSpec returns a job that cannot plausibly finish on its own within
// the test: a large-enough tensor that single-threaded outer iterations take
// milliseconds, an astronomically high iteration cap, and a tolerance only a
// bitwise-stable fixed point could meet — which takes far longer to reach
// than the cancel/shutdown under test.
func slowJobSpec(t *testing.T, seed int64) JobSpec {
	t.Helper()
	return JobSpec{
		TensorPath:    testTNS(t, []int{50, 50, 50}, 40000, seed),
		Rank:          16,
		Constraint:    "nonneg",
		MaxOuterIters: 2_000_000,
		Tol:           1e-300,
		Threads:       1,
	}
}

// pollJob polls until the job reaches a terminal state or want, failing on
// deadline.
func pollJob(t *testing.T, base, id string, want JobStatus, deadline time.Duration) JobView {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		var v JobView
		code, raw := doJSON(t, http.MethodGet, base+"/jobs/"+id, nil, &v)
		if code != http.StatusOK {
			t.Fatalf("GET job: %d %s", code, raw)
		}
		if JobStatus(v.Status) == want {
			return v
		}
		switch JobStatus(v.Status) {
		case JobDone, JobFailed, JobCanceled:
			t.Fatalf("job %s reached terminal state %q, want %q (err=%q)", id, v.Status, want, v.Error)
		}
		if time.Now().After(stop) {
			t.Fatalf("job %s stuck in %q waiting for %q", id, v.Status, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestEndToEndSubmitQueryCancelRestart(t *testing.T) {
	dataDir := t.TempDir()
	_, ts := newTestServer(t, dataDir)
	path := testTNS(t, []int{25, 40, 15}, 3000, 11)

	// --- Submit a job and watch it run to completion. ---
	var submitted JobView
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/jobs", JobSpec{
		TensorPath: path, Rank: 4, Constraint: "nonneg",
		MaxOuterIters: 15, Seed: 3, Name: "e2e",
	}, &submitted)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, raw)
	}
	done := pollJob(t, ts.URL, submitted.ID, JobDone, 60*time.Second)
	if done.ModelID == "" || done.OuterIters == 0 {
		t.Fatalf("done job incomplete: %+v", done)
	}

	// --- Model metadata. ---
	var meta ModelMeta
	code, raw = doJSON(t, http.MethodGet, ts.URL+"/models/"+done.ModelID, nil, &meta)
	if code != http.StatusOK {
		t.Fatalf("model meta: %d %s", code, raw)
	}
	if meta.Rank != 4 || len(meta.Dims) != 3 || meta.Name != "e2e" {
		t.Fatalf("meta %+v", meta)
	}

	// --- Entry reconstruction matches the persisted factors. ---
	persisted, err := kruskal.Load(filepath.Join(dataDir, "models", done.ModelID, "factors"))
	if err != nil {
		t.Fatal(err)
	}
	var entry struct {
		Coord []int   `json:"coord"`
		Value float64 `json:"value"`
	}
	code, raw = doJSON(t, http.MethodGet, ts.URL+"/models/"+done.ModelID+"/entry?at=1,2,3", nil, &entry)
	if code != http.StatusOK {
		t.Fatalf("entry: %d %s", code, raw)
	}
	if want := persisted.At([]int{1, 2, 3}); entry.Value != want {
		t.Fatalf("entry %v, want %v", entry.Value, want)
	}

	// --- Top-K matches a brute-force ranking of the persisted model. ---
	var topk struct {
		Matches []kruskal.Match `json:"matches"`
	}
	code, raw = doJSON(t, http.MethodPost, ts.URL+"/models/"+done.ModelID+"/topk", topKRequest{
		Anchors: map[string]int{"0": 2}, TargetMode: 1, K: 5,
	}, &topk)
	if code != http.StatusOK {
		t.Fatalf("topk: %d %s", code, raw)
	}
	if len(topk.Matches) != 5 {
		t.Fatalf("got %d matches", len(topk.Matches))
	}
	target := persisted.Factors[1]
	anchor := persisted.Factors[0].Row(2)
	scores := make([]kruskal.Match, target.Rows)
	for j := 0; j < target.Rows; j++ {
		var sum float64
		for f := 0; f < persisted.Rank(); f++ {
			sum += anchor[f] * target.At(j, f)
		}
		scores[j] = kruskal.Match{Row: j, Score: sum}
	}
	sort.Slice(scores, func(a, b int) bool {
		if scores[a].Score != scores[b].Score {
			return scores[a].Score > scores[b].Score
		}
		return scores[a].Row < scores[b].Row
	})
	for i, m := range topk.Matches {
		if m.Row != scores[i].Row {
			t.Fatalf("topk[%d] = %+v, brute force %+v", i, m, scores[i])
		}
	}

	// --- /metrics exposes daemon counters and the job's report. ---
	var metrics struct {
		Daemon struct {
			Jobs    map[string]int `json:"jobs"`
			Models  int            `json:"models"`
			Queries int64          `json:"queries"`
		} `json:"daemon"`
		Jobs map[string]json.RawMessage `json:"jobs"`
	}
	code, raw = doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &metrics)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d %s", code, raw)
	}
	if metrics.Daemon.Models != 1 || metrics.Daemon.Queries < 2 {
		t.Fatalf("daemon counters %+v", metrics.Daemon)
	}
	rep, ok := metrics.Jobs[submitted.ID]
	if !ok {
		t.Fatalf("no metrics report for %s", submitted.ID)
	}
	var report struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(rep, &report); err != nil || report.Schema != "aoadmm-metrics/v1" {
		t.Fatalf("job report schema %q (%v)", report.Schema, err)
	}

	// --- Cancel an in-flight job: it must stop long before its cap. ---
	var slow JobView
	code, raw = doJSON(t, http.MethodPost, ts.URL+"/jobs", slowJobSpec(t, 5), &slow)
	if code != http.StatusAccepted {
		t.Fatalf("submit slow: %d %s", code, raw)
	}
	pollJob(t, ts.URL, slow.ID, JobRunning, 30*time.Second)
	code, raw = doJSON(t, http.MethodPost, ts.URL+"/jobs/"+slow.ID+"/cancel", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("cancel: %d %s", code, raw)
	}
	canceled := pollJob(t, ts.URL, slow.ID, JobCanceled, 30*time.Second)
	if canceled.OuterIters >= 2_000_000 {
		t.Fatalf("canceled job ran to the cap: %+v", canceled)
	}
	if canceled.CheckpointDir == "" {
		t.Fatalf("canceled job left no checkpoint: %+v", canceled)
	}
	if _, err := kruskal.Load(canceled.CheckpointDir); err != nil {
		t.Fatalf("canceled job checkpoint unreadable: %v", err)
	}

	// --- Simulated restart: a fresh server over the same data dir reloads
	// the registered model and serves queries from it. ---
	ts.Close()
	s2, ts2 := newTestServer(t, dataDir)
	if s2.Registry().Len() != 1 {
		t.Fatalf("restarted registry has %d models", s2.Registry().Len())
	}
	code, raw = doJSON(t, http.MethodPost, ts2.URL+"/models/"+done.ModelID+"/topk", topKRequest{
		Anchors: map[string]int{"0": 2}, TargetMode: 1, K: 5,
	}, &topk)
	if code != http.StatusOK {
		t.Fatalf("topk after restart: %d %s", code, raw)
	}
	if len(topk.Matches) != 5 || topk.Matches[0].Row != scores[0].Row {
		t.Fatalf("restarted topk differs: %+v", topk.Matches)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	bad := []JobSpec{
		{},                                   // no input
		{Dataset: "amazon", TensorPath: "x"}, // both inputs
		{Dataset: "nosuch", Rank: 4},         // unknown dataset
		{Dataset: "amazon", Rank: 0},         // bad rank
		{Dataset: "amazon", Rank: 4, Algo: "sgd"},
		{Dataset: "amazon", Rank: 4, Scale: "galactic"},
		{Dataset: "amazon", Rank: 4, Constraint: "frobnicate"},
	}
	for i, spec := range bad {
		code, raw := doJSON(t, http.MethodPost, ts.URL+"/jobs", spec, nil)
		if code != http.StatusBadRequest {
			t.Errorf("spec %d: status %d (%s)", i, code, raw)
		}
	}
	// Unknown job / model lookups are 404s.
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/jobs/j999999", nil, nil); code != http.StatusNotFound {
		t.Errorf("missing job status %d", code)
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/models/m999999", nil, nil); code != http.StatusNotFound {
		t.Errorf("missing model status %d", code)
	}
}

func TestRegistrySkipsCorruptModelDirs(t *testing.T) {
	dataDir := t.TempDir()
	modelsDir := filepath.Join(dataDir, "models")

	// A valid model written through the registry...
	reg, _, err := OpenRegistry(modelsDir)
	if err != nil {
		t.Fatal(err)
	}
	k := kruskal.New([]int{4, 5}, 2)
	for _, f := range k.Factors {
		f.Fill(0.5)
	}
	if _, err := reg.Register(ModelMeta{Algo: "aoadmm"}, k, nil); err != nil {
		t.Fatal(err)
	}

	// ...plus a corrupt one: torn factors.
	corrupt := filepath.Join(modelsDir, "m000999")
	if err := os.MkdirAll(filepath.Join(corrupt, "factors"), 0o755); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(corrupt, "factors", "mode0.txt"), []byte("1 2\n3 nope\n"), 0o644)
	os.WriteFile(filepath.Join(corrupt, "meta.json"), []byte("{}"), 0o644)

	s, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(time.Second)
	if s.Registry().Len() != 1 {
		t.Fatalf("registry loaded %d models, want 1", s.Registry().Len())
	}
	if len(s.Warnings()) != 1 {
		t.Fatalf("warnings %v", s.Warnings())
	}
	// The registry must keep allocating fresh ids past the corrupt dir's.
	m2, err := s.Registry().Register(ModelMeta{Algo: "hals"}, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Meta.ID != "m001000" {
		t.Fatalf("next id %s", m2.Meta.ID)
	}
}

// A crash mid-delete or mid-registration leaves a model directory under a
// trash or staging name; OpenRegistry must remove it, not load it.
func TestRegistrySweepsCrashLeftovers(t *testing.T) {
	modelsDir := filepath.Join(t.TempDir(), "models")
	reg, _, err := OpenRegistry(modelsDir)
	if err != nil {
		t.Fatal(err)
	}
	k := kruskal.New([]int{4, 5}, 2)
	for _, f := range k.Factors {
		f.Fill(0.5)
	}
	for i := 0; i < 4; i++ {
		if _, err := reg.Register(ModelMeta{Algo: "aoadmm"}, k, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Whole, loadable model dirs under the names an interrupted RemoveDir,
	// an older registry's delete, and an interrupted ReplaceDir leave.
	for from, to := range map[string]string{
		"m000002": ".m000002.trash",
		"m000003": "m000003.old",
		"m000004": ".m000004.new",
	} {
		if err := os.Rename(filepath.Join(modelsDir, from), filepath.Join(modelsDir, to)); err != nil {
			t.Fatal(err)
		}
	}

	reg, warns, err := OpenRegistry(modelsDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 0 {
		t.Fatalf("warnings %v", warns)
	}
	if ids := reg.List(); len(ids) != 1 || ids[0].ID != "m000001" {
		t.Fatalf("loaded %+v", ids)
	}
	entries, err := os.ReadDir(modelsDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "m000001" {
		for _, e := range entries {
			t.Errorf("left on disk: %s", e.Name())
		}
	}
}

func TestQueueFullReturns503(t *testing.T) {
	dataDir := t.TempDir()
	s, err := New(Config{DataDir: dataDir, Workers: 1, QueueCap: 1, RequestTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(10 * time.Second)

	spec := slowJobSpec(t, 9)
	// Fill the single worker plus the single queue slot, then overflow.
	ids := []string{}
	overflowed := false
	for i := 0; i < 8; i++ {
		var v JobView
		code, _ := doJSON(t, http.MethodPost, ts.URL+"/jobs", spec, &v)
		switch code {
		case http.StatusAccepted:
			ids = append(ids, v.ID)
		case http.StatusServiceUnavailable:
			overflowed = true
		default:
			t.Fatalf("submit %d: status %d", i, code)
		}
	}
	if !overflowed {
		t.Fatal("queue never overflowed")
	}
	for _, id := range ids {
		doJSON(t, http.MethodPost, ts.URL+"/jobs/"+id+"/cancel", nil, nil)
	}
}

func TestShutdownCancelsQueuedAndCheckpointsRunning(t *testing.T) {
	dataDir := t.TempDir()
	s, err := New(Config{DataDir: dataDir, Workers: 1, QueueCap: 4, RequestTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := slowJobSpec(t, 10)
	var running, queued JobView
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/jobs", spec, &running); code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, raw)
	}
	pollJob(t, ts.URL, running.ID, JobRunning, 30*time.Second)
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/jobs", spec, &queued); code != http.StatusAccepted {
		t.Fatalf("submit queued: %d %s", code, raw)
	}

	s.Shutdown(30 * time.Second)

	rj, _ := s.mgr.Get(running.ID)
	qj, _ := s.mgr.Get(queued.ID)
	rv, qv := rj.View(), qj.View()
	if JobStatus(rv.Status) != JobCanceled {
		t.Fatalf("running job after shutdown: %+v", rv)
	}
	if rv.CheckpointDir == "" {
		t.Fatal("running job not checkpointed at shutdown")
	}
	if _, err := kruskal.Load(rv.CheckpointDir); err != nil {
		t.Fatalf("shutdown checkpoint unreadable: %v", err)
	}
	if JobStatus(qv.Status) != JobCanceled {
		t.Fatalf("queued job after shutdown: %+v", qv)
	}
	// Submissions after shutdown are refused.
	if _, err := s.mgr.Submit(spec); err == nil {
		t.Fatal("submit accepted after shutdown")
	}
}

// TestSubmitTensorPathFailFast covers the submission-time validation of
// tensor_path: missing files and plain directories are rejected before a
// worker ever runs, while a shard store runs under every algo, HALS too.
func TestSubmitTensorPathFailFast(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	dir := t.TempDir() // exists, but is not a shard store

	x, err := tensor.Uniform(tensor.GenOptions{Dims: []int{10, 8, 6}, NNZ: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	shards := filepath.Join(t.TempDir(), "shards")
	if _, err := ooc.ConvertCOO(x, shards, ooc.ConvertOptions{}); err != nil {
		t.Fatal(err)
	}

	bad := []JobSpec{
		{TensorPath: filepath.Join(dir, "missing.tns"), Rank: 4},
		{TensorPath: dir, Rank: 4},
		{Dataset: "amazon", Rank: 4, MemBudgetMB: -1},
	}
	for i, spec := range bad {
		code, raw := doJSON(t, http.MethodPost, ts.URL+"/jobs", spec, nil)
		if code != http.StatusBadRequest {
			t.Errorf("spec %d: status %d (%s)", i, code, raw)
		}
	}

	var hals JobView
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/jobs", JobSpec{
		TensorPath: shards, Rank: 4, Algo: "hals", MaxOuterIters: 3, Threads: 1,
	}, &hals)
	if code != http.StatusAccepted {
		t.Fatalf("submit sharded hals: %d %s", code, raw)
	}
	pollJob(t, ts.URL, hals.ID, JobDone, 60*time.Second)
}

// TestOutOfCoreJobs runs jobs against a pre-converted shard directory and a
// budget-constrained file input, and checks the daemon-wide ooc counters and
// the per-job report's ooc section.
func TestOutOfCoreJobs(t *testing.T) {
	dataDir := t.TempDir()
	s, ts := newTestServer(t, dataDir)

	x, err := tensor.Uniform(tensor.GenOptions{Dims: []int{40, 25, 15}, NNZ: 5000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	shards := filepath.Join(t.TempDir(), "shards")
	if _, err := ooc.ConvertCOO(x, shards, ooc.ConvertOptions{TargetShardBytes: 16 << 10}); err != nil {
		t.Fatal(err)
	}

	// Shard directory input: always streams.
	var sharded JobView
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/jobs", JobSpec{
		TensorPath: shards, Rank: 3, Constraint: "nonneg",
		MaxOuterIters: 6, Seed: 2, Threads: 1,
	}, &sharded)
	if code != http.StatusAccepted {
		t.Fatalf("submit sharded: %d %s", code, raw)
	}
	done := pollJob(t, ts.URL, sharded.ID, JobDone, 60*time.Second)
	if done.ModelID == "" {
		t.Fatalf("sharded job incomplete: %+v", done)
	}

	// File input with a 1 MiB budget: admission converts under dataDir and
	// the conversion directory is cleaned up after the run.
	path := testTNS(t, []int{60, 40, 20}, 25000, 13)
	var budgeted JobView
	code, raw = doJSON(t, http.MethodPost, ts.URL+"/jobs", JobSpec{
		TensorPath: path, Rank: 3, Algo: "als",
		MaxOuterIters: 6, Seed: 2, Threads: 1, MemBudgetMB: 1,
	}, &budgeted)
	if code != http.StatusAccepted {
		t.Fatalf("submit budgeted: %d %s", code, raw)
	}
	pollJob(t, ts.URL, budgeted.ID, JobDone, 60*time.Second)
	if _, err := os.Stat(filepath.Join(dataDir, "shards", budgeted.ID)); !os.IsNotExist(err) {
		t.Errorf("budget-triggered shard dir not cleaned up: %v", err)
	}

	var metrics struct {
		OOC  map[string]int64           `json:"ooc"`
		Jobs map[string]json.RawMessage `json:"jobs"`
	}
	code, raw = doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &metrics)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d %s", code, raw)
	}
	if metrics.OOC["runs"] != 2 || metrics.OOC["shard_loads"] == 0 || metrics.OOC["shard_bytes"] == 0 {
		t.Fatalf("daemon ooc counters %v", metrics.OOC)
	}
	var report struct {
		OOC *struct {
			ShardLoads int64 `json:"shard_loads"`
		} `json:"ooc"`
	}
	if err := json.Unmarshal(metrics.Jobs[sharded.ID], &report); err != nil {
		t.Fatal(err)
	}
	if report.OOC == nil || report.OOC.ShardLoads == 0 {
		t.Fatalf("job report missing ooc section: %+v", report.OOC)
	}

	// A hals job whose budget forces out-of-core runs out-of-core too.
	var hals JobView
	code, raw = doJSON(t, http.MethodPost, ts.URL+"/jobs", JobSpec{
		TensorPath: path, Rank: 3, Algo: "hals",
		MaxOuterIters: 4, Seed: 2, MemBudgetMB: 1,
	}, &hals)
	if code != http.StatusAccepted {
		t.Fatalf("submit hals: %d %s", code, raw)
	}
	pollJob(t, ts.URL, hals.ID, JobDone, 60*time.Second)
	_ = s
}
