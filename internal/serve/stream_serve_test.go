package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aoadmm/internal/faults"
	"aoadmm/internal/stream"
	"aoadmm/internal/tensor"
)

// newStreamServer is newTestServer with streaming-relevant config knobs.
func newStreamServer(t *testing.T, dataDir string, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{DataDir: dataDir, Workers: 2, QueueCap: 8, RequestTimeout: 30 * time.Second}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
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

// trainModel submits a job over HTTP and waits for its model.
func trainModel(t *testing.T, base string, spec JobSpec) string {
	t.Helper()
	var v JobView
	if code, raw := doJSON(t, http.MethodPost, base+"/jobs", spec, &v); code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, raw)
	}
	done := pollJob(t, base, v.ID, JobDone, 120*time.Second)
	if done.ModelID == "" {
		t.Fatalf("job finished without a model: %+v", done)
	}
	return done.ModelID
}

// appendDelta POSTs one delta batch; extra merges additional request fields.
func appendDelta(t *testing.T, base, id string, inds [][]int32, vals []float64, extra map[string]any) (int, map[string]any) {
	t.Helper()
	body := map[string]any{"inds": inds, "vals": vals}
	for k, v := range extra {
		body[k] = v
	}
	var resp map[string]any
	code, raw := doJSON(t, http.MethodPost, base+"/models/"+id+"/append", body, nil)
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("append response %q: %v", raw, err)
		}
	}
	return code, resp
}

// refitAndWait runs an explicit refit of the model's lineage to completion
// and returns the new head's model id.
func refitAndWait(t *testing.T, base, id string, req map[string]any) string {
	t.Helper()
	var v JobView
	if code, raw := doJSON(t, http.MethodPost, base+"/models/"+id+"/refit", req, &v); code != http.StatusAccepted {
		t.Fatalf("refit: %d %s", code, raw)
	}
	done := pollJob(t, base, v.ID, JobDone, 120*time.Second)
	if done.ModelID == "" {
		t.Fatalf("refit finished without a model: %+v", done)
	}
	return done.ModelID
}

type lineageView struct {
	Root     string      `json:"root"`
	Versions []ModelMeta `json:"versions"`
	Head     string      `json:"head"`
	Stream   *struct {
		Decay          float64 `json:"decay"`
		AppliedSeq     int64   `json:"applied_seq"`
		LatestSeq      int64   `json:"latest_seq"`
		PendingBatches int     `json:"pending_batches"`
		PendingNNZ     int64   `json:"pending_nnz"`
		Drift          []struct {
			Version string    `json:"version"`
			AsOfSeq int64     `json:"as_of_seq"`
			PerMode []float64 `json:"per_mode"`
		} `json:"drift"`
	} `json:"stream"`
	RefitInFlight string `json:"refit_in_flight"`
}

func getLineage(t *testing.T, base, id string) lineageView {
	t.Helper()
	var lv lineageView
	if code, raw := doJSON(t, http.MethodGet, base+"/models/"+id+"/lineage", nil, &lv); code != http.StatusOK {
		t.Fatalf("lineage: %d %s", code, raw)
	}
	return lv
}

// pollHead polls the lineage until its head moves off old, returning the new
// head id.
func pollHead(t *testing.T, base, id, old string, deadline time.Duration) string {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		lv := getLineage(t, base, id)
		if lv.Head != old {
			return lv.Head
		}
		if time.Now().After(stop) {
			t.Fatalf("lineage head never moved off %s", old)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

type topKResp struct {
	Model   string `json:"model"`
	Matches []struct {
		Row   int     `json:"row"`
		Score float64 `json:"score"`
	} `json:"matches"`
	Cached bool `json:"cached"`
}

func queryTopK(t *testing.T, base, id string, body map[string]any) (int, topKResp, []byte) {
	t.Helper()
	var out topKResp
	code, raw := doJSON(t, http.MethodPost, base+"/models/"+id+"/topk", body, nil)
	if code == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("topk response %q: %v", raw, err)
		}
	}
	return code, out, raw
}

// deltaBatch is a small in-bounds batch for the quickSpec 12x10x8 tensor,
// varied by salt so successive batches hit different coordinates.
func deltaBatch(salt int32) ([][]int32, []float64) {
	inds := [][]int32{
		{salt % 12, (salt + 3) % 12, (salt + 7) % 12},
		{salt % 10, (salt + 2) % 10, (salt + 5) % 10},
		{salt % 8, (salt + 1) % 8, (salt + 4) % 8},
	}
	return inds, []float64{0.5, -0.25, 1.0}
}

// TestStreamRefitLineageOverHTTP drives the full streaming surface: append a
// delta to a served model, refit, and check the v1 -> v2 version chain, the
// version-resolution rules on every query endpoint, pinning, and the stream
// metrics.
func TestStreamRefitLineageOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	v1 := trainModel(t, ts.URL, quickSpec(t, 51))

	// Fresh model: a single-version lineage with no stream state.
	lv := getLineage(t, ts.URL, v1)
	if len(lv.Versions) != 1 || lv.Head != v1 || lv.Root != v1 || lv.Stream != nil {
		t.Fatalf("fresh lineage %+v", lv)
	}

	// Appends to unknown models and malformed batches are rejected without
	// touching any journal.
	if code, _ := appendDelta(t, ts.URL, "nope", [][]int32{{0}, {0}, {0}}, []float64{1}, nil); code != http.StatusNotFound {
		t.Fatalf("append to unknown model: %d", code)
	}
	if code, _ := appendDelta(t, ts.URL, v1, [][]int32{{0}, {0}, {0}}, []float64{1, 2}, nil); code != http.StatusBadRequest {
		t.Fatalf("length-mismatched append: %d", code)
	}
	if code, _ := appendDelta(t, ts.URL, v1, [][]int32{{99}, {0}, {0}}, []float64{1}, nil); code != http.StatusBadRequest {
		t.Fatalf("out-of-range append: %d", code)
	}

	// Streaming refits need duals, so non-aoadmm models cannot join.
	alsSpec := quickSpec(t, 52)
	alsSpec.Algo = "als"
	als := trainModel(t, ts.URL, alsSpec)
	if code, _ := appendDelta(t, ts.URL, als, [][]int32{{0}, {0}, {0}}, []float64{1}, nil); code != http.StatusBadRequest {
		t.Fatalf("append to als model: %d", code)
	}

	// A good batch lands with seq 1 and shows up as pending.
	inds, vals := deltaBatch(1)
	code, resp := appendDelta(t, ts.URL, v1, inds, vals, nil)
	if code != http.StatusAccepted {
		t.Fatalf("append: %d %v", code, resp)
	}
	if resp["seq"].(float64) != 1 || resp["pending_batches"].(float64) != 1 || resp["pending_nnz"].(float64) != 3 {
		t.Fatalf("append response %v", resp)
	}

	v2 := refitAndWait(t, ts.URL, v1, nil)
	if v2 == v1 {
		t.Fatalf("refit reused model id %s", v1)
	}

	// The chain is v1 -> v2, the head moved, and the journal shows nothing
	// pending.
	lv = getLineage(t, ts.URL, v1)
	if len(lv.Versions) != 2 || lv.Versions[0].ID != v1 || lv.Versions[1].ID != v2 || lv.Head != v2 {
		t.Fatalf("post-refit lineage %+v", lv)
	}
	if lv.Stream == nil || lv.Stream.AppliedSeq != 1 || lv.Stream.LatestSeq != 1 || lv.Stream.PendingBatches != 0 {
		t.Fatalf("post-refit stream state %+v", lv.Stream)
	}
	m2 := lv.Versions[1]
	if m2.Version != 2 || m2.ParentID != v1 || m2.RootID != v1 || m2.AsOfSeq != 1 ||
		m2.DeltaBatches != 1 || m2.DeltaNNZ != 3 || m2.Algo != "aoadmm" || m2.Constraint != "nonneg" {
		t.Fatalf("v2 meta %+v", m2)
	}

	// Metadata endpoint: the path names the exact version, ?version=latest
	// follows the chain, numeric specs address siblings from anywhere.
	var meta ModelMeta
	if code, raw := doJSON(t, http.MethodGet, ts.URL+"/models/"+v1, nil, &meta); code != http.StatusOK || meta.ID != v1 {
		t.Fatalf("GET v1: %d %s", code, raw)
	}
	if _, raw := doJSON(t, http.MethodGet, ts.URL+"/models/"+v1+"?version=latest", nil, &meta); meta.ID != v2 {
		t.Fatalf("GET v1?version=latest resolved %s: %s", meta.ID, raw)
	}
	if _, raw := doJSON(t, http.MethodGet, ts.URL+"/models/"+v2+"?version=1", nil, &meta); meta.ID != v1 {
		t.Fatalf("GET v2?version=1 resolved %s: %s", meta.ID, raw)
	}

	// Entry queries follow the head by default and pin with version=this.
	var entry struct {
		Model string `json:"model"`
	}
	if _, raw := doJSON(t, http.MethodGet, ts.URL+"/models/"+v1+"/entry?at=1,1,1", nil, &entry); entry.Model != v2 {
		t.Fatalf("entry followed %s, want head %s: %s", entry.Model, v2, raw)
	}
	if _, raw := doJSON(t, http.MethodGet, ts.URL+"/models/"+v1+"/entry?at=1,1,1&version=this", nil, &entry); entry.Model != v1 {
		t.Fatalf("entry?version=this served %s: %s", entry.Model, raw)
	}

	// Top-K version specs: default follows head, "v1"/"1" pin, bad specs 400.
	q := map[string]any{"anchors": map[string]int{"0": 1}, "target_mode": 1, "k": 3}
	if _, out, raw := queryTopK(t, ts.URL, v1, q); out.Model != v2 {
		t.Fatalf("topk default served %s: %s", out.Model, raw)
	}
	q["version"] = "v1"
	if _, out, raw := queryTopK(t, ts.URL, v1, q); out.Model != v1 {
		t.Fatalf("topk version=v1 served %s: %s", out.Model, raw)
	}
	q["version"] = "v0"
	if code, _, _ := queryTopK(t, ts.URL, v1, q); code != http.StatusBadRequest {
		t.Fatalf("topk version=v0: %d", code)
	}

	// Pinning: version="pinned" resolves the pinned version while one
	// exists, 404 after it is unpinned.
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/models/"+v1+"/pin", nil, &meta); code != http.StatusOK || !meta.Pinned {
		t.Fatalf("pin: %d %s", code, raw)
	}
	q["version"] = "pinned"
	if _, out, raw := queryTopK(t, ts.URL, v1, q); out.Model != v1 {
		t.Fatalf("topk version=pinned served %s: %s", out.Model, raw)
	}
	var unpinned ModelMeta
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/models/"+v1+"/unpin", nil, &unpinned); code != http.StatusOK || unpinned.Pinned {
		t.Fatalf("unpin: %d %s", code, raw)
	}
	if code, _, _ := queryTopK(t, ts.URL, v1, q); code != http.StatusNotFound {
		t.Fatalf("topk version=pinned with nothing pinned: %d", code)
	}

	// A refit with nothing pending is a 400, not a queued no-op job.
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/models/"+v1+"/refit", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("refit with no pending deltas: %d %s", code, raw)
	}

	// The stream metrics section and Prometheus export see all of it.
	var metrics struct {
		Stream struct {
			Lineages     int64 `json:"lineages"`
			Appends      int64 `json:"appends"`
			AppendNNZ    int64 `json:"append_nnz"`
			PendingNNZ   int64 `json:"pending_nnz"`
			KeepVersions int   `json:"keep_versions"`
			Triggers     struct {
				Manual int64 `json:"manual"`
			} `json:"refit_triggers"`
			RefitCommits  int64 `json:"refit_commits"`
			RefitFailures int64 `json:"refit_failures"`
		} `json:"stream"`
	}
	if code, raw := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &metrics); code != http.StatusOK {
		t.Fatalf("metrics: %d %s", code, raw)
	}
	st := metrics.Stream
	if st.Lineages != 1 || st.Appends != 1 || st.AppendNNZ != 3 || st.PendingNNZ != 0 ||
		st.KeepVersions != 3 || st.Triggers.Manual < 1 || st.RefitCommits != 1 || st.RefitFailures != 0 {
		t.Fatalf("stream metrics %+v", st)
	}
	_, prom := doJSON(t, http.MethodGet, ts.URL+"/metrics?format=prometheus", nil, nil)
	for _, want := range []string{
		"aoadmm_stream_lineages 1",
		"aoadmm_stream_refit_commits_total 1",
		`aoadmm_stream_refits_total{trigger="manual"}`,
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("prometheus export missing %q", want)
		}
	}
}

// TestStreamAppendAutoRefitNNZTrigger checks the policy engine end to end: a
// daemon configured with a -refit-nnz threshold refits on its own once the
// pending delta crosses it.
func TestStreamAppendAutoRefitNNZTrigger(t *testing.T) {
	_, ts := newStreamServer(t, t.TempDir(), func(c *Config) { c.RefitNNZ = 5 })
	v1 := trainModel(t, ts.URL, quickSpec(t, 53))

	// 3 nnz: below threshold, nothing moves.
	inds, vals := deltaBatch(2)
	code, resp := appendDelta(t, ts.URL, v1, inds, vals, nil)
	if code != http.StatusAccepted || resp["triggered"].(bool) {
		t.Fatalf("first append: %d %v", code, resp)
	}
	// 3 more crosses 5: the append reports the trigger and a refit lands
	// without any explicit request.
	inds, vals = deltaBatch(3)
	code, resp = appendDelta(t, ts.URL, v1, inds, vals, nil)
	if code != http.StatusAccepted || !resp["triggered"].(bool) {
		t.Fatalf("threshold append: %d %v", code, resp)
	}
	v2 := pollHead(t, ts.URL, v1, v1, 120*time.Second)
	lv := getLineage(t, ts.URL, v1)
	if len(lv.Versions) != 2 || lv.Versions[1].ID != v2 || lv.Versions[1].DeltaBatches != 2 {
		t.Fatalf("auto-refit lineage %+v", lv)
	}

	var metrics struct {
		Stream struct {
			Triggers struct {
				NNZ int64 `json:"nnz"`
			} `json:"refit_triggers"`
		} `json:"stream"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &metrics)
	if metrics.Stream.Triggers.NNZ < 1 {
		t.Fatalf("nnz trigger not counted: %+v", metrics.Stream)
	}
}

// TestStreamQCacheServesNewHeadAfterRefit is the cache-invalidation
// regression test: a follow-latest top-K answer cached against v1 must not
// survive the refit swap — the first query after the commit has to be served
// by v2.
func TestStreamQCacheServesNewHeadAfterRefit(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	v1 := trainModel(t, ts.URL, quickSpec(t, 54))

	q := map[string]any{"anchors": map[string]int{"0": 2}, "target_mode": 1, "k": 4}
	if _, out, _ := queryTopK(t, ts.URL, v1, q); out.Model != v1 || out.Cached {
		t.Fatalf("first query: model %s cached %v", out.Model, out.Cached)
	}
	if _, out, _ := queryTopK(t, ts.URL, v1, q); out.Model != v1 || !out.Cached {
		t.Fatalf("repeat query not served from cache: model %s cached %v", out.Model, out.Cached)
	}

	// Refit via the append-with-refit path (covers the inline trigger).
	inds, vals := deltaBatch(4)
	if code, resp := appendDelta(t, ts.URL, v1, inds, vals, map[string]any{"refit": true}); code != http.StatusAccepted {
		t.Fatalf("append+refit: %d %v", code, resp)
	}
	v2 := pollHead(t, ts.URL, v1, v1, 120*time.Second)

	// Same request, same path id: the resolved head changed, so the stale
	// v1 entry must not answer.
	if _, out, raw := queryTopK(t, ts.URL, v1, q); out.Model != v2 || out.Cached {
		t.Fatalf("post-refit query served %s (cached %v): %s", out.Model, out.Cached, raw)
	}
	// And the fresh v2 answer is itself cacheable.
	if _, out, _ := queryTopK(t, ts.URL, v1, q); out.Model != v2 || !out.Cached {
		t.Fatalf("post-refit repeat not cached under v2: %+v", out)
	}
	// Pinned v1 queries still work after the swap.
	q["version"] = "1"
	if _, out, _ := queryTopK(t, ts.URL, v1, q); out.Model != v1 {
		t.Fatalf("pinned v1 query served %s", out.Model)
	}
}

// TestStreamRetentionKeepsLastNAndPinned checks keep-last-N GC on refit
// commits: with -keep-versions=2, three refits leave the two newest versions
// plus the explicitly pinned root, and the middle version is gone from the
// registry and from disk.
func TestStreamRetentionKeepsLastNAndPinned(t *testing.T) {
	dataDir := t.TempDir()
	_, ts := newStreamServer(t, dataDir, func(c *Config) { c.KeepVersions = 2 })
	v1 := trainModel(t, ts.URL, quickSpec(t, 55))
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/models/"+v1+"/pin", nil, nil); code != http.StatusOK {
		t.Fatalf("pin: %d %s", code, raw)
	}

	ids := []string{v1}
	for i := 0; i < 3; i++ {
		inds, vals := deltaBatch(int32(5 + i))
		if code, resp := appendDelta(t, ts.URL, v1, inds, vals, nil); code != http.StatusAccepted {
			t.Fatalf("append %d: %d %v", i, code, resp)
		}
		ids = append(ids, refitAndWait(t, ts.URL, v1, nil))
	}
	v2, v3, v4 := ids[1], ids[2], ids[3]

	// v2 was neither head nor pinned when v4 committed: GC'd.
	if code, raw := doJSON(t, http.MethodGet, ts.URL+"/models/"+v2, nil, nil); code != http.StatusNotFound {
		t.Fatalf("GC'd v2 still served: %d %s", code, raw)
	}
	// Pinned v1 and the last two versions survive.
	for _, id := range []string{v1, v3, v4} {
		if code, raw := doJSON(t, http.MethodGet, ts.URL+"/models/"+id, nil, nil); code != http.StatusOK {
			t.Fatalf("retained %s: %d %s", id, code, raw)
		}
	}
	lv := getLineage(t, ts.URL, v1)
	if len(lv.Versions) != 3 || lv.Head != v4 {
		t.Fatalf("post-GC lineage %+v", lv)
	}
	if dirs, _ := filepath.Glob(filepath.Join(dataDir, "models", v2, "*")); len(dirs) != 0 {
		t.Fatalf("GC'd v2 left files behind: %v", dirs)
	}

	var metrics struct {
		Stream struct {
			VersionsGCed int64 `json:"versions_gced"`
		} `json:"stream"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &metrics)
	if metrics.Stream.VersionsGCed != 1 {
		t.Fatalf("versions_gced %d, want 1", metrics.Stream.VersionsGCed)
	}
}

// TestStreamRetentionKeepsUnpinnedRoot checks that keep-last-N GC never
// removes the lineage's root even when it is not pinned: its id names the
// lineage, so after four refits under -keep-versions=2 it must still answer
// latest top-K (served by the head), append, refit and lineage requests.
func TestStreamRetentionKeepsUnpinnedRoot(t *testing.T) {
	_, ts := newStreamServer(t, t.TempDir(), func(c *Config) { c.KeepVersions = 2 })
	root := trainModel(t, ts.URL, quickSpec(t, 58))

	ids := []string{root}
	for i := 0; i < 4; i++ {
		inds, vals := deltaBatch(int32(11 + i))
		if code, resp := appendDelta(t, ts.URL, root, inds, vals, nil); code != http.StatusAccepted {
			t.Fatalf("append %d: %d %v", i, code, resp)
		}
		ids = append(ids, refitAndWait(t, ts.URL, root, nil))
	}
	head := ids[4]

	// The middle versions are gone; the root and the newest two remain.
	for _, id := range ids[1:3] {
		if code, _ := doJSON(t, http.MethodGet, ts.URL+"/models/"+id, nil, nil); code != http.StatusNotFound {
			t.Fatalf("superseded %s not GC'd: %d", id, code)
		}
	}
	lv := getLineage(t, ts.URL, root)
	if lv.Head != head || len(lv.Versions) != 3 || lv.Versions[0].ID != root {
		t.Fatalf("post-GC lineage %+v", lv)
	}

	q := map[string]any{"anchors": map[string]int{"0": 1}, "target_mode": 1, "k": 3}
	if code, out, raw := queryTopK(t, ts.URL, root, q); code != http.StatusOK || out.Model != head {
		t.Fatalf("latest topk via root: %d served %q: %s", code, out.Model, raw)
	}
	inds, vals := deltaBatch(20)
	if code, resp := appendDelta(t, ts.URL, root, inds, vals, nil); code != http.StatusAccepted {
		t.Fatalf("append via root: %d %v", code, resp)
	}
	var v JobView
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/models/"+root+"/refit", nil, &v); code != http.StatusAccepted {
		t.Fatalf("refit via root: %d %s", code, raw)
	}
	pollJob(t, ts.URL, v.ID, JobDone, 120*time.Second)
}

// TestStreamFoldInConsistentAcrossRefit is the serving-consistency check: a
// user folded in on v1 keeps getting the same recommendations (to 1e-6)
// after their own interactions stream in and a refit produces v2. The data
// is an exactly-rank-2 dense tensor with the user's slice held out of the
// base: both the held-out tensor (the true model with that factor row
// zeroed) and the post-delta tensor are exactly rank 2, so v1 and v2
// converge to equivalent factors and the fold-in scores — basis-free
// predictions — must agree.
func TestStreamFoldInConsistentAcrossRefit(t *testing.T) {
	dims := []int{10, 9, 8}
	const rank = 2
	_, planted, err := tensor.PlantedLowRank(tensor.GenOptions{Dims: dims, NNZ: 1, Rank: rank, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	at := func(i, j, k int) float64 {
		var v float64
		for r := 0; r < rank; r++ {
			v += planted[0][i*rank+r] * planted[1][j*rank+r] * planted[2][k*rank+r]
		}
		return v
	}
	// The "user" is mode-0 row 0: their slice is held out of the base
	// training tensor and arrives later as the streamed delta.
	base := tensor.NewCOO(dims, 0)
	dInds := make([][]int32, 3)
	var dVals []float64
	var obs []map[string]any
	for i := 0; i < dims[0]; i++ {
		for j := 0; j < dims[1]; j++ {
			for k := 0; k < dims[2]; k++ {
				v := at(i, j, k)
				if i == 0 {
					dInds[0] = append(dInds[0], 0)
					dInds[1] = append(dInds[1], int32(j))
					dInds[2] = append(dInds[2], int32(k))
					dVals = append(dVals, v)
					obs = append(obs, map[string]any{
						"coords": map[string]int{"1": j, "2": k},
						"value":  v,
					})
					continue
				}
				base.Inds[0] = append(base.Inds[0], int32(i))
				base.Inds[1] = append(base.Inds[1], int32(j))
				base.Inds[2] = append(base.Inds[2], int32(k))
				base.Vals = append(base.Vals, v)
			}
		}
	}
	path := filepath.Join(t.TempDir(), "base.tns")
	if err := tensor.SaveTNSFile(path, base); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, t.TempDir())
	v1 := trainModel(t, ts.URL, JobSpec{
		TensorPath: path, Rank: rank, Constraint: "none",
		MaxOuterIters: 2000, Tol: 1e-14, Seed: 1, Threads: 1,
	})

	foldReq := map[string]any{
		"mode": 0, "observations": obs,
		"max_iters": 500, "tol": 1e-12,
		"target_mode": 1, "k": 5,
	}
	type foldResp struct {
		Model   string `json:"model"`
		Matches []struct {
			Row   int     `json:"row"`
			Score float64 `json:"score"`
		} `json:"matches"`
	}
	var before foldResp
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/models/"+v1+"/foldin", foldReq, &before); code != http.StatusOK {
		t.Fatalf("foldin on v1: %d %s", code, raw)
	}
	if before.Model != v1 || len(before.Matches) != 5 {
		t.Fatalf("v1 foldin %+v", before)
	}

	// Stream the user's interactions and refit to the same accuracy.
	if code, resp := appendDelta(t, ts.URL, v1, dInds, dVals, nil); code != http.StatusAccepted {
		t.Fatalf("append: %d %v", code, resp)
	}
	v2 := refitAndWait(t, ts.URL, v1, map[string]any{"max_outer": 2000, "tol": 1e-14})

	var after foldResp
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/models/"+v1+"/foldin", foldReq, &after); code != http.StatusOK {
		t.Fatalf("foldin after refit: %d %s", code, raw)
	}
	if after.Model != v2 {
		t.Fatalf("post-refit foldin served %s, want head %s", after.Model, v2)
	}

	beforeScores := map[int]float64{}
	for _, m := range before.Matches {
		beforeScores[m.Row] = m.Score
	}
	for _, m := range after.Matches {
		s1, ok := beforeScores[m.Row]
		if !ok {
			t.Errorf("row %d recommended by v2 but not v1", m.Row)
			continue
		}
		if d := absDiff64(s1, m.Score); d > 1e-6 {
			t.Errorf("row %d score drifted %g across the refit (v1 %.9g, v2 %.9g)", m.Row, d, s1, m.Score)
		}
	}
	if before.Matches[0].Row != after.Matches[0].Row {
		t.Errorf("top recommendation changed across refit: %d -> %d", before.Matches[0].Row, after.Matches[0].Row)
	}
}

func absDiff64(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// newStreamChaosManager mirrors newChaosManager but wires a stream store, so
// refit jobs can run and the recovery path can reconcile the delta journal.
func newStreamChaosManager(t *testing.T, dataDir string, inj *faults.Injector, cfg ManagerConfig) (*Manager, *stream.Store) {
	t.Helper()
	st, swarns, err := stream.Open(stream.Config{Dir: filepath.Join(dataDir, "stream"), Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range swarns {
		t.Logf("stream warning: %v", w)
	}
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
	cfg.Stream = st
	m := NewManager(reg, dataDir, jnl, recovered, cfg)
	t.Cleanup(func() {
		m.Shutdown(10 * time.Second)
		st.Close()
	})
	return m, st
}

// seedChaosLineage trains a root model and lands one delta batch, returning
// the root id ready for a refit.
func seedChaosLineage(t *testing.T, m *Manager, st *stream.Store, seed int64) string {
	t.Helper()
	spec := quickSpec(t, seed)
	v, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := pollManagerJob(t, m, v.ID, JobDone, 120*time.Second)
	root := done.ModelID
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Ensure(root, []int{12, 10, 8}, 0, raw); err != nil {
		t.Fatal(err)
	}
	inds, vals := deltaBatch(9)
	if _, err := st.Append(root, inds, vals); err != nil {
		t.Fatal(err)
	}
	return root
}

// TestStreamChaosRefitCrashBeforeCommit: a kill mid-refit, before the new
// version registers, must leave v1 serving; recovery re-runs the refit and
// only then does the head move.
func TestStreamChaosRefitCrashBeforeCommit(t *testing.T) {
	dataDir := t.TempDir()
	inj := faults.New()
	m, st := newStreamChaosManager(t, dataDir, inj, ManagerConfig{Workers: 1})
	root := seedChaosLineage(t, m, st, 61)

	inj.ArmCrash(faults.CrashBeforeCommit)
	v, err := m.Submit(JobSpec{RefitModelID: root})
	if err != nil {
		t.Fatal(err)
	}
	waitCrash(t, m, 60*time.Second)
	if m.reg.Len() != 1 {
		t.Fatalf("refit model registered before commit crash: %d models", m.reg.Len())
	}
	if head, _ := m.reg.Head(root); head.Meta.ID != root {
		t.Fatalf("head moved off %s before commit", root)
	}

	m2, st2 := newStreamChaosManager(t, dataDir, faults.New(), ManagerConfig{Workers: 1})
	rec := m2.Recovery()
	if rec.Resumed+rec.Restarted != 1 || rec.Adopted != 0 {
		t.Fatalf("recovery %+v", rec)
	}
	done := pollManagerJob(t, m2, v.ID, JobDone, 120*time.Second)
	if done.ModelID == "" || done.ModelID == root {
		t.Fatalf("recovered refit produced %q", done.ModelID)
	}
	head, ok := m2.reg.Head(root)
	if !ok || head.Meta.ID != done.ModelID || head.Meta.Version != 2 || head.Meta.ParentID != root {
		t.Fatalf("post-recovery head %+v", head.Meta)
	}
	snap, err := st2.Snapshot(root)
	if err != nil {
		t.Fatal(err)
	}
	if snap.PendingBatches != 0 || snap.AppliedSeq != snap.LatestSeq {
		t.Fatalf("delta journal not reconciled after recovery: %+v", snap)
	}
}

// TestStreamChaosRefitCrashAfterCommitAdopts: a kill after the new version
// registered but before the journal's terminal record must not re-run the
// refit or duplicate the version — recovery adopts v2 and the idempotent
// stream commit clears the pending window.
func TestStreamChaosRefitCrashAfterCommitAdopts(t *testing.T) {
	dataDir := t.TempDir()
	inj := faults.New()
	m, st := newStreamChaosManager(t, dataDir, inj, ManagerConfig{Workers: 1})
	root := seedChaosLineage(t, m, st, 62)

	inj.ArmCrash(faults.CrashAfterCommit)
	v, err := m.Submit(JobSpec{RefitModelID: root})
	if err != nil {
		t.Fatal(err)
	}
	waitCrash(t, m, 60*time.Second)
	if m.reg.Len() != 2 {
		t.Fatalf("commit did not land before crash: %d models", m.reg.Len())
	}

	m2, st2 := newStreamChaosManager(t, dataDir, faults.New(), ManagerConfig{Workers: 1})
	rec := m2.Recovery()
	if rec.Adopted != 1 || rec.Resumed+rec.Restarted+rec.Requeued != 0 {
		t.Fatalf("recovery %+v", rec)
	}
	j, ok := m2.Get(v.ID)
	if !ok {
		t.Fatalf("refit job %s lost", v.ID)
	}
	got := j.View()
	if got.Status != string(JobDone) || got.ModelID == "" {
		t.Fatalf("adopted refit job %+v", got)
	}
	if m2.reg.Len() != 2 {
		t.Fatalf("version duplicated across the crash: %d models", m2.reg.Len())
	}
	head, ok := m2.reg.Head(root)
	if !ok || head.Meta.ID != got.ModelID || head.Meta.Version != 2 {
		t.Fatalf("adopted head %+v", head.Meta)
	}
	// The adoption re-ran the stream commit (idempotently): nothing pending.
	snap, err := st2.Snapshot(root)
	if err != nil {
		t.Fatal(err)
	}
	if snap.PendingBatches != 0 || snap.AppliedSeq != snap.LatestSeq {
		t.Fatalf("delta journal not reconciled by adoption: %+v", snap)
	}
}

// TestStreamDriftMetricsAndTrigger covers the factor-drift surface end to
// end: a committed refit records permutation/scale-aligned per-mode drift in
// the new head's meta and in the lineage's durable drift history, the drift
// shows up in both metrics views, and with -refit-drift set a hot lineage
// refits eagerly on the very next append.
func TestStreamDriftMetricsAndTrigger(t *testing.T) {
	_, ts := newStreamServer(t, t.TempDir(), func(c *Config) { c.RefitDrift = 1e-9 })
	v1 := trainModel(t, ts.URL, quickSpec(t, 57))

	// A cold lineage has no recorded drift yet, so the first append must not
	// drift-trigger regardless of the threshold.
	inds, vals := deltaBatch(2)
	code, resp := appendDelta(t, ts.URL, v1, inds, vals, nil)
	if code != http.StatusAccepted {
		t.Fatalf("first append: %d %v", code, resp)
	}
	if hot, _ := resp["drift_triggered"].(bool); hot {
		t.Fatalf("drift trigger fired before any refit recorded drift: %v", resp)
	}
	v2 := refitAndWait(t, ts.URL, v1, nil)

	// The committed refit carries per-mode aligned drift in [0,1] on its meta
	// and appends one entry to the lineage's durable drift history.
	lv := getLineage(t, ts.URL, v1)
	if len(lv.Versions) != 2 || lv.Versions[1].ID != v2 {
		t.Fatalf("lineage after refit %+v", lv)
	}
	drift := lv.Versions[1].Drift
	if len(drift) != 3 {
		t.Fatalf("v2 meta drift: want 3 modes, got %v", drift)
	}
	for m, d := range drift {
		if d < 0 || d > 1 {
			t.Fatalf("mode %d drift %v outside [0,1]", m, d)
		}
	}
	if lv.Stream == nil || len(lv.Stream.Drift) != 1 {
		t.Fatalf("lineage drift history %+v", lv.Stream)
	}
	if h := lv.Stream.Drift[0]; h.Version != v2 || len(h.PerMode) != 3 {
		t.Fatalf("drift history entry %+v (head %s)", h, v2)
	}

	// Both metrics views expose the drift series.
	_, prom := doJSON(t, http.MethodGet, ts.URL+"/metrics?format=prometheus", nil, nil)
	for _, want := range []string{
		"aoadmm_stream_drift_threshold",
		`aoadmm_stream_drift{mode="0"`,
		`aoadmm_stream_refits_total{trigger="drift"} 0`,
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("prometheus export missing %q", want)
		}
	}

	// Any real refit drifts by far more than 1e-9, so the lineage is now hot:
	// the next append refits eagerly instead of waiting for lazy policies.
	inds, vals = deltaBatch(5)
	code, resp = appendDelta(t, ts.URL, v1, inds, vals, nil)
	if code != http.StatusAccepted {
		t.Fatalf("hot append: %d %v", code, resp)
	}
	if hot, _ := resp["drift_triggered"].(bool); !hot {
		t.Fatalf("hot lineage did not drift-trigger: %v", resp)
	}
	v3 := pollHead(t, ts.URL, v1, v2, 120*time.Second)

	var metrics struct {
		Stream struct {
			Triggers struct {
				Drift int64 `json:"drift"`
			} `json:"refit_triggers"`
			DriftThreshold float64 `json:"drift_threshold"`
		} `json:"stream"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &metrics)
	if metrics.Stream.Triggers.Drift < 1 || metrics.Stream.DriftThreshold != 1e-9 {
		t.Fatalf("drift trigger not counted: %+v", metrics.Stream)
	}
	_, prom = doJSON(t, http.MethodGet, ts.URL+"/metrics?format=prometheus", nil, nil)
	if !strings.Contains(string(prom), `aoadmm_stream_refits_total{trigger="drift"} 1`) {
		t.Errorf("prometheus export missing drift trigger count:\n%s", prom)
	}

	lv = getLineage(t, ts.URL, v1)
	if lv.Head != v3 || lv.Stream == nil || len(lv.Stream.Drift) != 2 || lv.Stream.Drift[1].Version != v3 {
		t.Fatalf("lineage after drift refit %+v", lv)
	}
}
