package serve

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aoadmm/internal/distnet"
	"aoadmm/internal/ooc"
	"aoadmm/internal/tensor"
)

// distTestShards writes a random tensor both as a shard directory (for the
// distributed job; workers share the daemon's filesystem) and as a .tns file
// (for the in-core single-node reference).
func distTestShards(t *testing.T, dims []int, nnz int, seed int64) (shardDir, tnsPath string) {
	t.Helper()
	x, err := tensor.Uniform(tensor.GenOptions{Dims: dims, NNZ: nnz, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	base := t.TempDir()
	shardDir = base + "/x.aoshard"
	st, err := ooc.ConvertCOO(x, shardDir, ooc.ConvertOptions{TargetShardBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// Save the store's canonical (externally sorted) entry order, not the
	// generator's: MTTKRP float summation follows entry order, so the
	// in-core reference must consume the same ordering the workers stream.
	canon, err := st.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	tnsPath = base + "/x.tns"
	if err := tensor.SaveTNSFile(tnsPath, canon); err != nil {
		t.Fatal(err)
	}
	return shardDir, tnsPath
}

// startDistServer brings up a coordinator, n in-process workers, and a serve
// daemon wired to the coordinator.
func startDistServer(t *testing.T, n int) (*Server, *httptest.Server, *distnet.Coordinator) {
	t.Helper()
	c, err := distnet.StartLocal(n,
		distnet.Config{HeartbeatInterval: 50 * time.Millisecond, HeartbeatTimeout: 2 * time.Second},
		distnet.WorkerConfig{RetryInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	s, err := New(Config{
		DataDir: t.TempDir(), Workers: 2, QueueCap: 8,
		RequestTimeout: 30 * time.Second, Dist: c.Coord,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(10 * time.Second)
	})
	return s, ts, c.Coord
}

// TestServeDistributedJob runs a dist_workers job through the full HTTP
// surface and checks it against the identical single-node (OOC) job: same
// shard dir, same seed, same fit to well under the acceptance tolerance.
func TestServeDistributedJob(t *testing.T) {
	_, ts, _ := startDistServer(t, 2)
	// Dims divide evenly by 2 workers into BlockSize-5 multiples, so the
	// distributed block grid matches the single-node one exactly.
	shardDir, tnsPath := distTestShards(t, []int{60, 90, 120}, 6000, 41)

	// Tol pinned far below reach and Threads at 1 so both runs execute
	// exactly MaxOuterIters identical iterations.
	spec := JobSpec{
		TensorPath: shardDir, Rank: 4, Constraint: "nonneg",
		MaxOuterIters: 8, Tol: 1e-300, Threads: 1, Seed: 7, BlockSize: 5,
		Name: "dist-e2e",
	}

	// Single-node in-core reference on the same tensor: the blocked engine's
	// arithmetic is block-grid-deterministic, so the distributed fit must
	// agree to float round-off, far under the 1e-6 acceptance bound.
	refSpec := spec
	refSpec.TensorPath = tnsPath
	var ref JobView
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/jobs", refSpec, &ref); code != http.StatusAccepted {
		t.Fatalf("submit reference: %d %s", code, raw)
	}
	refDone := pollJob(t, ts.URL, ref.ID, JobDone, 60*time.Second)

	// Even placement keeps worker boundaries on BlockSize multiples, so the
	// distributed block grid — and therefore the arithmetic — is identical
	// to single-node. (Shard placement cuts at shard runs instead; its
	// bitwise parity with a reference loop is covered in the distnet
	// package tests.)
	distSpec := spec
	distSpec.DistWorkers = 2
	distSpec.Placement = distnet.PlacementEven
	var dj JobView
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/jobs", distSpec, &dj); code != http.StatusAccepted {
		t.Fatalf("submit dist: %d %s", code, raw)
	}
	distDone := pollJob(t, ts.URL, dj.ID, JobDone, 60*time.Second)

	if distDone.ModelID == "" || distDone.OuterIters != 8 {
		t.Fatalf("dist job incomplete: %+v", distDone)
	}
	if diff := math.Abs(distDone.RelErr - refDone.RelErr); diff > 1e-9 {
		t.Fatalf("dist fit %v vs single-node %v (diff %v)", distDone.RelErr, refDone.RelErr, diff)
	}

	// The /metrics dist section reflects the run.
	var metrics struct {
		Dist struct {
			Enabled     bool  `json:"enabled"`
			WorkersLive int   `json:"workers_live"`
			JobsTotal   int64 `json:"jobs_total"`
			Collectives struct {
				MTTKRPBytes int64 `json:"mttkrp_bytes"`
				ADMMBytes   int64 `json:"admm_bytes"`
				Messages    int64 `json:"messages"`
			} `json:"collectives"`
			WireBytes struct {
				Sent     int64 `json:"sent"`
				Received int64 `json:"received"`
			} `json:"wire_bytes"`
		} `json:"dist"`
	}
	if code, raw := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &metrics); code != http.StatusOK {
		t.Fatalf("metrics: %d %s", code, raw)
	}
	d := metrics.Dist
	switch {
	case !d.Enabled:
		t.Fatal("dist section reports disabled on a coordinator daemon")
	case d.WorkersLive != 2:
		t.Fatalf("workers_live = %d, want 2", d.WorkersLive)
	case d.JobsTotal != 1:
		t.Fatalf("jobs_total = %d, want 1", d.JobsTotal)
	case d.Collectives.MTTKRPBytes == 0 || d.Collectives.Messages == 0:
		t.Fatalf("collective counters empty: %+v", d.Collectives)
	case d.Collectives.ADMMBytes != 0:
		t.Fatalf("inner ADMM moved %d bytes, want 0", d.Collectives.ADMMBytes)
	case d.WireBytes.Sent == 0 || d.WireBytes.Received == 0:
		t.Fatalf("wire byte counters empty: %+v", d.WireBytes)
	}

	// Prometheus exposition carries the same counters.
	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		"aoadmm_dist_workers_live 2",
		"aoadmm_dist_jobs_total 1",
		`aoadmm_dist_collective_bytes_total{collective="admm"} 0`,
		`aoadmm_dist_wire_bytes_total{direction="sent"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

// TestServeDistRejectedWithoutCoordinator checks a standalone daemon fails a
// dist_workers spec at submission, and that its dist metrics read as zeros.
func TestServeDistRejectedWithoutCoordinator(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	shardDir, _ := distTestShards(t, []int{30, 30, 30}, 500, 5)
	var out map[string]any
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/jobs", JobSpec{
		TensorPath: shardDir, Rank: 3, MaxOuterIters: 2, DistWorkers: 2,
	}, &out)
	if code != http.StatusBadRequest || !strings.Contains(string(raw), "coordinator") {
		t.Fatalf("standalone daemon accepted dist job: %d %s", code, raw)
	}

	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "aoadmm_dist_workers_live 0") {
		t.Error("standalone exposition missing zeroed aoadmm_dist_workers_live")
	}
}
