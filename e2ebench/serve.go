package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aoadmm"
	"aoadmm/internal/kruskal"
	"aoadmm/internal/obs"
	"aoadmm/internal/serve"
	"aoadmm/internal/stats"
)

// serve-amazon's traffic. The open-loop top-K rate is about an eighth of the
// closed-loop capacity measured on the two-core host (about 16k/s), so the
// open loop measures latency, not overload.
const (
	serveRank      = 32
	serveIters     = 10
	refitIters     = 5
	topKRate       = 2000.0 // requests/s, open loop
	foldInRate     = 150.0
	appendRate     = 10.0
	appendNNZ      = 1000
	foldInObs      = 20
	topKK          = 10
	anchorSkew     = 1.2 // Zipf exponent of query anchors: the 1024-entry result cache partly hits
	loadConns      = 2
	checkEvery     = 100 // one top-K in this many is checked against a brute-force scan
	requestTimeout = 10 * time.Second
	// closedQueriesPerSec sizes the closed loop's distinct query stream.
	closedQueriesPerSec = 40000
)

// Request kinds of the open-loop schedule.
const (
	kindTopK = iota
	kindFoldIn
	kindAppend
)

var kindNames = []string{"topk", "foldin", "append"}

// Phase shares of the run budget: open-loop reads, closed-loop capacity,
// then open-loop reads beside appends and back-to-back refits. The write
// phase is the longest so a run holds at least two refits.
const (
	readShare   = 0.35
	closedShare = 0.10
	writeShare  = 0.55
)

// serveSetupReps is how many times serve-amazon trains its model: fewer
// than setupReps, since one training takes about two seconds.
const serveSetupReps = 3

// materializeLog is a slog handler that keeps, per job, the time the daemon
// logged that a refit's input had been materialized: the boundary between
// the refit's materialization and its solve, taken from output the daemon
// already produces.
type materializeLog struct {
	mu sync.Mutex
	at map[string]time.Time
}

func (h *materializeLog) Enabled(context.Context, slog.Level) bool { return true }

func (h *materializeLog) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "refit input materialized" {
		return nil
	}
	r.Attrs(func(a slog.Attr) bool {
		if a.Key != "job" {
			return true
		}
		h.mu.Lock()
		h.at[a.Value.String()] = r.Time
		h.mu.Unlock()
		return false
	})
	return nil
}

func (h *materializeLog) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *materializeLog) WithGroup(string) slog.Handler      { return h }

func (h *materializeLog) get(job string) (time.Time, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t, ok := h.at[job]
	return t, ok
}

// daemon is the serve.Server under test behind a loopback HTTP listener,
// with the load clients (loadConns connections) and one control connection
// for jobs, refits and scrapes.
type daemon struct {
	srv     *serve.Server
	hs      *http.Server
	base    string
	load    *http.Client
	control *http.Client
	mat     *materializeLog
	served  chan error
}

func startDaemon(dataDir string) (*daemon, error) {
	mat := &materializeLog{at: map[string]time.Time{}}
	srv, err := serve.New(serve.Config{DataDir: dataDir, Logger: slog.New(mat)})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(time.Second)
		return nil, err
	}
	d := &daemon{
		srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(),
		load: newClient(loadConns), control: newClient(1), mat: mat, served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		},
	}
}

// stop closes the listener and connections, waits for the serve loop, and
// drains the job manager.
func (d *daemon) stop() {
	d.load.CloseIdleConnections()
	d.control.CloseIdleConnections()
	d.hs.Close()
	<-d.served
	d.srv.Shutdown(10 * time.Second)
}

// call sends one JSON request and returns the status and body; a transport
// error or timeout is returned as err.
func call(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// callOK is call that also fails on a non-2xx status and decodes the body
// into out when out is non-nil.
func callOK(c *http.Client, method, url string, body []byte, out any) error {
	code, raw, err := call(c, method, url, body)
	if err != nil {
		return err
	}
	if code/100 != 2 {
		return fmt.Errorf("%s %s: %d %s", method, url, code, bytes.TrimSpace(raw))
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}

// awaitJob polls a job until it finishes; anything but "done" is an error.
func (d *daemon) awaitJob(id string) (serve.JobView, error) {
	for {
		var v serve.JobView
		if err := callOK(d.control, http.MethodGet, d.base+"/jobs/"+id, nil, &v); err != nil {
			return v, err
		}
		switch v.Status {
		case "done":
			return v, nil
		case "failed", "canceled":
			return v, fmt.Errorf("job %s %s: %s", id, v.Status, v.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

type lineage struct {
	Head     string            `json:"head"`
	Versions []serve.ModelMeta `json:"versions"`
}

func (l lineage) headVersion() int {
	for _, v := range l.Versions {
		if v.ID == l.Head {
			return v.Version
		}
	}
	return 0
}

func (d *daemon) lineage(id string) (lineage, error) {
	var l lineage
	err := callOK(d.control, http.MethodGet, d.base+"/models/"+id+"/lineage", nil, &l)
	return l, err
}

// daemonMetrics is the part of GET /metrics the benchmark reads.
type daemonMetrics struct {
	Daemon struct {
		QueryLatency stats.LatencySnapshot `json:"query_latency"`
		TopKCache    struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"topk_cache"`
		TopKBatch struct {
			Batches        int64 `json:"batches"`
			BatchedQueries int64 `json:"batched_queries"`
		} `json:"topk_batch"`
		TopKIndex struct {
			Scanned int64 `json:"clusters_scanned"`
			Pruned  int64 `json:"clusters_pruned"`
		} `json:"topk_index"`
	} `json:"daemon"`
}

func (d *daemon) scrape() (daemonMetrics, error) {
	var m daemonMetrics
	err := callOK(d.control, http.MethodGet, d.base+"/metrics", nil, &m)
	return m, err
}

// serverP50 estimates the median server-side query latency between two
// scrapes from the delta of the daemon's cumulative histogram, at bucket
// resolution (each bucket's upper bound). A snapshot lists buckets only up
// to its highest non-empty one, so before may be the shorter table.
func serverP50(before, after stats.LatencySnapshot) float64 {
	n := after.Count - before.Count
	for i, b := range after.Buckets {
		prior := before.Count
		if i < len(before.Buckets) {
			prior = before.Buckets[i].Count
		}
		if n > 0 && 2*(b.Count-prior) >= n && b.LeSeconds > 0 {
			return b.LeSeconds * 1e3
		}
	}
	return 0
}

// traffic is serve-amazon's pre-built request stream: JSON bodies built
// from the seed before any timing starts.
type traffic struct {
	topK, foldIn, appends [][]byte
	anchors               []map[int]int // per top-K body
}

func buildTraffic(dims []int, seed int64, nTopK, nFoldIn, nAppend int) (*traffic, error) {
	rng := rand.New(rand.NewSource(seed))
	z0 := rand.NewZipf(rng, anchorSkew, 1, uint64(dims[0]-1))
	z2 := rand.NewZipf(rng, anchorSkew, 1, uint64(dims[2]-1))
	t := &traffic{}
	for i := 0; i < nTopK; i++ {
		a := map[int]int{0: int(z0.Uint64()), 2: int(z2.Uint64())}
		body, err := json.Marshal(map[string]any{
			"anchors":     map[string]int{"0": a[0], "2": a[2]},
			"target_mode": 1,
			"k":           topKK,
		})
		if err != nil {
			return nil, err
		}
		t.topK = append(t.topK, body)
		t.anchors = append(t.anchors, a)
	}
	type obsJSON struct {
		Coords map[string]int `json:"coords"`
		Value  float64        `json:"value"`
	}
	for i := 0; i < nFoldIn; i++ {
		obs := make([]obsJSON, foldInObs)
		for o := range obs {
			obs[o] = obsJSON{Coords: map[string]int{"1": rng.Intn(dims[1]), "2": rng.Intn(dims[2])}, Value: 1 - rng.Float64()}
		}
		body, err := json.Marshal(map[string]any{"mode": 0, "observations": obs})
		if err != nil {
			return nil, err
		}
		t.foldIn = append(t.foldIn, body)
	}
	for i := 0; i < nAppend; i++ {
		inds := make([][]int32, len(dims))
		for m := range inds {
			inds[m] = make([]int32, appendNNZ)
			for p := range inds[m] {
				inds[m][p] = int32(rng.Intn(dims[m]))
			}
		}
		vals := make([]float64, appendNNZ)
		for p := range vals {
			vals[p] = 1 - rng.Float64()
		}
		body, err := json.Marshal(map[string]any{"inds": inds, "vals": vals})
		if err != nil {
			return nil, err
		}
		t.appends = append(t.appends, body)
	}
	return t, nil
}

// topKCheck is a top-K answer kept for verification against a brute-force
// scan of the model that served it.
type topKCheck struct {
	model   *kruskal.Tensor
	id      string
	anchors map[int]int
	matches []kruskal.Match
}

type topKResponse struct {
	Model   string          `json:"model"`
	Matches []kruskal.Match `json:"matches"`
}

// loadRun drives one open-loop phase and keeps what the checks need.
type loadRun struct {
	d      *daemon
	rc     *runCtx
	tr     *traffic
	model  string
	phase  string
	mu     sync.Mutex
	checks []topKCheck
	rows   [][]byte // fold-in response bodies
	// appendsOK counts acknowledged appends; the refit loop waits on it so
	// every refit has pending data.
	appendsOK atomic.Int64
}

func (l *loadRun) send(conn int, a arrival) error {
	var url string
	var body []byte
	switch a.kind {
	case kindTopK:
		url, body = "/models/"+l.model+"/topk", l.tr.topK[a.i]
	case kindFoldIn:
		url, body = "/models/"+l.model+"/foldin", l.tr.foldIn[a.i]
	default:
		url, body = "/models/"+l.model+"/append", l.tr.appends[a.i]
	}
	start := time.Now()
	code, raw, err := call(l.d.load, http.MethodPost, l.d.base+url, body)
	l.rc.tracer.Emit("http", kindNames[a.kind], stats.ModeNone, conn, int64(a.i), start, time.Since(start))
	if err == nil && code/100 != 2 {
		err = fmt.Errorf("%s: %d %s", kindNames[a.kind], code, bytes.TrimSpace(raw))
	}
	if err != nil {
		return err
	}
	switch {
	case a.kind == kindAppend:
		l.appendsOK.Add(1)
	case a.kind == kindFoldIn:
		l.mu.Lock()
		l.rows = append(l.rows, raw)
		l.mu.Unlock()
	case a.i%checkEvery == 0:
		// Pin the serving model now: a later refit may retire it.
		var resp topKResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			return err
		}
		m, ok := l.d.srv.Registry().Get(resp.Model)
		if !ok {
			return fmt.Errorf("top-K answered by unknown model %q", resp.Model)
		}
		l.mu.Lock()
		l.checks = append(l.checks, topKCheck{model: m.K, id: resp.Model, anchors: l.tr.anchors[a.i], matches: resp.Matches})
		l.mu.Unlock()
	}
	return nil
}

// verify checks the phase's outputs: sampled top-K answers equal a
// brute-force scan of the serving model, and every folded-in row is finite
// and feasible for the non-negative constraint.
func (l *loadRun) verify() {
	for _, c := range l.checks {
		want, err := c.model.TopK(kruskal.Query{Anchors: c.anchors, TargetMode: 1, K: topKK, Threads: 1})
		l.rc.check(err == nil && matchesEqual(c.matches, want),
			"%s phase: top-K on %s anchors %v = %v, brute-force scan %v (err %v)", l.phase, c.id, c.anchors, c.matches, want, err)
	}
	for _, raw := range l.rows {
		var resp struct {
			Row []float64 `json:"row"`
		}
		err := json.Unmarshal(raw, &resp)
		l.rc.check(err == nil && len(resp.Row) == serveRank && rowFeasible(resp.Row),
			"%s phase: fold-in row infeasible or malformed: %s", l.phase, raw)
	}
}

func matchesEqual(a, b []kruskal.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// countRequests records every request as an operation: a transport error,
// timeout or non-2xx status is a failure.
func countRequests(rc *runCtx, phase string, samples []sample) {
	for _, s := range samples {
		rc.check(s.err == nil, "%s phase %s request: %v", phase, kindNames[s.kind], s.err)
	}
}

// latencies returns the from-due-time latencies of one kind's requests, in
// milliseconds.
func latencies(samples []sample, kind int) []float64 {
	var out []float64
	for _, s := range samples {
		if s.kind == kind {
			out = append(out, float64(s.latency())/1e6)
		}
	}
	return out
}

// refitCycle is one measured refit: the POST until the new head answers a
// query, split at the daemon's own job timestamps.
type refitCycle struct {
	total, queue, materialize, fit, swap time.Duration
	relErr                               float64
}

// refit runs one explicit refit of the lineage and checks that it advanced
// the head by exactly one version.
func (d *daemon) refit(rc *runCtx, root string, probe []byte) (refitCycle, error) {
	prev, err := d.lineage(root)
	if err != nil {
		return refitCycle{}, err
	}
	start := time.Now()
	var job serve.JobView
	body := []byte(fmt.Sprintf(`{"max_outer":%d}`, refitIters))
	if err := callOK(d.control, http.MethodPost, d.base+"/models/"+root+"/refit", body, &job); err != nil {
		return refitCycle{}, err
	}
	done, err := d.awaitJob(job.ID)
	if err != nil {
		return refitCycle{}, err
	}
	// Fresh means a default ("latest") query is answered by the new version.
	for {
		var resp topKResponse
		if err := callOK(d.control, http.MethodPost, d.base+"/models/"+root+"/topk", probe, &resp); err != nil {
			return refitCycle{}, err
		}
		if resp.Model == done.ModelID {
			break
		}
	}
	end := time.Now()
	rc.tracer.Emit("bench", "refit", stats.ModeNone, obs.TIDAux, int64(prev.headVersion()), start, end.Sub(start))

	after, err := d.lineage(root)
	if err != nil {
		return refitCycle{}, err
	}
	rc.check(after.Head == done.ModelID && after.headVersion() == prev.headVersion()+1,
		"refit %s moved the head from %s (v%d) to %s (v%d), want %s at v%d",
		job.ID, prev.Head, prev.headVersion(), after.Head, after.headVersion(), done.ModelID, prev.headVersion()+1)

	at := func(ns int64) time.Time { return time.Unix(0, ns) }
	c := refitCycle{
		total:  end.Sub(start),
		queue:  at(done.StartedUnixNs).Sub(at(done.SubmittedUnixNs)),
		swap:   end.Sub(at(done.FinishedUnixNs)),
		relErr: done.RelErr,
	}
	if mt, ok := d.mat.get(job.ID); ok {
		c.materialize = mt.Sub(at(done.StartedUnixNs))
		c.fit = at(done.FinishedUnixNs).Sub(mt)
	}
	return c, nil
}

// runServeAmazon serves a model of the amazon proxy and drives it over HTTP.
func runServeAmazon(rc *runCtx) error {
	x, err := input("amazon", rc.scale, rc.seed)
	if err != nil {
		return err
	}
	path := filepath.Join(rc.work, "amazon.aotn")
	if err := aoadmm.SaveTensorBinary(path, x); err != nil {
		return err
	}
	d, err := startDaemon(filepath.Join(rc.work, "data"))
	if err != nil {
		return err
	}
	defer d.stop()

	// Set-up: train the served model through POST /jobs, serveSetupReps
	// times; the last model is the one served.
	spec, err := json.Marshal(map[string]any{
		"tensor_path": path, "rank": serveRank, "constraint": "nonneg",
		"max_outer": serveIters, "tol": fixedIters, "seed": rc.seed,
	})
	if err != nil {
		return err
	}
	var setups []float64
	var root string
	for i := 0; i < serveSetupReps; i++ {
		start := time.Now()
		var job serve.JobView
		if err := callOK(d.control, http.MethodPost, d.base+"/jobs", spec, &job); err != nil {
			return err
		}
		done, err := d.awaitJob(job.ID)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		root = done.ModelID
	}
	rc.logf("  input: amazon %v nnz=%d; served model %s, rank %d, trained %d iterations",
		x.Dims, x.NNZ(), root, serveRank, serveIters)

	budget := rc.budget.Seconds()
	readDur := time.Duration(readShare * budget * float64(time.Second))
	closedDur := time.Duration(closedShare * budget * float64(time.Second))
	writeDur := time.Duration(writeShare * budget * float64(time.Second))
	rng := rand.New(rand.NewSource(rc.seed + 1))
	readSched := mergeSchedules(
		poisson(rng, topKRate, readDur, kindTopK),
		poisson(rng, foldInRate, readDur, kindFoldIn))
	writeSched := mergeSchedules(
		poisson(rng, topKRate, writeDur, kindTopK),
		poisson(rng, foldInRate, writeDur, kindFoldIn),
		poisson(rng, appendRate, writeDur, kindAppend))
	// The closed loop draws fresh queries from the same distribution, after
	// the scheduled ones, enough for well above the measured capacity.
	n := numberPayloads(readSched, writeSched)
	nClosed := int(closedShare*budget*closedQueriesPerSec) + 1
	tr, err := buildTraffic(x.Dims, rc.seed, n[kindTopK]+nClosed, n[kindFoldIn], n[kindAppend])
	if err != nil {
		return err
	}
	closedBody := func(client, i int) []byte { return tr.topK[n[kindTopK]+(i*loadConns+client)%nClosed] }

	var m0, m1 daemonMetrics
	if rc.traced {
		if m0, err = d.scrape(); err != nil {
			return err
		}
	}
	// Start the measured phases from a collected heap: set-up and traffic
	// generation leave garbage the phases should not pay for.
	runtime.GC()

	// Read phase: open-loop top-K and fold-in.
	read := &loadRun{d: d, rc: rc, tr: tr, model: root, phase: "read"}
	phaseStart := time.Now()
	readSamples := runOpenLoop(realClock{}, readSched, loadConns, read.send)
	rc.tracer.Emit("bench", "read_phase", stats.ModeNone, obs.TIDDriver, 0, phaseStart, time.Since(phaseStart))
	countRequests(rc, "read", readSamples)
	if rc.traced {
		if m1, err = d.scrape(); err != nil {
			return err
		}
	}

	// Closed loop: capacity with loadConns clients that each wait for the
	// previous answer.
	phaseStart = time.Now()
	closed := runClosedLoop(loadConns, closedDur, func(client, i int) error {
		start := time.Now()
		err := callOK(d.load, http.MethodPost, d.base+"/models/"+root+"/topk", closedBody(client, i), nil)
		rc.tracer.Emit("http", "topk_closed", stats.ModeNone, client, int64(i), start, time.Since(start))
		return err
	})
	closedWall := time.Since(phaseStart)
	rc.tracer.Emit("bench", "closed_phase", stats.ModeNone, obs.TIDDriver, 0, phaseStart, closedWall)
	countRequests(rc, "closed-loop", closed)

	// Write phase: the same open-loop reads plus appends, beside
	// back-to-back refits on the control connection.
	write := &loadRun{d: d, rc: rc, tr: tr, model: root, phase: "write"}
	writeCtx, stopRefits := context.WithCancel(context.Background())
	var cycles []refitCycle
	var refitErr error
	refitsDone := make(chan struct{})
	phaseStart = time.Now()
	go func() {
		defer close(refitsDone)
		cycles, refitErr = refitLoop(writeCtx, rc, d, write, root, tr.topK[0], phaseStart, writeDur)
	}()
	writeSamples := runOpenLoop(realClock{}, writeSched, loadConns, write.send)
	rc.tracer.Emit("bench", "write_phase", stats.ModeNone, obs.TIDDriver, 0, phaseStart, time.Since(phaseStart))
	stopRefits()
	<-refitsDone
	if refitErr != nil {
		return refitErr
	}
	if len(cycles) == 0 {
		return errors.New("no refit completed in the write phase")
	}
	countRequests(rc, "write", writeSamples)
	read.verify()
	write.verify()

	topK := latencies(readSamples, kindTopK)
	var late []float64
	for _, s := range append(append([]sample(nil), readSamples...), writeSamples...) {
		late = append(late, float64(s.late())/1e6)
	}
	okClosed := 0
	for _, s := range closed {
		if s.err == nil {
			okClosed++
		}
	}
	var totals []float64
	for _, c := range cycles {
		totals = append(totals, c.total.Seconds())
	}
	rc.logf("  read top-K ms: %s; fold-in ms: %s", tailSummary(topK), tailSummary(latencies(readSamples, kindFoldIn)))
	rc.logf("  write top-K ms: %s; append ms: %s; refit s: %s",
		tailSummary(latencies(writeSamples, kindTopK)), tailSummary(latencies(writeSamples, kindAppend)), tailSummary(totals))
	rc.logf("  closed loop: %d top-K in %.2fs; generator lateness ms: %s", okClosed, closedWall.Seconds(), tailSummary(late))

	if !rc.traced {
		rc.setE2E("setup_s", median(setups), len(setups))
		rc.setE2E("task_s", median(totals), len(totals))
		rc.setE2E("latency_ms.p50", quantile(topK, 0.5), len(topK))
		rc.setE2E("latency_ms.p90", quantile(topK, 0.9), len(topK))
		return nil
	}

	dm0, dm1 := m0.Daemon, m1.Daemon
	serverMs := serverP50(dm0.QueryLatency, dm1.QueryLatency)
	var clientMs []float64
	for _, s := range readSamples {
		clientMs = append(clientMs, float64(s.end-s.start)/1e6)
	}
	hits, misses := dm1.TopKCache.Hits-dm0.TopKCache.Hits, dm1.TopKCache.Misses-dm0.TopKCache.Misses
	batches, batched := dm1.TopKBatch.Batches-dm0.TopKBatch.Batches, dm1.TopKBatch.BatchedQueries-dm0.TopKBatch.BatchedQueries
	scanned, pruned := dm1.TopKIndex.Scanned-dm0.TopKIndex.Scanned, dm1.TopKIndex.Pruned-dm0.TopKIndex.Pruned
	rc.setLayer("serve.query_server_ms.p50", serverMs, int(dm1.QueryLatency.Count-dm0.QueryLatency.Count))
	rc.setLayer("serve.http_ms.p50", quantile(clientMs, 0.5)-serverMs, len(clientMs))
	rc.setLayer("serve.qcache.hit_frac", ratio(hits, hits+misses), int(hits+misses))
	// Cache misses reach the batcher; it counts only scans shared by several
	// queries, so every other miss was a scan of its own.
	scans := misses - batched + batches
	rc.setLayer("serve.batch.mean_queries", ratio(misses, scans), int(scans))
	rc.setLayer("kruskal.index.prune_frac", ratio(pruned, scanned+pruned), int(scanned+pruned))
	foldIn := latencies(readSamples, kindFoldIn)
	rc.setLayer("serve.topk_ms.p99", quantile(topK, 0.99), len(topK))
	rc.setLayer("serve.topk_closed_qps", float64(okClosed)/closedWall.Seconds(), okClosed)
	rc.setLayer("serve.foldin_ms.p50", quantile(foldIn, 0.5), len(foldIn))
	rc.setLayer("serve.foldin_ms.p99", quantile(foldIn, 0.99), len(foldIn))
	appends := latencies(writeSamples, kindAppend)
	rc.setLayer("serve.append_ms.p90", quantile(appends, 0.9), len(appends))
	writeTopK := latencies(writeSamples, kindTopK)
	rc.setLayer("serve.topk_refit_ms.p99", quantile(writeTopK, 0.99), len(writeTopK))
	var queue, mat, fit, swap []float64
	for _, c := range cycles {
		queue = append(queue, c.queue.Seconds())
		mat = append(mat, c.materialize.Seconds())
		fit = append(fit, c.fit.Seconds())
		swap = append(swap, c.swap.Seconds())
	}
	rc.setLayer("stream.refit_queue_s", median(queue), len(queue))
	rc.setLayer("stream.materialize_s", median(mat), len(mat))
	rc.setLayer("stream.refit_fit_s", median(fit), len(fit))
	rc.setLayer("stream.head_swap_s", median(swap), len(swap))
	rc.setLayer("gen.late_ms.p99", quantile(late, 0.99), len(late))
	rc.setLayer("core.relerr", cycles[len(cycles)-1].relErr, 1)
	return nil
}

// refitLoop refits the lineage back to back while the write phase runs: it
// starts a refit only once an append has landed since the previous one, and
// only while the mean cycle so far still fits in the phase. The first refit
// always runs.
func refitLoop(ctx context.Context, rc *runCtx, d *daemon, load *loadRun, root string, probe []byte, start time.Time, dur time.Duration) ([]refitCycle, error) {
	var cycles []refitCycle
	var spent time.Duration
	seen := int64(0)
	for {
		if n := len(cycles); n > 0 && time.Since(start)+spent/time.Duration(n) > dur {
			return cycles, nil
		}
		for load.appendsOK.Load() == seen {
			if ctx.Err() != nil {
				return cycles, nil
			}
			time.Sleep(2 * time.Millisecond)
		}
		seen = load.appendsOK.Load()
		c, err := d.refit(rc, root, probe)
		if err != nil {
			return cycles, err
		}
		cycles = append(cycles, c)
		spent += c.total
	}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
