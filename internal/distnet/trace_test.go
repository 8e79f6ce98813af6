package distnet

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"aoadmm/internal/dense"
	"aoadmm/internal/obs"
)

func TestHeartbeatCodecRoundTrip(t *testing.T) {
	in := heartbeat{
		SendUnixNano: 1234567890123,
		LastRTTNanos: 250_000,
		WireSent:     7777,
		WireRecv:     8888,
	}
	in.Node.Epochs = 3
	in.Node.EpochNanos = 42e6
	in.Node.ShardLoads = 5
	in.Node.ShardLoadNanos = 9e6
	in.Node.ShardBytes = 1 << 20
	in.Node.MTTKRPCalls = 60
	in.Node.MTTKRPNanos = 11e6
	in.Node.ADMMCalls = 61
	in.Node.ADMMNanos = 12e6
	in.Node.KernelCSF = 2
	in.Node.KernelALTO = 1
	out, err := decodeHeartbeat(in.encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in %+v\nout %+v", in, out)
	}
	// The pre-telemetry liveness ping — an empty payload — stays valid.
	legacy, err := decodeHeartbeat(nil)
	if err != nil {
		t.Fatal(err)
	}
	if legacy != (heartbeat{}) {
		t.Fatalf("empty heartbeat decoded to %+v", legacy)
	}
	// Truncated telemetry is rejected, not zero-filled.
	if _, err := decodeHeartbeat(in.encode()[:9]); err == nil {
		t.Fatal("truncated heartbeat accepted")
	}
}

func TestSpanBatchCodecRoundTrip(t *testing.T) {
	in := spanBatch{
		Epoch:         4,
		JobID:         "job-abc",
		EpochUnixNano: 1_700_000_000_000_000_000,
		Dropped:       2,
		Events: []obs.Event{
			{Name: "mttkrp", Cat: "dist", Mode: 1, TID: obs.TIDDriver, Arg: 3, Start: 100, Dur: 900},
			{Name: "shard_load", Cat: "dist", Mode: -1, TID: obs.TIDDriver, Arg: 4096, Start: 5, Dur: 55},
		},
	}
	out, err := decodeSpanBatch(in.encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in %+v\nout %+v", in, out)
	}
	// A hostile count cannot drive allocation past the payload size.
	hostile := spanBatch{Epoch: 1}.encode()
	hostile[len(hostile)-4] = 0xff
	hostile[len(hostile)-3] = 0xff
	hostile[len(hostile)-2] = 0xff
	hostile[len(hostile)-1] = 0x7f
	if _, err := decodeSpanBatch(hostile); err == nil {
		t.Fatal("implausible span count accepted")
	}
}

func TestAssignTraceFlagRoundTrip(t *testing.T) {
	for _, want := range []uint32{0, 1} {
		a := assign{
			JobID: "j", Epoch: 1, Workers: 1, Rank: 2, Trace: want,
			Dims: []int{3, 4}, Mode0: [2]int64{0, 3},
			Owned:   [][2]int64{{0, 3}, {0, 4}},
			Factors: []*dense.Matrix{dense.New(3, 2), dense.New(4, 2)},
			Duals:   []*dense.Matrix{dense.New(3, 2), dense.New(4, 2)},
		}
		got, err := decodeAssign(a.encode())
		if err != nil {
			t.Fatal(err)
		}
		if got.Trace != want {
			t.Fatalf("trace flag = %d, want %d", got.Trace, want)
		}
	}
}

// TestNilTracerEpochPathZeroAlloc pins the disabled-tracing guarantee on
// the worker's epoch hot path: with no tracer assigned, the span helper
// wrapped around every kernel call adds zero allocations (mirroring the
// MTTKRP nil-tracer guarantee in internal/mttkrp).
func TestNilTracerEpochPathZeroAlloc(t *testing.T) {
	j := &workerJob{} // tracing off: nil tracer
	var sink int64
	work := func() { sink++ }
	traced := func() {
		sp := j.span("dist", "mttkrp", 0, 7)
		work()
		sp.End()
	}
	traced() // warm up
	base := testing.AllocsPerRun(200, work)
	got := testing.AllocsPerRun(200, traced)
	if got != base {
		t.Fatalf("nil-tracer span path allocates: base %v, traced %v", base, got)
	}
	if sink == 0 {
		t.Fatal("work elided")
	}
}

// TestTracedJobMergesProcesses runs a real 2-worker TCP job with tracing on
// and checks the tentpole property end to end: one merged multi-process
// trace with correlated spans from the coordinator and both workers, all
// tagged with the job's ID, renderable as valid Chrome trace JSON.
func TestTracedJobMergesProcesses(t *testing.T) {
	c := startCluster(t, 2)
	x := planted(t, []int{30, 40, 50}, 2000, 7)
	st := shardStore(t, x, 0)

	res, err := c.Coord.RunJob(JobOptions{
		JobID:          "traced-job-1",
		ShardDir:       st.Dir(),
		Rank:           3,
		MaxOuterIters:  3,
		Workers:        2,
		WaitForWorkers: 2,
		Trace:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 3 {
		t.Fatalf("got %d trace processes, want 3 (coordinator + 2 workers): %+v", len(res.Trace), res.Trace)
	}
	if res.Trace[0].Name != "coordinator" || res.Trace[0].PID != 1 {
		t.Fatalf("first process = %q pid %d, want coordinator pid 1", res.Trace[0].Name, res.Trace[0].PID)
	}
	seenPIDs := map[int]bool{}
	for _, p := range res.Trace {
		if len(p.Events) == 0 {
			t.Fatalf("process %q has no events", p.Name)
		}
		if p.Args["job_id"] != "traced-job-1" {
			t.Fatalf("process %q job_id = %v, want traced-job-1", p.Name, p.Args["job_id"])
		}
		if seenPIDs[p.PID] {
			t.Fatalf("duplicate pid %d", p.PID)
		}
		seenPIDs[p.PID] = true
	}
	// Coordinator spans cover the collective phases; workers cover the
	// node-local compute.
	wantCoord := map[string]bool{"assign_epoch": false, "outer_iter": false, "reduce_scatter": false}
	for _, ev := range res.Trace[0].Events {
		if _, ok := wantCoord[ev.Name]; ok {
			wantCoord[ev.Name] = true
		}
	}
	for name, seen := range wantCoord {
		if !seen {
			t.Fatalf("coordinator trace missing %q spans", name)
		}
	}
	wantWorker := map[string]bool{"shard_load": false, "mttkrp": false, "local_admm": false}
	for _, ev := range res.Trace[1].Events {
		if _, ok := wantWorker[ev.Name]; ok {
			wantWorker[ev.Name] = true
		}
	}
	for name, seen := range wantWorker {
		if !seen {
			t.Fatalf("worker trace missing %q spans", name)
		}
	}

	// The merged document is loadable Chrome trace JSON with per-process
	// metadata.
	var buf bytes.Buffer
	if err := obs.WriteChromeProcesses(&buf, res.Trace, map[string]any{"job_id": "traced-job-1"}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	procNames := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev["name"] == "process_name" {
			args := ev["args"].(map[string]any)
			procNames[args["name"].(string)] = true
		}
	}
	if len(procNames) != 3 || !procNames["coordinator"] {
		t.Fatalf("merged trace process names = %v", procNames)
	}
	if doc.OtherData["job_id"] != "traced-job-1" {
		t.Fatalf("otherData = %v", doc.OtherData)
	}
	if c.Coord.Stats().TraceSpans == 0 {
		t.Fatal("TraceSpans counter did not advance")
	}

	// Heartbeats federate worker telemetry: within a couple of intervals
	// the coordinator sees non-zero epoch and kernel counters per worker.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ws := c.Coord.LiveWorkers()
		ok := len(ws) == 2
		for _, w := range ws {
			if w.Epochs < 1 || w.ShardBytes == 0 || w.MTTKRPCalls == 0 ||
				w.KernelCSF+w.KernelALTO == 0 || w.WireSentBytes == 0 {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker telemetry never federated: %+v", ws)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
