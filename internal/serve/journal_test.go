package serve

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aoadmm/internal/faults"
)

func openTestJournal(t *testing.T, path string, inj *faults.Injector) (*Journal, []JobView, []error) {
	t.Helper()
	jnl, views, warns, err := OpenJournal(path, inj)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jnl.Close() })
	return jnl, views, warns
}

func TestJournalRoundTripAndCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jnl, views, warns := openTestJournal(t, path, nil)
	if len(views) != 0 || len(warns) != 0 {
		t.Fatalf("fresh journal recovered %d views, %d warnings", len(views), len(warns))
	}

	// A job's whole life plus a second job still queued: five appends.
	spec := JobSpec{Dataset: "amazon", Rank: 4}
	for _, v := range []JobView{
		{ID: "j000001", Spec: spec, Status: "queued"},
		{ID: "j000001", Spec: spec, Status: "running", Attempt: 1},
		{ID: "j000002", Spec: spec, Status: "queued"},
		{ID: "j000001", Spec: spec, Status: "done", Attempt: 1, ModelID: "m000001"},
		{ID: "j000002", Spec: spec, Status: "queued", Errors: []string{"attempt 1: boom"}},
	} {
		if err := jnl.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	if _, appends, fails := jnl.Stats(); appends != 5 || fails != 0 {
		t.Fatalf("stats appends=%d fails=%d", appends, fails)
	}
	jnl.Close()
	if err := jnl.Append(JobView{ID: "j000003"}); err == nil {
		t.Fatal("append accepted after close")
	}

	// Reopen: latest view per job wins, first-appearance order preserved.
	_, views, warns = openTestJournal(t, path, nil)
	if len(warns) != 0 {
		t.Fatalf("warnings on clean journal: %v", warns)
	}
	if len(views) != 2 {
		t.Fatalf("recovered %d views, want 2", len(views))
	}
	if views[0].ID != "j000001" || views[0].Status != "done" || views[0].ModelID != "m000001" {
		t.Fatalf("job 1 recovered as %+v", views[0])
	}
	if views[1].ID != "j000002" || len(views[1].Errors) != 1 {
		t.Fatalf("job 2 recovered as %+v", views[1])
	}
	if views[0].Spec.Dataset != "amazon" || views[0].Spec.Rank != 4 {
		t.Fatalf("spec not journaled: %+v", views[0].Spec)
	}

	// Compaction rewrote the file down to one line per job.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(raw), "\n"); lines != 2 {
		t.Fatalf("compacted journal has %d lines:\n%s", lines, raw)
	}
}

func TestJournalTornTailDroppedSilently(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jnl, _, _ := openTestJournal(t, path, nil)
	jnl.Append(JobView{ID: "j000001", Status: "queued"})
	jnl.Append(JobView{ID: "j000002", Status: "running"})
	jnl.Close()

	// Simulate a crash mid-append: a half-written final line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"v":1,"job":{"id":"j000003","stat`)
	f.Close()

	_, views, warns := openTestJournal(t, path, nil)
	if len(warns) != 0 {
		t.Fatalf("torn tail reported as corruption: %v", warns)
	}
	if len(views) != 2 || views[0].ID != "j000001" || views[1].ID != "j000002" {
		t.Fatalf("recovered %+v", views)
	}
}

func TestJournalInteriorCorruptionWarns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	content := `{"v":1,"job":{"id":"j000001","status":"queued"}}
not json at all
{"v":1,"job":{"status":"no id on this one"}}
{"v":1,"job":{"id":"j000002","status":"queued"}}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, views, warns := openTestJournal(t, path, nil)
	if len(views) != 2 {
		t.Fatalf("recovered %+v", views)
	}
	if len(warns) != 2 {
		t.Fatalf("interior corruption warnings: %v", warns)
	}
}

func TestJournalAppendFaults(t *testing.T) {
	inj := faults.New()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jnl, _, _ := openTestJournal(t, path, inj)

	inj.Arm(faults.JournalAppend, 0, 1, errors.New("disk gone"))
	if err := jnl.Append(JobView{ID: "j000001"}); err == nil {
		t.Fatal("append survived injected write failure")
	}
	inj.Arm(faults.JournalSync, 0, 1, errors.New("fsync eio"))
	if err := jnl.Append(JobView{ID: "j000001"}); err == nil {
		t.Fatal("append survived injected fsync failure")
	}
	if err := jnl.Append(JobView{ID: "j000001", Status: "queued"}); err != nil {
		t.Fatal(err)
	}
	if _, appends, fails := jnl.Stats(); appends != 1 || fails != 2 {
		t.Fatalf("stats appends=%d fails=%d", appends, fails)
	}

	// A failed append is truncated away, so the file holds exactly the one
	// acknowledged record and replay surfaces it alone.
	jnl.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(raw), "\n"); lines != 1 {
		t.Fatalf("journal holds %d lines after two failed appends:\n%s", lines, raw)
	}
	_, views, warns := openTestJournal(t, path, nil)
	if len(warns) != 0 || len(views) != 1 || views[0].ID != "j000001" || views[0].Status != "queued" {
		t.Fatalf("recovered %+v, warnings %v", views, warns)
	}
}

// A record whose fsync failed was rejected, so it must never replay — not
// even once a later append has succeeded after it.
func TestJournalRejectedRecordNeverReplays(t *testing.T) {
	inj := faults.New()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jnl, _, _ := openTestJournal(t, path, inj)
	inj.Arm(faults.JournalSync, 0, 1, errors.New("fsync eio"))
	if err := jnl.Append(JobView{ID: "j000001", Status: "queued"}); err == nil {
		t.Fatal("append survived injected fsync failure")
	}
	if err := jnl.Append(JobView{ID: "j000002", Status: "queued"}); err != nil {
		t.Fatal(err)
	}
	jnl.Close()
	_, views, warns := openTestJournal(t, path, nil)
	if len(warns) != 0 || len(views) != 1 || views[0].ID != "j000002" {
		t.Fatalf("recovered %+v, warnings %v", views, warns)
	}
}

func TestJournalNilIsNoOp(t *testing.T) {
	var jnl *Journal
	if err := jnl.Append(JobView{ID: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	if path, appends, fails := jnl.Stats(); path != "" || appends != 0 || fails != 0 {
		t.Fatal("nil journal reported stats")
	}
}
