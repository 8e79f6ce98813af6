package durable_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aoadmm/internal/durable"
	"aoadmm/internal/serve"
)

// A job-journal append that fails after a partial write must leave nothing
// behind: the rejected job never replays, and the next acknowledged record
// is not glued to a fragment.
func TestJobJournalShortWriteKeepsNextRecordDecodable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jnl, _, _, err := serve.OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	if err := jnl.Append(serve.JobView{ID: "j000001", Status: "queued"}); err != nil {
		t.Fatal(err)
	}
	durable.FailNextWriteTo(t, "journal.jsonl")
	if err := jnl.Append(serve.JobView{ID: "j000002", Status: "queued"}); err == nil {
		t.Fatal("short write acknowledged")
	}
	if err := jnl.Append(serve.JobView{ID: "j000003", Status: "queued"}); err != nil {
		t.Fatal(err)
	}
	jnl.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(raw), "\n"); lines != 2 || !strings.HasSuffix(string(raw), "\n") {
		t.Fatalf("journal after a short write:\n%s", raw)
	}
	_, views, warns, err := serve.OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 0 {
		t.Fatalf("warnings %v", warns)
	}
	if len(views) != 2 || views[0].ID != "j000001" || views[1].ID != "j000003" {
		t.Fatalf("recovered %+v", views)
	}
}
