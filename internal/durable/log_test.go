package durable

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

type rec struct {
	ID string `json:"id"`
}

func decodeRec(line []byte) (rec, error) {
	var r rec
	if err := json.Unmarshal(line, &r); err != nil {
		return r, err
	}
	if r.ID == "" {
		return r, errors.New("no id")
	}
	return r, nil
}

// replayIDs replays path and returns the record ids and the warning count.
func replayIDs(t *testing.T, path string) ([]string, int) {
	t.Helper()
	var ids []string
	warns, err := Replay(path, decodeRec, func(r rec) error {
		ids = append(ids, r.ID)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ids, len(warns)
}

func TestReplayCorruptionPolicy(t *testing.T) {
	for _, tc := range []struct {
		name, content string
		ids           []string
		warns         int
	}{
		{"clean", "{\"id\":\"a\"}\n{\"id\":\"b\"}\n", []string{"a", "b"}, 0},
		{"blank lines", "\n{\"id\":\"a\"}\n  \n{\"id\":\"b\"}\n\n", []string{"a", "b"}, 0},
		{"torn tail", "{\"id\":\"a\"}\n{\"id\":\"b\",\"x", []string{"a"}, 0},
		{"bad final line", "{\"id\":\"a\"}\nnot json\n", []string{"a"}, 0},
		{"unterminated final record", "{\"id\":\"a\"}\n{\"id\":\"b\"}", []string{"a"}, 0},
		{"interior corruption", "{\"id\":\"a\"}\nnot json\n{}\n{\"id\":\"b\"}\n", []string{"a", "b"}, 2},
		{"interior and torn tail", "{\"id\":\"a\"}\nnot json\n{\"id\":\"b\"}\n{\"id", []string{"a", "b"}, 1},
	} {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		ids, warns := replayIDs(t, path)
		if !reflect.DeepEqual(ids, tc.ids) || warns != tc.warns {
			t.Errorf("%s: ids %v warns %d, want %v and %d", tc.name, ids, warns, tc.ids, tc.warns)
		}
	}
}

func TestReplayMissingFileAndVisitError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if ids, warns := replayIDs(t, path); len(ids) != 0 || warns != 0 {
		t.Fatalf("missing log replayed %v, %d warnings", ids, warns)
	}
	if err := os.WriteFile(path, []byte("{\"id\":\"a\"}\n{\"id\":\"b\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	seen := 0
	_, err := Replay(path, decodeRec, func(rec) error {
		seen++
		return stop
	})
	if !errors.Is(err, stop) || seen != 1 {
		t.Fatalf("visit error: err %v after %d records", err, seen)
	}
}

func openTestLog(t *testing.T, path string) *Log {
	t.Helper()
	l, warns, err := OpenLog(path, decodeRec, func(rec) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 0 {
		t.Fatalf("warnings %v", warns)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestOpenLogCreateSyncsParent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.jsonl")
	swapSeam(t, &recorder{fail: failAt(0)})
	if _, _, err := OpenLog(path, decodeRec, func(rec) error { return nil }); !errors.Is(err, errInjected) {
		t.Fatalf("failed parent fsync: err %v", err)
	}
	os.Remove(path)
	r := swapSeam(t, &recorder{})
	openTestLog(t, path)
	if want := []step{{"syncdir", filepath.Base(dir)}}; !reflect.DeepEqual(r.steps, want) {
		t.Fatalf("steps %v, want %v", r.steps, want)
	}
	// Opening an existing log makes no durable step at all.
	r.steps = nil
	openTestLog(t, path)
	if len(r.steps) != 0 {
		t.Fatalf("reopen steps %v", r.steps)
	}
}

func TestOpenLogTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(path, []byte("{\"id\":\"a\"}\n{\"id\":\"b\",\"x"), 0o644); err != nil {
		t.Fatal(err)
	}
	l := openTestLog(t, path)
	if err := l.Append([]byte(`{"id":"c"}`), nil); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); got != "{\"id\":\"a\"}\n{\"id\":\"c\"}\n" {
		t.Fatalf("log %q", got)
	}
}

func TestAppendIsOneWriteAndOneSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l := openTestLog(t, path)
	r := swapSeam(t, &recorder{})
	for _, id := range []string{"a", "b"} {
		if err := l.Append([]byte(`{"id":"`+id+`"}`), nil); err != nil {
			t.Fatal(err)
		}
	}
	want := []step{{"write", "log.jsonl"}, {"sync", "log.jsonl"}, {"write", "log.jsonl"}, {"sync", "log.jsonl"}}
	if !reflect.DeepEqual(r.steps, want) {
		t.Fatalf("steps %v, want %v", r.steps, want)
	}
}

// A failed append — a short write, a failed fsync, or a failed beforeSync —
// is truncated away: it never replays, and the next acknowledged record
// decodes.
func TestAppendFailureRollsBack(t *testing.T) {
	hookErr := errors.New("hook")
	for _, tc := range []struct {
		name   string
		failAt int
		hook   error
		steps  []step
	}{
		{"short write", 0, nil, []step{{"write", "log.jsonl"}, {"truncate", "log.jsonl"}}},
		{"fsync", 1, nil, []step{{"write", "log.jsonl"}, {"sync", "log.jsonl"}, {"truncate", "log.jsonl"}}},
		{"before sync", -1, hookErr, []step{{"write", "log.jsonl"}, {"truncate", "log.jsonl"}}},
	} {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		l := openTestLog(t, path)
		if err := l.Append([]byte(`{"id":"a"}`), nil); err != nil {
			t.Fatal(err)
		}
		r := swapSeam(t, &recorder{fail: failAt(tc.failAt)})
		err := l.Append([]byte(`{"id":"rejected"}`), func() error { return tc.hook })
		if err == nil {
			t.Fatalf("%s: failed append returned nil", tc.name)
		}
		if !reflect.DeepEqual(r.steps, tc.steps) {
			t.Fatalf("%s: steps %v, want %v", tc.name, r.steps, tc.steps)
		}
		if got := readFile(t, path); got != "{\"id\":\"a\"}\n" {
			t.Fatalf("%s: log after rollback %q", tc.name, got)
		}
		r.fail = nil
		if err := l.Append([]byte(`{"id":"b"}`), nil); err != nil {
			t.Fatal(err)
		}
		if ids, warns := replayIDs(t, path); !reflect.DeepEqual(ids, []string{"a", "b"}) || warns != 0 {
			t.Fatalf("%s: replay %v with %d warnings", tc.name, ids, warns)
		}
	}
}

func TestAppendFailedRollbackStopsTheLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l := openTestLog(t, path)
	swapSeam(t, &recorder{fail: func(_ int, s step) bool { return s.op == "write" || s.op == "truncate" }})
	if err := l.Append([]byte(`{"id":"a"}`), nil); !errors.Is(err, errInjected) {
		t.Fatalf("err %v", err)
	}
	swapSeam(t, &recorder{})
	if err := l.Append([]byte(`{"id":"b"}`), nil); !errors.Is(err, errClosed) {
		t.Fatalf("append after a failed rollback: %v", err)
	}
}

func TestRewriteStepOrderAndFailures(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.jsonl")
	old := "{\"id\":\"a\"}\n{\"id\":\"b\"}\n"
	want := []step{
		{"write", ".log.jsonl.tmp"},
		{"sync", ".log.jsonl.tmp"},
		{"rename", ".log.jsonl.tmp->log.jsonl"},
		{"syncdir", filepath.Base(dir)},
	}
	for i := 0; i <= len(want); i++ {
		if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
		l := openTestLog(t, path)
		r := swapSeam(t, &recorder{fail: failAt(i)})
		err := l.Rewrite(writeString("{\"id\":\"b\"}\n"))
		r.fail = nil
		if i == len(want) {
			// No failure: the compacted log is live and appendable.
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r.steps, want) {
				t.Fatalf("steps %v, want %v", r.steps, want)
			}
			if err := l.Append([]byte(`{"id":"c"}`), nil); err != nil {
				t.Fatal(err)
			}
			if got := readFile(t, path); got != "{\"id\":\"b\"}\n{\"id\":\"c\"}\n" {
				t.Fatalf("log %q", got)
			}
			continue
		}
		if !errors.Is(err, errInjected) {
			t.Fatalf("step %d: err %v", i, err)
		}
		if i < len(want)-1 {
			if got := readFile(t, path); got != old {
				t.Fatalf("step %d: log %q", i, got)
			}
		}
		if got := names(t, dir); !reflect.DeepEqual(got, []string{"log.jsonl"}) {
			t.Fatalf("step %d: leftovers %v", i, got)
		}
		if err := l.Append([]byte(`{"id":"c"}`), nil); !errors.Is(err, errClosed) {
			t.Fatalf("step %d: append after a failed rewrite: %v", i, err)
		}
	}
}
