package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// names lists dir's entries, sorted.
func names(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	sort.Strings(out)
	return out
}

func TestReplaceFileStepOrder(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := os.WriteFile(path, []byte("old\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := swapSeam(t, &recorder{})
	if err := ReplaceFile(path, writeString("new\n")); err != nil {
		t.Fatal(err)
	}
	want := []step{
		{"write", ".state.json.tmp"},
		{"sync", ".state.json.tmp"},
		{"rename", ".state.json.tmp->state.json"},
		{"syncdir", filepath.Base(dir)},
	}
	if !reflect.DeepEqual(r.steps, want) {
		t.Fatalf("steps %v, want %v", r.steps, want)
	}
	if got := readFile(t, path); got != "new\n" {
		t.Fatalf("content %q", got)
	}
}

func TestReplaceFileFailureAtEveryStep(t *testing.T) {
	const steps = 4 // write, sync, rename, syncdir
	for i := 0; i < steps; i++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "state.json")
		if err := os.WriteFile(path, []byte("old\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		swapSeam(t, &recorder{fail: failAt(i)})
		if err := ReplaceFile(path, writeString("new\n")); !errors.Is(err, errInjected) {
			t.Fatalf("step %d: err %v", i, err)
		}
		// Up to and including the rename the previous file survives. A
		// failed directory fsync comes after the rename: the new file is
		// whole in place, only its durability is unknown.
		want := "old\n"
		if i == steps-1 {
			want = "new\n"
		}
		if got := readFile(t, path); got != want {
			t.Fatalf("step %d: content %q, want %q", i, got, want)
		}
		if got := names(t, dir); !reflect.DeepEqual(got, []string{"state.json"}) {
			t.Fatalf("step %d: leftovers %v", i, got)
		}
	}
}

// writeTree is a ReplaceDir write callback: a file at the top and one in a
// subdirectory, both holding content.
func writeTree(content string) func(string) error {
	return func(tmp string) error {
		if err := os.WriteFile(filepath.Join(tmp, "a.txt"), []byte(content), 0o644); err != nil {
			return err
		}
		if err := os.Mkdir(filepath.Join(tmp, "sub"), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(tmp, "sub", "b.txt"), []byte(content), 0o644)
	}
}

func checkTree(t *testing.T, dir, content string) {
	t.Helper()
	for _, rel := range []string{"a.txt", "sub/b.txt"} {
		if got := readFile(t, filepath.Join(dir, rel)); got != content {
			t.Fatalf("%s holds %q, want %q", rel, got, content)
		}
	}
}

func TestReplaceDirStepOrder(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "ckpt")
	if err := ReplaceDir(dir, writeTree("old")); err != nil {
		t.Fatal(err)
	}
	r := swapSeam(t, &recorder{})
	if err := ReplaceDir(dir, writeTree("new")); err != nil {
		t.Fatal(err)
	}
	want := []step{
		{"syncdir", ".ckpt.new"},
		{"sync", "a.txt"},
		{"syncdir", "sub"},
		{"sync", "b.txt"},
		{"rename", "ckpt->ckpt.old"},
		{"rename", ".ckpt.new->ckpt"},
		{"syncdir", filepath.Base(parent)},
	}
	if !reflect.DeepEqual(r.steps, want) {
		t.Fatalf("steps %v, want %v", r.steps, want)
	}
	checkTree(t, dir, "new")
	if got := names(t, parent); !reflect.DeepEqual(got, []string{"ckpt"}) {
		t.Fatalf("leftovers %v", got)
	}
}

func TestReplaceDirFailureAtEveryStep(t *testing.T) {
	const steps = 7 // as in TestReplaceDirStepOrder
	for i := 0; i < steps; i++ {
		parent := t.TempDir()
		dir := filepath.Join(parent, "ckpt")
		if err := ReplaceDir(dir, writeTree("old")); err != nil {
			t.Fatal(err)
		}
		swapSeam(t, &recorder{fail: failAt(i)})
		if err := ReplaceDir(dir, writeTree("new")); !errors.Is(err, errInjected) {
			t.Fatalf("step %d: err %v", i, err)
		}
		checkTree(t, dir, "old")
		if got := names(t, parent); !reflect.DeepEqual(got, []string{"ckpt"}) {
			t.Fatalf("step %d: leftovers %v", i, got)
		}
	}
}

func TestReplaceDirFreshFailureLeavesNothing(t *testing.T) {
	const steps = 6 // TestReplaceDirStepOrder's, less the move of the old dir
	for i := 0; i < steps; i++ {
		parent := t.TempDir()
		dir := filepath.Join(parent, "ckpt")
		swapSeam(t, &recorder{fail: failAt(i)})
		if err := ReplaceDir(dir, writeTree("new")); !errors.Is(err, errInjected) {
			t.Fatalf("step %d: err %v", i, err)
		}
		if got := names(t, parent); len(got) != 0 {
			t.Fatalf("step %d: leftovers %v", i, got)
		}
	}
}

func TestReplaceDirWriteErrorLeavesPrevious(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "ckpt")
	if err := ReplaceDir(dir, writeTree("old")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := ReplaceDir(dir, func(string) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err %v", err)
	}
	checkTree(t, dir, "old")
	if got := names(t, parent); !reflect.DeepEqual(got, []string{"ckpt"}) {
		t.Fatalf("leftovers %v", got)
	}
}

// A crash between ReplaceDir's two renames leaves only dir.old; Recover (and
// the next ReplaceDir) must bring the previous directory back.
func TestRecoverAfterCrashBetweenRenames(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "ckpt")
	if err := ReplaceDir(dir, writeTree("old")); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(dir, dir+".old"); err != nil {
		t.Fatal(err)
	}
	r := swapSeam(t, &recorder{})
	if err := Recover(dir); err != nil {
		t.Fatal(err)
	}
	want := []step{{"rename", "ckpt.old->ckpt"}, {"syncdir", filepath.Base(parent)}}
	if !reflect.DeepEqual(r.steps, want) {
		t.Fatalf("steps %v, want %v", r.steps, want)
	}
	checkTree(t, dir, "old")

	// Both present: the swap had finished, so dir.old is stale.
	if err := os.Mkdir(dir+".old", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Recover(dir); err != nil {
		t.Fatal(err)
	}
	checkTree(t, dir, "old")
	if got := names(t, parent); !reflect.DeepEqual(got, []string{"ckpt"}) {
		t.Fatalf("leftovers %v", got)
	}

	// A crash-left dir.old is recovered before ReplaceDir swaps.
	if err := os.Rename(dir, dir+".old"); err != nil {
		t.Fatal(err)
	}
	if err := ReplaceDir(dir, writeTree("new")); err != nil {
		t.Fatal(err)
	}
	checkTree(t, dir, "new")
	if got := names(t, parent); !reflect.DeepEqual(got, []string{"ckpt"}) {
		t.Fatalf("leftovers %v", got)
	}
}

func TestRemoveDir(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "m000001")
	if err := ReplaceDir(dir, writeTree("old")); err != nil {
		t.Fatal(err)
	}
	// A failure at either step leaves dir where it was.
	for i := 0; i < 2; i++ {
		swapSeam(t, &recorder{fail: failAt(i)})
		if err := RemoveDir(dir); !errors.Is(err, errInjected) {
			t.Fatalf("step %d: err %v", i, err)
		}
		checkTree(t, dir, "old")
		if got := names(t, parent); !reflect.DeepEqual(got, []string{"m000001"}) {
			t.Fatalf("step %d: leftovers %v", i, got)
		}
	}
	r := swapSeam(t, &recorder{})
	if err := RemoveDir(dir); err != nil {
		t.Fatal(err)
	}
	want := []step{{"rename", "m000001->.m000001.trash"}, {"syncdir", filepath.Base(parent)}}
	if !reflect.DeepEqual(r.steps, want) {
		t.Fatalf("steps %v, want %v", r.steps, want)
	}
	if got := names(t, parent); len(got) != 0 {
		t.Fatalf("leftovers %v", got)
	}
	if err := RemoveDir(dir); err != nil {
		t.Fatalf("removing a missing dir: %v", err)
	}
}

func TestSweepRemovesStagingAndTrashOnly(t *testing.T) {
	parent := t.TempDir()
	for _, name := range []string{".m1.new", ".m2.trash", "m3", ".hidden", "m4.old", "m5.new"} {
		if err := os.Mkdir(filepath.Join(parent, name), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := Sweep(parent); err != nil {
		t.Fatal(err)
	}
	want := []string{".hidden", "m3", "m4.old", "m5.new"}
	if got := names(t, parent); !reflect.DeepEqual(got, want) {
		t.Fatalf("after sweep %v, want %v", got, want)
	}
}

func TestMkdirAllStepOrder(t *testing.T) {
	parent := t.TempDir()
	r := swapSeam(t, &recorder{})
	if err := MkdirAll(filepath.Join(parent, "data", "stream", "root")); err != nil {
		t.Fatal(err)
	}
	want := []step{
		{"mkdir", "data"},
		{"syncdir", filepath.Base(parent)},
		{"mkdir", "stream"},
		{"syncdir", "data"},
		{"mkdir", "root"},
		{"syncdir", "stream"},
	}
	if !reflect.DeepEqual(r.steps, want) {
		t.Fatalf("steps %v, want %v", r.steps, want)
	}
	// An existing path takes no step.
	r.steps = nil
	if err := MkdirAll(filepath.Join(parent, "data", "stream")); err != nil {
		t.Fatal(err)
	}
	if len(r.steps) != 0 {
		t.Fatalf("steps %v on an existing path", r.steps)
	}
}

// A failed step leaves the directories made before it, each with its parent
// fsync'd, and not the one it was making; a retry makes and fsyncs that one
// and the rest.
func TestMkdirAllFailureAtEveryStep(t *testing.T) {
	const steps = 6 // as in TestMkdirAllStepOrder
	for i := 0; i < steps; i++ {
		parent := t.TempDir()
		path := filepath.Join(parent, "data", "stream", "root")
		swapSeam(t, &recorder{fail: failAt(i)})
		if err := MkdirAll(path); !errors.Is(err, errInjected) {
			t.Fatalf("step %d: err %v", i, err)
		}
		made := i / 2 // each directory is a mkdir and its parent's fsync
		for d, p := 0, parent; d < 3; d++ {
			p = filepath.Join(p, []string{"data", "stream", "root"}[d])
			if _, err := os.Stat(p); (err == nil) != (d < made) {
				t.Fatalf("step %d: %s exists=%v, want %v", i, p, err == nil, d < made)
			}
		}
		r := swapSeam(t, &recorder{})
		if err := MkdirAll(path); err != nil {
			t.Fatalf("step %d: retry: %v", i, err)
		}
		if len(r.steps) != 2*(3-made) || r.steps[len(r.steps)-1] != (step{"syncdir", "stream"}) {
			t.Fatalf("step %d: retry steps %v", i, r.steps)
		}
	}
}

func TestMkdirAllRejectsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := MkdirAll(filepath.Join(path, "sub")); err == nil {
		t.Fatal("MkdirAll under a regular file succeeded")
	}
}
