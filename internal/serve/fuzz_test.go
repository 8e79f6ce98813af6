package serve

import (
	"os"
	"path/filepath"
	"testing"

	"aoadmm/internal/kruskal"
)

// FuzzJournalReplay hardens crash recovery's first step: whatever bytes a
// crash (or an attacker with disk access) leaves in journal.jsonl, opening it
// must return a well-formed view list — never panic, never a view without a
// job id, never the same job twice — and reopening the compacted journal
// must return the same views without a warning.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte(`{"v":1,"job":{"id":"j000001","status":"queued","spec":{"dataset":"amazon","rank":4}}}` + "\n"))
	f.Add([]byte(`{"v":1,"job":{"id":"j000001","status":"queued"}}` + "\n" +
		`{"v":1,"job":{"id":"j000001","status":"done","model_id":"m000001"}}` + "\n"))
	f.Add([]byte(`{"v":1,"job":{"id":"j000001","stat`)) // torn tail
	f.Add([]byte("not json\n\n{}\n"))
	f.Add([]byte(`{"v":99,"job":{"id":"future","status":"hovering"}}` + "\n"))
	f.Add([]byte{0xff, 0xfe, 0x00, '\n'})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		jnl, views, _, err := OpenJournal(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		jnl.Close()
		jnl, again, warns, err := OpenJournal(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		jnl.Close()
		if len(warns) != 0 || len(again) != len(views) {
			t.Fatalf("reopening the compacted journal: %d views (want %d), warnings %v", len(again), len(views), warns)
		}
		seen := make(map[string]bool, len(views))
		for _, v := range views {
			if v.ID == "" {
				t.Fatalf("replay returned a view without an id: %+v", v)
			}
			if seen[v.ID] {
				t.Fatalf("replay returned job %s twice", v.ID)
			}
			seen[v.ID] = true
		}
	})
}

// FuzzModelMeta hardens the registry's startup scan: a model directory with
// arbitrary meta.json bytes must load as a shape-consistent model or fail
// with an error — never panic, never return a model whose meta disagrees
// with its factors.
func FuzzModelMeta(f *testing.F) {
	f.Add(`{"id":"m000001","algo":"aoadmm","dims":[2,2],"rank":2}`)
	f.Add(`{}`)
	f.Add(`{"dims":[3,3],"rank":2}`) // wrong dims
	f.Add(`{"dims":[2,2],"rank":7}`) // wrong rank
	f.Add(`{"dims":null,"rank":-1}`)
	f.Add(`[1,2,3]`)
	f.Add(`{"id":"m000001","rel_err":1e999}`)
	f.Fuzz(func(t *testing.T, meta string) {
		dir := t.TempDir()
		k := kruskal.New([]int{2, 2}, 2)
		for _, fac := range k.Factors {
			fac.Fill(0.5)
		}
		if err := k.Save(filepath.Join(dir, "factors")); err != nil {
			t.Fatal(err)
		}
		os.WriteFile(filepath.Join(dir, "meta.json"), []byte(meta), 0o644)
		m, err := loadModelDir(dir)
		if err != nil {
			return
		}
		if m.Meta.Rank != 2 || len(m.Meta.Dims) != 2 {
			t.Fatalf("loaded model with inconsistent meta: %+v", m.Meta)
		}
	})
}
