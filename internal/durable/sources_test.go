package durable_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// Every durable write in the program goes through this package: no non-test
// Go file elsewhere in the repository may call os.Rename or fsync a file
// (any zero-argument .Sync() call).
func TestNoRenameOrSyncOutsideDurable(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	self := filepath.Join(root, "internal", "durable")
	fset := token.NewFileSet()
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == self || (path != root && (strings.HasPrefix(name, ".") || name == "testdata")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, _ := sel.X.(*ast.Ident)
			if (pkg != nil && pkg.Name == "os" && sel.Sel.Name == "Rename") ||
				(sel.Sel.Name == "Sync" && len(call.Args) == 0) {
				t.Errorf("%s: %s call outside internal/durable; use durable.ReplaceFile, ReplaceDir, RemoveDir or Log",
					fset.Position(call.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("scanned only %d files under %s", files, root)
	}
}
