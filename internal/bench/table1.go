package bench

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Table1Row is one source tree of Table 1: its non-comment source lines
// and the deletion sites of persistent objects in it.
type Table1Row struct {
	Tree  string
	SLOC  int
	Sites []string // file:line Call(...)
}

// freeCalls are the method names that delete persistent objects.
var freeCalls = map[string]bool{
	"Free":       true,
	"FreeObject": true,
	"FreeRaw":    true,
}

// Table1 counts the deletion sites for persistent objects in the non-test
// Go of each tree (nil: this repository's store, bank and data types,
// relative to the working directory), supporting the paper's argument
// that explicit deletion is rare in data stores ("a handful of deletion
// sites", §2.2.2) and a runtime GC for NVMM therefore buys little. A
// deletion site is a call that frees persistent storage: Free(...),
// FreeObject(...), tx.Free(...) and so on.
func Table1(trees []string) ([]Table1Row, error) {
	if trees == nil {
		trees = []string{"./internal/store", "./internal/tpcb", "./internal/pdt"}
	}
	var rows []Table1Row
	for _, tree := range trees {
		row := Table1Row{Tree: tree}
		if err := filepath.WalkDir(tree, row.scan); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func (r *Table1Row) scan(path string, d fs.DirEntry, err error) error {
	if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
		return err
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, src, 0)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(src), "\n") {
		if t := strings.TrimSpace(line); t != "" && !strings.HasPrefix(t, "//") {
			r.SLOC++
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && freeCalls[sel.Sel.Name] {
				pos := fset.Position(call.Pos())
				r.Sites = append(r.Sites, fmt.Sprintf("%s:%d %s(...)", pos.Filename, pos.Line, sel.Sel.Name))
			}
		}
		return true
	})
	return nil
}
