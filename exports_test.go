package c3_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"c3/internal/analysis/load"
)

// exportAllowlist names the exported internal functions that no non-test
// file reaches on purpose, each with its reason. Keys are "<import path>.<name>".
var exportAllowlist = map[string]string{
	"c3/internal/kvstore.StartNode": "the single-node entry point a per-process deployment boots through; the cluster helpers bind their listeners first",
}

// exportAllowedPkgs names internal packages whose whole exported surface
// is for tests.
var exportAllowedPkgs = map[string]string{
	"c3/internal/analysis/analysistest": "the analyzers' fixture runner; only their tests import it",
}

// TestInternalExportsHaveCallers fails when an exported package-level
// function under internal/ is reached by no non-test file of the module.
// Tests are not callers: an export only tests reach is dead code with a
// test attached. The module's programs (benchmark/, cmd/, examples/) and
// the root package count as callers.
func TestInternalExportsHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and its std closure from source")
	}
	pkgs, err := load.Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}

	declared := make(map[string]token.Position)
	used := make(map[string]bool)
	for _, p := range pkgs {
		path := p.Types.Path()
		for _, f := range p.Files {
			if strings.HasSuffix(p.Fset.File(f.Pos()).Name(), "_test.go") {
				continue
			}
			for _, d := range f.Decls {
				// A function's reference to itself does not reach it.
				self := ""
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
					self = path + "." + fd.Name.Name
					if fd.Name.IsExported() && strings.HasPrefix(path, "c3/internal/") && exportAllowedPkgs[path] == "" {
						declared[self] = p.Fset.Position(fd.Pos())
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := p.Info.Uses[id].(*types.Func)
					if ok && fn.Pkg() != nil && fn.Type().(*types.Signature).Recv() == nil {
						if key := fn.Pkg().Path() + "." + fn.Name(); key != self {
							used[key] = true
						}
					}
					return true
				})
			}
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for key, pos := range declared {
		if !used[key] && exportAllowlist[key] == "" {
			file, _ := filepath.Rel(wd, pos.Filename)
			dead = append(dead, file+": "+key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is exported but only tests call it: unexport or delete it", d)
	}
	for key := range exportAllowlist {
		if _, ok := declared[key]; !ok {
			t.Errorf("allowlisted %s is not declared any more: drop it from the allowlist", key)
		}
	}
}
