// Package load type-checks Go packages for the c3vet analyzers without any
// dependency outside the standard library: it shells out to `go list -deps
// -test -json` for the package graph, parses every package from source, and
// type-checks the closure in dependency order with an in-memory importer.
// This replaces golang.org/x/tools/go/packages, which the build environment
// does not carry.
//
// Compiled-code conveniences are deliberately avoided: the standard library
// is type-checked from GOROOT source too (with CGO_ENABLED=0 so every file
// is plain Go), which costs a few seconds once per invocation and requires
// no build cache cooperation.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"c3/internal/analysis"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	// ImportPath is the go list package ID (test variants carry the
	// " [pkg.test]" suffix).
	ImportPath string
	// ForTest is the original import path when this is a test variant.
	ForTest string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// Module reports whether the package belongs to the main module — the
	// analyzers' target set.
	Module bool
}

type listPkg struct {
	ImportPath string
	ForTest    string
	Dir        string
	Standard   bool
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	Module     *struct{ Path, Dir string }
	Error      *struct{ Err string }
}

// Load lists patterns (plus -deps -test) in dir and type-checks the whole
// closure, returning the type-checked main-module packages that match the
// requested patterns. When a package has a test variant, the variant (a
// strict superset of the plain package's files) is returned instead of the
// plain package, so test files are analyzed exactly as `go vet` would.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-deps", "-test",
		"-json=ImportPath,ForTest,Dir,Standard,GoFiles,Imports,ImportMap,Module,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var listed []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		p := new(listPkg)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list decode: %v", err)
		}
		listed = append(listed, p)
	}

	fset := token.NewFileSet()
	checked := map[string]*types.Package{"unsafe": types.Unsafe}
	var result []*Package
	// Packages whose plain form is shadowed by a test variant.
	shadowed := make(map[string]bool)
	for _, p := range listed {
		if p.ForTest != "" && strings.HasSuffix(p.ImportPath, ".test]") && !strings.HasSuffix(p.ImportPath, "_test ["+p.ForTest+".test]") {
			shadowed[p.ForTest] = true
		}
	}

	for _, p := range listed {
		if p.ImportPath == "unsafe" {
			continue
		}
		if strings.HasSuffix(p.ImportPath, ".test") {
			// Synthesized test-main binaries reference generated files in
			// the build cache; nothing in them is ours to analyze, and no
			// real package imports them.
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			path := name
			if !filepath.IsAbs(path) {
				path = filepath.Join(p.Dir, name)
			}
			af, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("parse %s: %v", path, err)
			}
			files = append(files, af)
		}
		imp := importerFunc(func(path string) (*types.Package, error) {
			if mapped, ok := p.ImportMap[path]; ok {
				path = mapped
			}
			if q, ok := checked[path]; ok {
				return q, nil
			}
			// Standard-library vendored imports (net -> vendor/golang.org/x/...)
			// are listed under their vendor/ prefix.
			if q, ok := checked["vendor/"+path]; ok {
				return q, nil
			}
			return nil, fmt.Errorf("package %q not in dependency order (importing %s)", path, p.ImportPath)
		})
		isModule := p.Module != nil && !p.Standard
		info := analysis.NewInfo()
		var firstErr error
		conf := types.Config{
			Importer: imp,
			Error: func(err error) {
				if firstErr == nil {
					firstErr = err
				}
			},
		}
		tp, _ := conf.Check(strings.TrimSuffix(p.ImportPath, " ["+p.ForTest+".test]"), fset, files, info)
		if firstErr != nil && isModule {
			// Standard-library quirks are tolerated (the analyzers never run
			// there); errors in our own module are real and fatal.
			return nil, fmt.Errorf("typecheck %s: %v", p.ImportPath, firstErr)
		}
		checked[p.ImportPath] = tp
		if !isModule {
			continue
		}
		if p.ForTest == "" && shadowed[p.ImportPath] {
			continue // the test variant carries these files plus the tests
		}
		result = append(result, &Package{
			ImportPath: p.ImportPath,
			ForTest:    p.ForTest,
			Dir:        p.Dir,
			Fset:       fset,
			Files:      files,
			Types:      tp,
			Info:       info,
			Module:     true,
		})
	}
	return result, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
