// Package accountpair enforces the coordinator accounting invariant from the
// C3 feedback loop (c3.go, "Accounting"): every ranker OnSend/OnSendN must be
// balanced by exactly one OnResponse[N]/OnAbandon[N] on every path out of the
// sending function. PR 3 shipped a real leak of this shape — a failed
// read-repair probe returned without releasing its outstanding count, so q̂
// toward a struggling replica inflated forever and the coordinator never saw
// it recover.
//
// The check is flow-sensitive and intraprocedural with one interprocedural
// courtesy: a call to a same-package function that (transitively) performs
// settling — accountReadSuccess, or a function spawning a settling goroutine —
// counts as a settle on that path. Settles inside function literals spawned
// or deferred on the path count too (`n.wg.Add(1); go func(){ ...
// OnAbandon ... }()` settles eventually by construction). What it cannot see
// is settlement in a different event handler — event-driven simulators
// suppress with a reason.
package accountpair

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"c3/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "accountpair",
	Doc: "ranker OnSend[N] must be balanced by OnResponse[N]/OnAbandon[N] " +
		"on every exit path of the sending function",
	Run: run,
}

func sendName(name string) bool   { return name == "OnSend" || name == "OnSendN" }
func settleName(name string) bool {
	switch name {
	case "OnResponse", "OnAbandon", "OnResponseN", "OnAbandonN":
		return true
	}
	return false
}

// accountingName reports method names that are themselves part of the
// accounting interface: bodies with these names are implementations (score
// trackers, forwarding wrappers), not coordinators, and are not checked.
func accountingName(name string) bool { return sendName(name) || settleName(name) }

func run(pass *analysis.Pass) error {
	bodies := analysis.Bodies(pass.Files)
	settlers := settlerSet(pass, bodies)

	isSettleCall := func(call *ast.CallExpr) bool {
		_, name, isMethod := analysis.CalleeName(pass.TypesInfo, call)
		if isMethod && settleName(name) {
			return true
		}
		return settlers[calleeObj(pass.TypesInfo, call)]
	}

	terminates := analysis.Terminator(pass.TypesInfo)
	for _, b := range bodies {
		if b.Lit == nil && accountingName(b.Name) {
			continue
		}
		// The accounting layer itself — any method on a type that also
		// implements the settle side (core.Client, trackers) — records
		// sends whose settlement is its caller's contract, and tests of
		// that layer drive unbalanced sequences on purpose. The invariant
		// binds production coordinators.
		if implementsSettling(pass.TypesInfo, b.Decl) || inTestFile(pass.Fset, b.Body.Pos()) {
			continue
		}
		// Collect the send calls owned by this body (literals are their own
		// bodies, so a send inside a nested goroutine is checked there).
		type send struct {
			stmt ast.Stmt
			call *ast.CallExpr
		}
		var sends []send
		var g *analysis.CFG
		analysis.InspectShallow(b.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			_, name, isMethod := analysis.CalleeName(pass.TypesInfo, call)
			if !isMethod || !sendName(name) {
				return true
			}
			if g == nil {
				g = analysis.BuildCFG(b.Body, terminates)
			}
			if stmt := owningStmt(g, b.Body, call); stmt != nil {
				sends = append(sends, send{stmt: stmt, call: call})
			}
			return true
		})
		for _, s := range sends {
			leaks := g.ReachesExitAvoiding(s.stmt, func(n *analysis.Node) bool {
				return analysis.NodeContainsCall(pass.TypesInfo, n, true, isSettleCall)
			})
			if leaks {
				_, name, _ := analysis.CalleeName(pass.TypesInfo, s.call)
				pass.Reportf(s.call.Pos(),
					"%s is not balanced by OnResponse[N]/OnAbandon[N] on every exit path", name)
			}
		}
	}
	return nil
}

// implementsSettling reports whether the body's receiver type declares one
// of the settle methods — the mark of an accounting implementation.
func implementsSettling(info *types.Info, fd *ast.FuncDecl) bool {
	if fd == nil || fd.Recv == nil || len(fd.Recv.List) != 1 {
		return false
	}
	t := info.TypeOf(fd.Recv.List[0].Type)
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	for i := 0; i < named.NumMethods(); i++ {
		if settleName(named.Method(i).Name()) {
			return true
		}
	}
	return false
}

func inTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// settlerSet computes the same-package functions that settle accounting on
// some path, directly or transitively (calls inside nested literals count:
// a spawned or deferred settle still runs).
func settlerSet(pass *analysis.Pass, bodies []analysis.FuncBody) map[types.Object]bool {
	set := make(map[types.Object]bool)
	type declBody struct {
		obj  types.Object
		body *ast.BlockStmt
	}
	var decls []declBody
	for _, b := range bodies {
		if b.Lit != nil || b.Decl == nil {
			continue
		}
		obj := pass.TypesInfo.Defs[b.Decl.Name]
		if obj == nil {
			continue
		}
		decls = append(decls, declBody{obj: obj, body: b.Decl.Body})
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if set[d.obj] {
				continue
			}
			found := false
			ast.Inspect(d.body, func(n ast.Node) bool {
				if found {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				_, name, isMethod := analysis.CalleeName(pass.TypesInfo, call)
				if (isMethod && settleName(name)) || set[calleeObj(pass.TypesInfo, call)] {
					found = true
					return false
				}
				return true
			})
			if found {
				set[d.obj] = true
				changed = true
			}
		}
	}
	return set
}

// calleeObj resolves a call to the types.Object of its callee, nil for
// indirect calls and builtins.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel]
	}
	return nil
}

// owningStmt finds the innermost statement containing pos that is a node of
// g — the CFG anchor for a call expression.
func owningStmt(g *analysis.CFG, body *ast.BlockStmt, call *ast.CallExpr) ast.Stmt {
	var best ast.Stmt
	analysis.InspectShallow(body, func(n ast.Node) bool {
		stmt, ok := n.(ast.Stmt)
		if !ok {
			return true
		}
		if stmt.Pos() <= call.Pos() && call.End() <= stmt.End() && g.NodeFor(stmt) != nil {
			// Innermost wins: keep descending, later (deeper) matches
			// overwrite.
			node := g.NodeFor(stmt)
			for _, part := range node.Parts {
				if part.Pos() <= call.Pos() && call.End() <= part.End() {
					best = stmt
					break
				}
			}
		}
		return true
	})
	return best
}
