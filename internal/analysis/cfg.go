package analysis

import (
	"go/ast"
)

// This file is a small intraprocedural control-flow graph over statements —
// the shared substrate of the flow-sensitive analyzers (accountpair,
// poolsafe, lockscope). One Node per statement; compound statements (if,
// for, switch, select) contribute a header node whose Parts hold only the
// header expressions, so scanning a node never leaks into its body.
//
// Approximations, chosen to keep false positives predictable:
//   - goto edges go to Exit (the repository has none; a goto-heavy function
//     should be rewritten before it needs these analyzers).
//   - Every switch/select case is considered reachable, and a switch
//     without a default also falls through to the next statement.
//   - Statements for which terminates() is true (panic, os.Exit, t.Fatal)
//     get no successors: paths ending there never reach Exit.

// A Node is one statement in a CFG.
type Node struct {
	// Stmt is the underlying statement; nil for the synthetic Exit node.
	Stmt ast.Stmt
	// Parts are the sub-nodes that execute AT this node — for simple
	// statements the statement itself, for compound statements only the
	// header (init/cond/tag) — so analyzers can scan a node without
	// descending into controlled bodies.
	Parts []ast.Node
	// Succs are the possible next nodes.
	Succs []*Node
}

// A CFG is the control-flow graph of one function body.
type CFG struct {
	// Entry is the first node executed, nil for an empty body.
	Entry *Node
	// Exit is the synthetic function-exit node: every return, every fall
	// off the end, and every goto (conservatively) leads here.
	Exit *Node

	nodes map[ast.Stmt]*Node
}

// NodeFor returns the CFG node of a statement, or nil if the statement is
// not part of this graph (e.g. it lives in a nested function literal).
func (g *CFG) NodeFor(s ast.Stmt) *Node { return g.nodes[s] }

// ReachesExitAvoiding reports whether some path from the statement AFTER
// `from` to function exit avoids every node for which avoid returns true.
// It answers the pairing question "can control leave the function without
// passing a settle/release?" — from's own node is not consulted.
func (g *CFG) ReachesExitAvoiding(from ast.Stmt, avoid func(*Node) bool) bool {
	start := g.nodes[from]
	if start == nil {
		return false
	}
	seen := make(map[*Node]bool)
	var dfs func(n *Node) bool
	dfs = func(n *Node) bool {
		if seen[n] {
			return false
		}
		seen[n] = true
		if avoid(n) {
			return false
		}
		if n == g.Exit {
			return true
		}
		for _, s := range n.Succs {
			if dfs(s) {
				return true
			}
		}
		return false
	}
	for _, s := range start.Succs {
		if dfs(s) {
			return true
		}
	}
	return false
}

// AllPathsPass reports whether every path from Entry to Exit passes at
// least one node for which hit returns true. Paths that never reach Exit
// (infinite loops, panics) do not count against it.
func (g *CFG) AllPathsPass(hit func(*Node) bool) bool {
	seen := make(map[*Node]bool)
	var avoids func(n *Node) bool // true: Exit reachable without a hit node
	avoids = func(n *Node) bool {
		if seen[n] {
			return false
		}
		seen[n] = true
		if hit(n) {
			return false
		}
		if n == g.Exit {
			return true
		}
		for _, s := range n.Succs {
			if avoids(s) {
				return true
			}
		}
		return false
	}
	return !avoids(g.Entry)
}

// WalkFrom visits every node reachable from the statement AFTER `from`,
// calling f once per node. When f returns true the walk does not continue
// past that node (its successors are not explored through it).
func (g *CFG) WalkFrom(from ast.Stmt, f func(*Node) (stop bool)) {
	start := g.nodes[from]
	if start == nil {
		return
	}
	seen := make(map[*Node]bool)
	var dfs func(n *Node)
	dfs = func(n *Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		if f(n) {
			return
		}
		for _, s := range n.Succs {
			dfs(s)
		}
	}
	for _, s := range start.Succs {
		dfs(s)
	}
}

// cfgBuilder threads break/continue targets and the label table through the
// recursive construction.
type cfgBuilder struct {
	g          *CFG
	terminates func(ast.Stmt) bool
	breaks     []*Node          // innermost-last unlabeled break targets
	continues  []*Node          // innermost-last unlabeled continue targets
	labelBreak map[string]*Node // label -> break target
	labelCont  map[string]*Node // label -> continue target
	pendLabels []string         // labels attached to the next loop/switch
}

// BuildCFG constructs the CFG of a function body. terminates reports
// statements that never return control (panic and friends); it may be nil.
func BuildCFG(body *ast.BlockStmt, terminates func(ast.Stmt) bool) *CFG {
	if terminates == nil {
		terminates = func(ast.Stmt) bool { return false }
	}
	g := &CFG{Exit: &Node{}, nodes: make(map[ast.Stmt]*Node)}
	b := &cfgBuilder{
		g:          g,
		terminates: terminates,
		labelBreak: make(map[string]*Node),
		labelCont:  make(map[string]*Node),
	}
	g.Entry = b.block(body.List, g.Exit)
	if g.Entry == nil {
		g.Entry = g.Exit
	}
	return g
}

func (b *cfgBuilder) newNode(s ast.Stmt, parts ...ast.Node) *Node {
	n := &Node{Stmt: s}
	for _, p := range parts {
		if p != nil {
			n.Parts = append(n.Parts, p)
		}
	}
	b.g.nodes[s] = n
	return n
}

// block wires a statement list so it flows into next, returning its entry.
func (b *cfgBuilder) block(list []ast.Stmt, next *Node) *Node {
	entry := next
	for i := len(list) - 1; i >= 0; i-- {
		entry = b.stmt(list[i], entry)
	}
	if len(list) == 0 {
		return next
	}
	return entry
}

// stmt builds the node(s) for one statement flowing into next, returning
// the statement's entry node.
func (b *cfgBuilder) stmt(s ast.Stmt, next *Node) *Node {
	switch s := s.(type) {
	case *ast.BlockStmt:
		n := b.newNode(s) // empty header node keeps NodeFor total
		n.Succs = []*Node{b.block(s.List, next)}
		return n

	case *ast.IfStmt:
		n := b.newNode(s, s.Init, s.Cond)
		thenEntry := b.block(s.Body.List, next)
		elseEntry := next
		if s.Else != nil {
			elseEntry = b.stmt(s.Else, next)
		}
		n.Succs = []*Node{thenEntry, elseEntry}
		return n

	case *ast.ForStmt:
		head := b.newNode(s, s.Init, s.Cond, s.Post)
		b.pushLoop(head, next)
		bodyEntry := b.block(s.Body.List, head)
		b.popLoop()
		head.Succs = []*Node{bodyEntry}
		if s.Cond != nil {
			head.Succs = append(head.Succs, next)
		}
		return head

	case *ast.RangeStmt:
		head := b.newNode(s, s.Key, s.Value, s.X)
		b.pushLoop(head, next)
		bodyEntry := b.block(s.Body.List, head)
		b.popLoop()
		head.Succs = []*Node{bodyEntry, next}
		return head

	case *ast.SwitchStmt:
		return b.switchLike(s, next, s.Init, s.Tag, s.Body.List)

	case *ast.TypeSwitchStmt:
		return b.switchLike(s, next, s.Init, s.Assign, s.Body.List)

	case *ast.SelectStmt:
		head := b.newNode(s)
		b.pushBreakable(next)
		hasDefault := false
		for _, cc := range s.Body.List {
			cc := cc.(*ast.CommClause)
			clause := b.newNode(cc, cc.Comm)
			clause.Succs = []*Node{b.block(cc.Body, next)}
			head.Succs = append(head.Succs, clause)
			if cc.Comm == nil {
				hasDefault = true
			}
		}
		b.popBreakable()
		_ = hasDefault // a default-less select blocks; flow-wise all clauses are covered
		if len(head.Succs) == 0 {
			head.Succs = []*Node{next}
		}
		return head

	case *ast.ReturnStmt:
		n := b.newNode(s, s)
		n.Succs = []*Node{b.g.Exit}
		return n

	case *ast.BranchStmt:
		n := b.newNode(s, s)
		switch s.Tok.String() {
		case "break":
			if s.Label != nil {
				if t := b.labelBreak[s.Label.Name]; t != nil {
					n.Succs = []*Node{t}
					return n
				}
			} else if len(b.breaks) > 0 {
				n.Succs = []*Node{b.breaks[len(b.breaks)-1]}
				return n
			}
		case "continue":
			if s.Label != nil {
				if t := b.labelCont[s.Label.Name]; t != nil {
					n.Succs = []*Node{t}
					return n
				}
			} else if len(b.continues) > 0 {
				n.Succs = []*Node{b.continues[len(b.continues)-1]}
				return n
			}
		case "fallthrough":
			// Handled structurally by switchLike; a stray fallthrough
			// behaves like reaching the end of the clause.
			n.Succs = []*Node{next}
			return n
		}
		// Unresolvable target (goto, or a label we did not see): exit,
		// conservatively.
		n.Succs = []*Node{b.g.Exit}
		return n

	case *ast.LabeledStmt:
		// Register the label before building the labeled statement so
		// `continue L` / `break L` inside it resolve. The label targets are
		// filled by pushLoop via pendLabels.
		b.pendLabels = append(b.pendLabels, s.Label.Name)
		inner := b.stmt(s.Stmt, next)
		b.pendLabels = b.pendLabels[:0]
		// A labeled non-loop statement: label break jumps past it.
		if _, isLoop := s.Stmt.(*ast.ForStmt); !isLoop {
			if _, isRange := s.Stmt.(*ast.RangeStmt); !isRange {
				b.labelBreak[s.Label.Name] = next
			}
		}
		n := b.newNode(s)
		n.Succs = []*Node{inner}
		return n

	default:
		// Simple statement: decl, assignment, expression, send, defer, go,
		// inc/dec, empty.
		n := b.newNode(s, s)
		if b.terminates(s) {
			return n // no successors: this path never reaches Exit
		}
		n.Succs = []*Node{next}
		return n
	}
}

// switchLike builds expression and type switches: header -> every clause
// (plus next when no default), clause bodies -> next, fallthrough -> the
// next clause's body.
func (b *cfgBuilder) switchLike(s ast.Stmt, next *Node, init ast.Stmt, tag ast.Node, clauses []ast.Stmt) *Node {
	head := b.newNode(s, init, tag)
	b.pushBreakable(next)
	hasDefault := false
	// Build clause bodies last-to-first so fallthrough can target the
	// following clause's body entry.
	type built struct {
		clause *Node
	}
	entries := make([]built, len(clauses))
	followingBody := next
	for i := len(clauses) - 1; i >= 0; i-- {
		cc := clauses[i].(*ast.CaseClause)
		clause := b.newNode(cc, exprsToNodes(cc.List)...)
		bodyEntry := b.blockWithFallthrough(cc.Body, next, followingBody)
		clause.Succs = []*Node{bodyEntry}
		entries[i] = built{clause: clause}
		followingBody = bodyEntry
		if len(cc.List) == 0 {
			hasDefault = true
		}
	}
	b.popBreakable()
	for _, e := range entries {
		head.Succs = append(head.Succs, e.clause)
	}
	if !hasDefault || len(entries) == 0 {
		head.Succs = append(head.Succs, next)
	}
	return head
}

// blockWithFallthrough builds a case body whose trailing fallthrough flows
// into ftTarget instead of next.
func (b *cfgBuilder) blockWithFallthrough(list []ast.Stmt, next, ftTarget *Node) *Node {
	if n := len(list); n > 0 {
		if br, ok := list[n-1].(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
			ft := b.newNode(br, br)
			ft.Succs = []*Node{ftTarget}
			return b.block(list[:n-1], ft)
		}
	}
	return b.block(list, next)
}

func (b *cfgBuilder) pushLoop(head, after *Node) {
	b.breaks = append(b.breaks, after)
	b.continues = append(b.continues, head)
	for _, l := range b.pendLabels {
		b.labelBreak[l] = after
		b.labelCont[l] = head
	}
	b.pendLabels = b.pendLabels[:0]
}

func (b *cfgBuilder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

func (b *cfgBuilder) pushBreakable(after *Node) {
	b.breaks = append(b.breaks, after)
	for _, l := range b.pendLabels {
		b.labelBreak[l] = after
	}
	b.pendLabels = b.pendLabels[:0]
}

func (b *cfgBuilder) popBreakable() {
	b.breaks = b.breaks[:len(b.breaks)-1]
}

func exprsToNodes(exprs []ast.Expr) []ast.Node {
	out := make([]ast.Node, len(exprs))
	for i, e := range exprs {
		out[i] = e
	}
	return out
}
