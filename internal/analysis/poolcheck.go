package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// poolOwnerPackages are the data-plane packages whose functions take
// ownership of pooled packets and are therefore subject to the leak check.
// Observer packages (invariant, metrics) inspect packets they do not
// own and are exempt; internal/fabric implements the pool itself.
var poolOwnerPackages = []string{
	"internal/switchsim", "internal/transport", "internal/core",
	"internal/dcqcn", "internal/topo", "internal/lb",
}

// Poolcheck is the static twin of the runtime packet-pool conservation
// invariant (internal/invariant, strict tier). It flags (a) fabric.Packet
// composite literals and new(fabric.Packet) outside internal/fabric — frames
// must come from the per-simulation fabric.Pool so the conservation audit
// sees them — and (b) functions in data-plane packages that own a pooled
// *fabric.Packet yet have a terminating path on which the packet is neither
// released, forwarded, stored, nor returned: a leaked frame.
//
// Ownership and consumption are interprocedural, driven by the module's
// bottom-up summaries (see summary.go) instead of a name whitelist: a
// parameter is owned when this function's summary says so (it stores,
// returns, or sends the packet, or hands it to a callee chain ending in a
// real sink like Pool.put); a call discharges the obligation only when
// every resolved callee owns the corresponding parameter. Handing a frame
// to a read-only helper no longer counts as consuming it, so leaks through
// borrowing helpers are findings in the caller, while a leak inside a
// partially-consuming helper is reported once, in the helper itself.
var Poolcheck = &Analyzer{
	Name: "poolcheck",
	Doc: "fabric.Packet must be constructed inside internal/fabric and " +
		"consumed (forwarded, stored, returned, or released) on every path",
	Run: runPoolcheck,
}

func runPoolcheck(p *Pass) {
	if pathHasSuffix(p.Pkg.Path, "internal/fabric") {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if t := p.TypeOf(n); t != nil && isNamed(t, "internal/fabric", "Packet") {
					p.Reportf(n.Pos(), "fabric.Packet composite literal outside internal/fabric; frames must come from the simulation's fabric.Pool")
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "new" && len(n.Args) == 1 {
					if _, isBuiltin := p.ObjectOf(id).(*types.Builtin); isBuiltin {
						if t := p.TypeOf(n.Args[0]); t != nil && isNamed(t, "internal/fabric", "Packet") {
							p.Reportf(n.Pos(), "new(fabric.Packet) outside internal/fabric; frames must come from the simulation's fabric.Pool")
						}
					}
				}
			}
			return true
		})
	}

	owner := false
	for _, s := range poolOwnerPackages {
		if pathHasSuffix(p.Pkg.Path, s) {
			owner = true
		}
	}
	if !owner {
		return
	}
	sums := p.Mod.Summaries()
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPacketLeaks(p, sums, fd)
		}
	}
}

// isPacketPtr reports whether t is *fabric.Packet.
func isPacketPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	return ok && isNamed(ptr.Elem(), "internal/fabric", "Packet")
}

// checkPacketLeaks runs the per-function leak analysis: for every packet the
// function owns, walk the body tracking whether the packet has been consumed
// (released, forwarded to an owning callee, returned, stored, or sent) and
// report terminating paths that drop it. Loops and switches are treated
// optimistically (a consumption anywhere inside counts), so the check
// under-reports rather than spamming.
//
// Ownership is decided per candidate:
//   - a variable built from a call returning *fabric.Packet (pool.Data,
//     pool.Control, fabric.NewData, ...) is always owned from its
//     definition onward;
//   - a parameter is owned exactly when the module summary infers it — the
//     function stores, returns, or sends the packet somewhere, or hands it
//     to a callee chain that does. Pure decision functions
//     (lb.Chooser.Choose, Router.Route, Agent.Pick) borrow the packet and
//     are exempt.
func checkPacketLeaks(p *Pass, sums *summaries, fd *ast.FuncDecl) {
	type candidate struct {
		obj    types.Object
		defPos token.Pos
	}
	var cands []candidate
	fn, _ := p.Pkg.Info.Defs[fd.Name].(*types.Func)
	if fd.Type.Params != nil && fn != nil {
		idx := 0
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				obj := p.ObjectOf(name)
				if obj != nil && isPacketPtr(obj.Type()) && sums.paramOwner(fn, idx) {
					cands = append(cands, candidate{obj: obj, defPos: fd.Body.Pos()})
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		if _, isCall := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); !isCall {
			return true
		}
		if obj := p.ObjectOf(id); obj != nil && isPacketPtr(obj.Type()) {
			cands = append(cands, candidate{obj: obj, defPos: as.Pos()})
		}
		return true
	})

	for _, cand := range cands {
		lc := &leakChecker{pass: p, sums: sums, obj: cand.obj, defPos: cand.defPos}
		end := lc.walk(fd.Body.List, false)
		if !end.terminated && !end.consumed {
			p.Reportf(fd.Body.Rbrace, "function %s can fall through without releasing or forwarding %s; call fabric.Release on every terminating path", fd.Name.Name, cand.obj.Name())
		}
	}
}

// leakChecker tracks one packet object through one function body.
type leakChecker struct {
	pass   *Pass
	sums   *summaries
	obj    types.Object
	defPos token.Pos
}

// flowState is the packet's state at a program point.
type flowState struct {
	consumed   bool // the packet has been consumed on every path reaching here
	terminated bool // control cannot fall through (return/panic on all paths)
}

// walk processes a statement list, reporting returns that drop the packet,
// and returns the state at the fall-through point.
func (lc *leakChecker) walk(stmts []ast.Stmt, consumed bool) flowState {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.ReturnStmt:
			// Returns before the packet exists cannot drop it.
			if s.Pos() >= lc.defPos && !consumed && !lc.stmtConsumes(s) {
				lc.pass.Reportf(s.Pos(), "return drops pooled packet %s without releasing or forwarding it; call fabric.Release or hand it off first", lc.obj.Name())
			}
			return flowState{consumed: true, terminated: true}
		case *ast.IfStmt:
			if s.Init != nil && lc.stmtConsumes(s.Init) {
				consumed = true
			}
			if lc.exprConsumes(s.Cond) {
				consumed = true
			}
			thenSt := lc.walk(s.Body.List, consumed)
			elseSt := flowState{consumed: consumed}
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				elseSt = lc.walk(e.List, consumed)
			case *ast.IfStmt:
				elseSt = lc.walk([]ast.Stmt{e}, consumed)
			}
			switch {
			case thenSt.terminated && elseSt.terminated:
				return flowState{consumed: true, terminated: true}
			case thenSt.terminated:
				consumed = elseSt.consumed
			case elseSt.terminated:
				consumed = thenSt.consumed
			default:
				consumed = thenSt.consumed && elseSt.consumed
			}
		case *ast.BlockStmt:
			st := lc.walk(s.List, consumed)
			if st.terminated {
				return st
			}
			consumed = st.consumed
		case *ast.ExprStmt:
			if isPanicCall(s.X) {
				return flowState{consumed: true, terminated: true}
			}
			if lc.stmtConsumes(s) {
				consumed = true
			}
		default:
			// Loops, switches, selects, assignments, defers: optimistic —
			// any consumption inside counts for the remainder of the path.
			if lc.stmtConsumes(s) {
				consumed = true
			}
		}
	}
	return flowState{consumed: consumed}
}

// stmtConsumes reports whether any consuming use of the packet occurs inside
// n. Consuming uses: appearing in an argument of a call that the module
// summaries say takes ownership (or that cannot be resolved), in a return,
// as an assignment's right-hand side (storing/aliasing), in a composite
// literal, or as a channel-send value. A bare method call on the packet, a
// field read, or handing the packet to a resolved borrower does not consume.
func (lc *leakChecker) stmtConsumes(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		switch m := m.(type) {
		case *ast.CallExpr:
			for i, arg := range m.Args {
				if lc.mentions(arg) && lc.sums.callConsumes(lc.pass.Pkg, m, i) {
					found = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range m.Results {
				if lc.mentions(r) {
					found = true
				}
			}
		case *ast.AssignStmt:
			for _, r := range m.Rhs {
				if lc.mentionsBare(r) {
					found = true
				}
			}
		case *ast.CompositeLit:
			for _, el := range m.Elts {
				if lc.mentions(el) {
					found = true
				}
			}
		case *ast.SendStmt:
			if lc.mentions(m.Value) {
				found = true
			}
		}
		return !found
	})
	return found
}

func (lc *leakChecker) exprConsumes(e ast.Expr) bool {
	if e == nil {
		return false
	}
	return lc.stmtConsumes(e)
}

// mentions reports whether the packet identifier appears anywhere in e except
// as the receiver of a selector (pkt.Size reads, pkt.Foo() calls).
func (lc *leakChecker) mentions(e ast.Expr) bool {
	return mentionsObj(lc.pass.Pkg, lc.obj, e)
}

// mentionsBare is mentions restricted to the whole expression being the
// packet (possibly parenthesized): "x = pkt" stores it, "x = pkt.Seq" only
// reads it.
func (lc *leakChecker) mentionsBare(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return lc.pass.ObjectOf(x) == lc.obj
	case *ast.CompositeLit, *ast.CallExpr, *ast.UnaryExpr:
		// Wrapping the packet in a literal, call, or &expr still hands the
		// reference off.
		return lc.mentions(e)
	}
	return false
}

// isPanicCall reports whether e is a call to the builtin panic.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
