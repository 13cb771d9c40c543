package main

import (
	"go/ast"
	"go/types"
	"strings"
)

// checkParDiscipline enforces the compute-then-reduce rule inside closures
// handed to the internal/par pool (Run, ForShards): a worker may write only
// to slots it owns — slice elements indexed by a value derived from the
// closure's own parameters or locals (the lo..hi range, the shard index, a
// loop variable over them). Anything else is either a data race or, for
// commutative-looking float accumulation, a silent dependence on the
// dynamic schedule: `sum += v` inside a par closure produces a different
// rounding at every worker count, which is exactly the bug class the golden
// TestWorkersBitIdentical exists to catch — placelint rejects it before it
// runs.
//
// Flagged writes, from worst to subtlest:
//
//   - assignment or += into a captured plain variable (shared accumulator);
//   - any write into a captured map (maps have no owned slots);
//   - a write into a captured slice at an index with no closure-local
//     component (e.g. s[0] += v — a disguised shared accumulator);
//   - delete on a captured map, copy into a captured slice not sliced by a
//     closure-local bound.
//
// The rule holds through call frames too: a function the closure calls by
// static call must not transitively write a package-level variable, since a
// shared accumulator two frames down races and schedule-orders exactly like
// an inline one. Writes through the callee's own parameters and receivers
// stay legal — that is how workers fill their owned slots. Function values
// and interface methods are not followed.
//
// Reductions belong after the pool call, serially, in index order. A write
// that is provably safe anyway (e.g. idempotent same-value stores) carries
// //placelint:ignore pardiscipline <reason>; on a callee's write it clears
// the fact for every worker path that reaches it.
func checkParDiscipline(p *pass) {
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isParPoolCall(p.info, call) {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					p.checkParClosure(lit)
				}
			}
			return true
		})
	}
}

// parMethods are the pool entry points whose closure arguments run
// concurrently.
var parMethods = map[string]bool{"Run": true, "ForShards": true}

// isParPoolCall reports whether call invokes a method of internal/par.Pool
// that takes a worker closure.
func isParPoolCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !parMethods[sel.Sel.Name] {
		return false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return strings.HasSuffix(obj.Pkg().Path(), "internal/par")
}

// checkParClosure walks one worker closure and reports every write that
// escapes the worker-owned slots.
func (p *pass) checkParClosure(lit *ast.FuncLit) {
	locals := map[types.Object]bool{}
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if o := p.info.Defs[id]; o != nil {
				locals[o] = true
			}
		}
		return true
	})
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				p.checkParWrite(lhs, locals)
			}
		case *ast.IncDecStmt:
			p.checkParWrite(s.X, locals)
		case *ast.CallExpr:
			p.checkParBuiltin(s, locals)
			p.checkParCallee(s)
		}
		return true
	})
}

// checkParWrite classifies one assignment target inside a par closure.
func (p *pass) checkParWrite(lhs ast.Expr, locals map[types.Object]bool) {
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	idxLocal, mapWrite := false, false
	root := lhs
unwrap:
	for {
		switch t := root.(type) {
		case *ast.ParenExpr:
			root = t.X
		case *ast.StarExpr:
			root = t.X
		case *ast.SelectorExpr:
			root = t.X
		case *ast.IndexExpr:
			if xt := p.info.TypeOf(t.X); xt != nil {
				if _, ok := xt.Underlying().(*types.Map); ok {
					mapWrite = true
				}
			}
			if exprUsesAny(p.info, t.Index, locals) {
				idxLocal = true
			}
			root = t.X
		case *ast.SliceExpr:
			for _, b := range []ast.Expr{t.Low, t.High, t.Max} {
				if b != nil && exprUsesAny(p.info, b, locals) {
					idxLocal = true
				}
			}
			root = t.X
		default:
			break unwrap
		}
	}
	id, ok := root.(*ast.Ident)
	if !ok {
		return // write through a call result etc. — out of scope
	}
	obj := p.info.Uses[id]
	if obj == nil {
		obj = p.info.Defs[id] // := definitions are locals by construction
	}
	if obj == nil || locals[obj] {
		return
	}
	switch {
	case root == lhs:
		p.reportf(lhs.Pos(), "pardiscipline",
			"write to captured variable %s inside a par closure: a shared accumulator depends on the worker schedule; compute into per-index slots and reduce serially after the pool call", id.Name)
	case mapWrite:
		p.reportf(lhs.Pos(), "pardiscipline",
			"write into captured map %s inside a par closure: maps have no worker-owned slots (data race); collect per-worker and merge after the pool call", id.Name)
	case !idxLocal:
		p.reportf(lhs.Pos(), "pardiscipline",
			"write into captured %s at an index not derived from the closure's range: the slot is shared across workers; index by the worker's own lo..hi range or slot", id.Name)
	}
}

// checkParCallee reports a static callee whose fact summary writes a
// package-level variable.
func (p *pass) checkParCallee(call *ast.CallExpr) {
	fn := staticCallee(p.info, call)
	if fn == nil {
		return
	}
	if ff := p.db.factsFor(fn); ff != nil && ff.write != nil {
		p.reportf(call.Pos(), "pardiscipline",
			"%s is called from a par worker closure but transitively writes non-worker-owned state: %s; compute into owned slots and reduce after the pool call", funcLabel(fn), ff.write.describe())
	}
}

// staticCallee resolves the statically-known callee of call: a named
// function or a method on a concrete receiver. Function values and
// interface methods return nil (dynamic dispatch).
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil &&
		types.IsInterface(sig.Recv().Type()) {
		return nil
	}
	return fn
}

// checkParBuiltin flags the mutating builtins: delete on a captured map and
// copy into a captured destination without a closure-local slice bound.
func (p *pass) checkParBuiltin(call *ast.CallExpr, locals map[types.Object]bool) {
	fn, ok := call.Fun.(*ast.Ident)
	if !ok {
		return
	}
	b, ok := p.info.Uses[fn].(*types.Builtin)
	if !ok {
		return
	}
	switch b.Name() {
	case "delete":
		if len(call.Args) > 0 {
			if id, ok := call.Args[0].(*ast.Ident); ok {
				obj := p.info.Uses[id]
				if obj != nil && !locals[obj] {
					p.reportf(id.Pos(), "pardiscipline",
						"delete on captured map %s inside a par closure: maps have no worker-owned slots (data race)", id.Name)
				}
			}
		}
	case "copy":
		if len(call.Args) > 0 {
			p.checkParWriteDst(call.Args[0], locals)
		}
	}
}

// checkParWriteDst treats e as a write destination (for copy): fine only
// when it is closure-local or sliced by a closure-local bound.
func (p *pass) checkParWriteDst(e ast.Expr, locals map[types.Object]bool) {
	if se, ok := e.(*ast.SliceExpr); ok {
		for _, b := range []ast.Expr{se.Low, se.High, se.Max} {
			if b != nil && exprUsesAny(p.info, b, locals) {
				return
			}
		}
		e = se.X
	}
	if id, ok := e.(*ast.Ident); ok {
		obj := p.info.Uses[id]
		if obj == nil || locals[obj] {
			return
		}
		p.reportf(e.Pos(), "pardiscipline",
			"copy into captured %s inside a par closure without a closure-local slice bound: the destination is shared across workers", id.Name)
	}
}
