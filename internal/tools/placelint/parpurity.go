package main

import (
	"go/ast"
	"go/types"
)

// checkParPurity makes PR 3's compute-then-reduce discipline
// interprocedural. pardiscipline polices the worker closure's own writes;
// parpurity polices what the closure calls: every function invoked (by
// static call) from a closure handed to internal/par (Run, ForShards) must
// be transitively free of
//
//   - writes to package-level variables (a hidden shared accumulator two
//     frames down races and schedule-orders exactly like an inline one),
//   - wall-clock reads and math/rand (a worker whose result depends on
//     time or unseeded randomness breaks bit-identity across worker
//     counts — the property TestWorkersBitIdentical pins).
//
// Writes through the callee's own parameters and receivers are the
// caller's business and stay legal — that is how workers fill their owned
// slots. Dynamic calls (function values, interface methods) inside worker
// closures are out of scope here; hotalloc treats them conservatively, but
// purity of a value-carried callee is the closure author's to guarantee.
// A callee that is safe anyway carries //placelint:ignore parpurity
// <reason> at the offending write, which clears the fact for every worker
// path reaching it.
func checkParPurity(p *pass) {
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isParPoolCall(p.info, call) {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					p.checkWorkerCalls(lit)
				}
			}
			return true
		})
	}
}

// checkWorkerCalls inspects every static call inside one worker closure
// and reports callees whose fact summary is impure.
func (p *pass) checkWorkerCalls(lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(p.info, call)
		if fn == nil {
			return true
		}
		ff := p.db.factsFor(fn)
		if ff == nil {
			return true // external or bodyless: walltime covers direct time/rand calls
		}
		label := funcLabel(fn)
		if ff.write != nil {
			p.reportf(call.Pos(), "parpurity",
				"%s is called from a par worker closure but transitively writes non-worker-owned state: %s; compute into owned slots and reduce after the pool call", label, ff.write.describe())
		}
		if ff.clock != nil {
			p.reportf(call.Pos(), "parpurity",
				"%s is called from a par worker closure but transitively reads the wall clock: %s; worker results must not depend on time", label, ff.clock.describe())
		}
		if ff.rand != nil {
			p.reportf(call.Pos(), "parpurity",
				"%s is called from a par worker closure but transitively consumes math/rand: %s; worker results must be deterministic", label, ff.rand.describe())
		}
		return true
	})
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
