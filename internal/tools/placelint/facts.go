package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural facts engine. Every function declared in
// a loaded module package gets a summary of four facts:
//
//	readsClock     reaches time.Now / time.Since / time.Until
//	readsRand      reaches math/rand (v1 or v2)
//	mayAllocate    reaches a heap allocation: make, new, append growth,
//	               map/slice literals, &composite literals, closure capture,
//	               interface boxing, string concatenation/conversion, fmt
//	               calls, defer inside a loop, go statements, variadic
//	               argument slices, or a call that cannot be proven
//	               allocation-free (dynamic dispatch, unknown stdlib)
//	writesNonLocal writes a package-level variable
//
// Facts are transitive: a fact set on a callee propagates to every caller,
// computed bottom-up over the strongly-connected components of the
// cross-package call graph (Tarjan emits each SCC after everything it can
// reach, so callee summaries are final when a caller folds them in; within
// an SCC a fix-point handles recursion). Each propagated fact carries a
// trace — the root cause, its position, and the call chain — so a check can
// report "this call two frames up is why" instead of a bare boolean.
//
// Three boundaries keep the facts aligned with the repository's contracts:
//
//   - Owner packages absorb their own facts. internal/obs and internal/gen
//     own the clock and seeded randomness (the §11 walltime allowlist), and
//     internal/faultinject owns its explicitly seeded PRNG; clock/rand facts
//     never escape them, so routing timing through obs.Stopwatch stays the
//     sanctioned idiom under the transitive check too.
//   - A reasoned //placelint:ignore at the fact's source clears the fact
//     itself, not just the local diagnostic: the suppression is an assertion
//     that the invariant holds, so callers must not keep paying for it.
//     Clock/rand sites answer to "walltime", allocation sites to "hotalloc",
//     non-local writes to "pardiscipline".
//   - External (non-module) functions come from a knowledge table: math,
//     math/bits, sync/atomic and context are allocation-free; time and
//     math/rand carry their obvious facts; fmt allocates; anything else is
//     conservatively "not proven allocation-free" but contributes no
//     clock/rand/write facts.
type factDB struct {
	l     *loader
	funcs map[*types.Func]*funcFacts
	// usedIgnores records directives consumed by fact clearing, so the
	// unusedignore audit counts them as live even though they suppressed a
	// fact rather than a printed diagnostic.
	usedIgnores map[*ignoreDirective]bool
}

// site is one local fact source inside a function body.
type site struct {
	pos    token.Pos
	reason string
}

// callSite is one call expression inside a function body. Static calls
// carry the callee object; dynamic calls (function values, non-allowlisted
// interface methods) surface as allocation sites instead, because they
// cannot be traversed.
type callSite struct {
	pos    token.Pos
	callee *types.Func
}

// trace is one transitive fact: the root cause, where it lives, and the
// call chain from the summarized function down to it (empty for a local
// cause). site is where the fact enters the summarized function — the
// local fact itself, or the call that reaches it — so checks report inside
// the function they flag.
type trace struct {
	reason string
	pos    token.Position
	chain  []string
	site   token.Pos
}

// describe renders the trace for a diagnostic: cause, position, and chain.
func (t *trace) describe() string {
	s := fmt.Sprintf("%s at %s", t.reason, t.pos)
	if len(t.chain) > 0 {
		s += " (via " + strings.Join(t.chain, " → ") + ")"
	}
	return s
}

// funcFacts is the per-function summary: the locally observed sites, the
// statically resolved call edges, and the transitive fact traces (nil when
// the function is clean for that fact).
type funcFacts struct {
	fn      *types.Func
	lp      *lintPkg
	decl    *ast.FuncDecl
	hotpath bool // carries a //placelint:hotpath annotation

	allocs []site
	clocks []site
	rands  []site
	writes []site
	calls  []callSite

	alloc, clock, rand, write *trace
}

// hotpathPrefix marks a function whose whole transitive call tree must be
// allocation-free: //placelint:hotpath in the doc comment.
const hotpathPrefix = "//placelint:hotpath"

// Owner-package predicates: facts of these kinds never escape the packages
// that legitimately own the capability (mirror of the walltime allowlist).
func isClockOwner(pkgPath string) bool {
	return strings.Contains(pkgPath, "internal/obs") ||
		strings.Contains(pkgPath, "internal/gen")
}

func isRandOwner(pkgPath string) bool {
	return isClockOwner(pkgPath) || strings.Contains(pkgPath, "internal/faultinject")
}

// newFactDB scans every package the loader has materialized and computes
// the transitive summaries. The loader caches packages for the process
// lifetime, so fact summaries are computed from identical ASTs on every
// build — one lint invocation builds the database once and every check
// shares it.
func newFactDB(l *loader) *factDB {
	db := &factDB{l: l, funcs: map[*types.Func]*funcFacts{}, usedIgnores: map[*ignoreDirective]bool{}}
	// Deterministic package order, then file/declaration order within.
	paths := make([]string, 0, len(l.pkgs))
	for p := range l.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var all []*funcFacts
	for _, p := range paths {
		lp := l.pkgs[p]
		for _, f := range lp.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := lp.info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				ff := db.scanFunc(lp, fd, obj)
				db.funcs[obj] = ff
				all = append(all, ff)
			}
		}
	}
	db.propagate(all)
	return db
}

// funcLabel names a function for chain rendering: pkgname.Func or
// pkgname.Recv.Method.
func funcLabel(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if n, ok := rt.(*types.Named); ok {
			name = n.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// scanner carries the per-function walk state.
type scanner struct {
	db  *factDB
	lp  *lintPkg
	ff  *funcFacts
	fn  *types.Func
	pkg *types.Package
}

// scanFunc computes the local facts of one function declaration. Nested
// function literals fold into the enclosing declaration: a closure the
// function builds may run on any of its paths, so its effects (and the
// capture allocation itself) belong to the builder's summary.
func (db *factDB) scanFunc(lp *lintPkg, decl *ast.FuncDecl, obj *types.Func) *funcFacts {
	ff := &funcFacts{fn: obj, lp: lp, decl: decl}
	if decl.Doc != nil {
		for _, c := range decl.Doc.List {
			if strings.HasPrefix(c.Text, hotpathPrefix) {
				ff.hotpath = true
			}
		}
	}
	s := &scanner{db: db, lp: lp, ff: ff, fn: obj, pkg: lp.pkg}
	sig, _ := obj.Type().(*types.Signature)
	s.scanBody(decl.Body, sig, 0)
	return ff
}

// addFact records one local fact site unless a matching suppression covers
// its line; a consumed suppression is marked used so the unusedignore audit
// keeps it.
func (s *scanner) addFact(kind string, pos token.Pos, reason string) {
	position := s.db.l.fset.Position(pos)
	var check string
	switch kind {
	case "clock", "rand":
		check = "walltime"
	case "alloc":
		check = "hotalloc"
	case "write":
		check = "pardiscipline"
	}
	if d := s.lp.ignoreAt(position.Filename, position.Line, check); d != nil {
		s.db.usedIgnores[d] = true
		return
	}
	st := site{pos: pos, reason: reason}
	switch kind {
	case "clock":
		if isClockOwner(s.lp.path) {
			return // the owner absorbs its own clock reads
		}
		s.ff.clocks = append(s.ff.clocks, st)
	case "rand":
		if isRandOwner(s.lp.path) {
			return
		}
		s.ff.rands = append(s.ff.rands, st)
	case "alloc":
		s.ff.allocs = append(s.ff.allocs, st)
	case "write":
		s.ff.writes = append(s.ff.writes, st)
	}
}

// scanBody walks one function (or folded closure) body. sig is the
// signature governing return-statement boxing; loopDepth tracks enclosing
// loops for the defer-in-loop rule.
func (s *scanner) scanBody(body *ast.BlockStmt, sig *types.Signature, loopDepth int) {
	var walk func(n ast.Node, depth int)
	var walkList func(list []ast.Stmt, depth int)
	walkStmt := func(st ast.Stmt, depth int) { walk(st, depth) }

	walkList = func(list []ast.Stmt, depth int) {
		for _, st := range list {
			walkStmt(st, depth)
		}
	}

	walk = func(n ast.Node, depth int) {
		switch t := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			s.scanFuncLit(t, depth)
			return
		case *ast.ForStmt:
			walk(t.Init, depth)
			walkExprTree(s, t.Cond, depth)
			walk(t.Post, depth)
			walkList(t.Body.List, depth+1)
			return
		case *ast.RangeStmt:
			walkExprTree(s, t.X, depth)
			walkList(t.Body.List, depth+1)
			return
		case *ast.DeferStmt:
			if depth > 0 {
				s.addFact("alloc", t.Pos(), "defer inside a loop (allocates per iteration)")
			}
			walkExprTree(s, t.Call, depth)
			return
		case *ast.GoStmt:
			s.addFact("alloc", t.Pos(), "go statement (allocates a goroutine)")
			walkExprTree(s, t.Call, depth)
			return
		case *ast.ReturnStmt:
			if sig != nil && sig.Results() != nil {
				res := sig.Results()
				if len(t.Results) == res.Len() {
					for i, e := range t.Results {
						s.checkBoxing(res.At(i).Type(), e, "return value")
					}
				}
			}
			for _, e := range t.Results {
				walkExprTree(s, e, depth)
			}
			return
		case *ast.AssignStmt:
			s.scanAssign(t)
			for _, e := range t.Lhs {
				walkExprTree(s, e, depth)
			}
			for _, e := range t.Rhs {
				walkExprTree(s, e, depth)
			}
			return
		case *ast.IncDecStmt:
			s.checkNonLocalWrite(t.X)
			walkExprTree(s, t.X, depth)
			return
		case *ast.BlockStmt:
			walkList(t.List, depth)
			return
		case *ast.IfStmt:
			walk(t.Init, depth)
			walkExprTree(s, t.Cond, depth)
			walkList(t.Body.List, depth)
			walk(t.Else, depth)
			return
		case *ast.SwitchStmt:
			walk(t.Init, depth)
			walkExprTree(s, t.Tag, depth)
			walkList(t.Body.List, depth)
			return
		case *ast.TypeSwitchStmt:
			walk(t.Init, depth)
			walk(t.Assign, depth)
			walkList(t.Body.List, depth)
			return
		case *ast.CaseClause:
			for _, e := range t.List {
				walkExprTree(s, e, depth)
			}
			walkList(t.Body, depth)
			return
		case *ast.SelectStmt:
			walkList(t.Body.List, depth)
			return
		case *ast.CommClause:
			walk(t.Comm, depth)
			walkList(t.Body, depth)
			return
		case *ast.LabeledStmt:
			walk(t.Stmt, depth)
			return
		case *ast.ExprStmt:
			walkExprTree(s, t.X, depth)
			return
		case *ast.SendStmt:
			walkExprTree(s, t.Chan, depth)
			walkExprTree(s, t.Value, depth)
			return
		case *ast.DeclStmt:
			if gd, ok := t.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							walkExprTree(s, v, depth)
						}
					}
				}
			}
			return
		case ast.Stmt:
			// Branch/empty/etc: nothing to scan.
			return
		}
	}
	walkList(body.List, loopDepth)
}

// walkExprTree scans one expression tree for fact sources: calls,
// composite literals, string concatenation, conversions, and nested
// closures. depth is the enclosing loop depth (closures reset it).
func walkExprTree(s *scanner, e ast.Expr, depth int) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.FuncLit:
			s.scanFuncLit(t, depth)
			return false
		case *ast.CallExpr:
			s.scanCall(t)
			return true
		case *ast.CompositeLit:
			s.scanCompositeLit(t)
			return true
		case *ast.UnaryExpr:
			if t.Op == token.AND {
				if _, ok := t.X.(*ast.CompositeLit); ok {
					s.addFact("alloc", t.Pos(), "composite literal escapes to the heap (&T{...})")
				}
			}
			return true
		case *ast.BinaryExpr:
			if t.Op == token.ADD && isStringType(s.lp.info.TypeOf(t)) && !isConst(s.lp.info, t) {
				s.addFact("alloc", t.Pos(), "string concatenation")
			}
			return true
		}
		return true
	})
}

// scanFuncLit folds a function literal into the enclosing summary: the
// capture allocation (if it captures anything) plus everything its body
// does. Loop depth resets — the closure's own loops govern its defers.
func (s *scanner) scanFuncLit(lit *ast.FuncLit, depth int) {
	if name := s.captured(lit); name != "" {
		s.addFact("alloc", lit.Pos(), fmt.Sprintf("closure captures %s", name))
	}
	var litSig *types.Signature
	if t := s.lp.info.TypeOf(lit); t != nil {
		litSig, _ = t.(*types.Signature)
	}
	s.scanBody(lit.Body, litSig, 0)
	_ = depth
}

// captured returns the name of a variable the literal captures from its
// enclosing function (empty when it captures nothing — such literals
// compile to static functions and do not allocate).
func (s *scanner) captured(lit *ast.FuncLit) string {
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := s.lp.info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level: referenced, not captured
		}
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			name = v.Name()
		}
		return true
	})
	return name
}

// scanAssign records string-concat growth, interface boxing, and non-local
// writes for one assignment.
func (s *scanner) scanAssign(as *ast.AssignStmt) {
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 &&
		isStringType(s.lp.info.TypeOf(as.Lhs[0])) {
		s.addFact("alloc", as.Pos(), "string concatenation")
	}
	if len(as.Lhs) == len(as.Rhs) {
		for i, lhs := range as.Lhs {
			if lt := s.lp.info.TypeOf(lhs); lt != nil {
				s.checkBoxing(lt, as.Rhs[i], "assignment")
			}
		}
	}
	if as.Tok != token.DEFINE {
		for _, lhs := range as.Lhs {
			s.checkNonLocalWrite(lhs)
		}
	}
}

// checkNonLocalWrite records a write whose root is a package-level
// variable. Writes through parameters and receivers are the caller's
// business (it handed the memory over); writes to globals are what the
// pardiscipline contract forbids inside par worker call trees.
func (s *scanner) checkNonLocalWrite(lhs ast.Expr) {
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
			root = t.X
		case *ast.SliceExpr:
			root = t.X
		default:
			break unwrap
		}
	}
	id, ok := root.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	v, ok := s.lp.info.Uses[id].(*types.Var)
	if !ok {
		return
	}
	if v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		s.addFact("write", lhs.Pos(),
			fmt.Sprintf("write to package-level variable %s", v.Name()))
	}
}

// checkBoxing records an interface-boxing allocation when a concrete
// (non-interface, non-nil) value converts to an interface type.
func (s *scanner) checkBoxing(dst types.Type, src ast.Expr, what string) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	st := s.lp.info.TypeOf(src)
	if st == nil || types.IsInterface(st) {
		return
	}
	if b, ok := st.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	s.addFact("alloc", src.Pos(),
		fmt.Sprintf("%s boxes %s into an interface", what, types.TypeString(st, types.RelativeTo(s.pkg))))
}

// scanCall classifies one call expression: conversion, builtin, static
// call (edge into the call graph plus external knowledge), or dynamic call
// (an allocation fact of its own, because it cannot be proven).
func (s *scanner) scanCall(call *ast.CallExpr) {
	info := s.lp.info
	// Type conversion?
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		s.scanConversion(call, tv.Type)
		return
	}
	// Builtin?
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				s.addFact("alloc", call.Pos(), "make")
			case "new":
				s.addFact("alloc", call.Pos(), "new")
			case "append":
				s.addFact("alloc", call.Pos(), "append (may grow the backing array)")
			}
			return
		}
	}
	// Resolve the callee object.
	var obj types.Object
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		// Function value (or method value stored in a variable): dynamic.
		s.flagDynamic(call, "function value")
		s.scanCallArgs(call)
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil &&
		types.IsInterface(sig.Recv().Type()) {
		// Interface method: dynamic dispatch. context.Context's methods are
		// allocation-free by contract (Done returns a stored channel, Err a
		// stored error), and the cancellation idiom depends on them.
		if fn.Pkg() == nil || fn.Pkg().Path() != "context" {
			s.flagDynamic(call, fmt.Sprintf("interface method %s", funcLabel(fn)))
		}
		s.scanCallArgs(call)
		return
	}
	if fn.Pkg() != nil && (fn.Pkg().Path() == s.db.l.modulePath ||
		strings.HasPrefix(fn.Pkg().Path(), s.db.l.modulePath+"/")) {
		s.ff.calls = append(s.ff.calls, callSite{pos: call.Pos(), callee: fn})
	} else {
		s.scanExternalCall(call, fn)
	}
	s.scanCallArgs(call)
}

// flagDynamic records a dynamic call as an unprovable allocation.
func (s *scanner) flagDynamic(call *ast.CallExpr, what string) {
	s.addFact("alloc", call.Pos(),
		fmt.Sprintf("dynamic call through %s (cannot be proven allocation-free)", what))
}

// allocFreePkgs are external packages whose functions are known not to
// allocate on any path placer code exercises: pure math and raw atomics.
var allocFreePkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
	"context":     true,
}

// clockFuncs are the wall-clock reads of package time.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// scanExternalCall applies the knowledge table to a call outside the
// module.
func (s *scanner) scanExternalCall(call *ast.CallExpr, fn *types.Func) {
	path := fn.Pkg().Path()
	switch {
	case path == "time" && clockFuncs[fn.Name()]:
		s.addFact("clock", call.Pos(), "time."+fn.Name())
	case path == "math/rand" || path == "math/rand/v2":
		s.addFact("rand", call.Pos(), path+"."+fn.Name())
	case path == "fmt":
		s.addFact("alloc", call.Pos(), "fmt."+fn.Name()+" (fmt formats through interfaces and allocates)")
	case allocFreePkgs[path]:
		// Known allocation-free; no facts.
	default:
		s.addFact("alloc", call.Pos(),
			fmt.Sprintf("call to %s.%s (external, not proven allocation-free)", fn.Pkg().Name(), fn.Name()))
	}
}

// scanCallArgs records variadic-slice and boxing allocations for the
// arguments of any call whose signature is visible.
func (s *scanner) scanCallArgs(call *ast.CallExpr) {
	t := s.lp.info.TypeOf(call.Fun)
	if t == nil {
		return
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	n := params.Len()
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= n {
		s.addFact("alloc", call.Pos(), "variadic call (allocates the argument slice)")
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= n-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(n - 1).Type()
			} else if sl, ok := params.At(n - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < n:
			pt = params.At(i).Type()
		}
		s.checkBoxing(pt, arg, "argument")
	}
}

// scanConversion records allocating conversions: to interface (boxing) and
// the string<->byte/rune-slice copies. Constant conversions are free.
func (s *scanner) scanConversion(call *ast.CallExpr, dst types.Type) {
	if len(call.Args) != 1 || isConst(s.lp.info, call) {
		return
	}
	src := s.lp.info.TypeOf(call.Args[0])
	if src == nil {
		return
	}
	switch {
	case types.IsInterface(dst):
		s.checkBoxing(dst, call.Args[0], "conversion")
	case isStringType(dst) && !isStringType(src):
		if _, ok := src.Underlying().(*types.Slice); ok {
			s.addFact("alloc", call.Pos(), "slice-to-string conversion (copies)")
		}
	case isStringType(src):
		if _, ok := dst.Underlying().(*types.Slice); ok {
			s.addFact("alloc", call.Pos(), "string-to-slice conversion (copies)")
		}
	}
}

// scanCompositeLit records map and slice literals (both always allocate;
// array and struct literals are values).
func (s *scanner) scanCompositeLit(lit *ast.CompositeLit) {
	t := s.lp.info.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		s.addFact("alloc", lit.Pos(), "map literal")
	case *types.Slice:
		s.addFact("alloc", lit.Pos(), "slice literal")
	}
}

// isStringType reports whether t is (an alias of) string.
func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// ---------------------------------------------------------------------------
// Transitive propagation.

// externalTrace synthesizes the fact trace of a non-module callee from the
// knowledge table, for the propagation step (the scan already recorded
// external facts as local sites of the caller, so this only serves chains
// that pass through module functions).
func externalTraceFor(kind string, fn *types.Func, pos token.Position) *trace {
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	switch kind {
	case "clock":
		if path == "time" && clockFuncs[fn.Name()] {
			return &trace{reason: "time." + fn.Name(), pos: pos}
		}
	case "rand":
		if path == "math/rand" || path == "math/rand/v2" {
			return &trace{reason: path + "." + fn.Name(), pos: pos}
		}
	}
	return nil
}

// propagate computes the transitive fact traces bottom-up over the SCC
// condensation of the call graph. Tarjan emits every SCC after all SCCs it
// can reach, so callee summaries are complete when a caller reads them; a
// fix-point inside each SCC resolves mutual recursion (facts are monotone,
// so the loop terminates).
func (db *factDB) propagate(all []*funcFacts) {
	sccs := db.tarjan(all)
	for _, scc := range sccs {
		for changed := true; changed; {
			changed = false
			for _, ff := range scc {
				if db.fold(ff) {
					changed = true
				}
			}
		}
		// Owner packages absorb clock/rand facts: they never escape.
		for _, ff := range scc {
			if isClockOwner(ff.lp.path) {
				ff.clock = nil
			}
			if isRandOwner(ff.lp.path) {
				ff.rand = nil
			}
		}
	}
}

// fold refreshes one function's transitive traces from its local sites and
// callee summaries, reporting whether anything new appeared.
func (db *factDB) fold(ff *funcFacts) bool {
	changed := false
	pick := func(cur **trace, locals []site, kind string) {
		if *cur != nil {
			return
		}
		if len(locals) > 0 {
			*cur = &trace{reason: locals[0].reason,
				pos: db.l.fset.Position(locals[0].pos), site: locals[0].pos}
			changed = true
			return
		}
		for _, cs := range ff.calls {
			var ct *trace
			if cff := db.funcs[cs.callee]; cff != nil {
				switch kind {
				case "alloc":
					ct = cff.alloc
				case "clock":
					ct = cff.clock
				case "rand":
					ct = cff.rand
				case "write":
					ct = cff.write
				}
			} else {
				ct = externalTraceFor(kind, cs.callee, db.l.fset.Position(cs.pos))
			}
			if ct != nil {
				*cur = &trace{reason: ct.reason, pos: ct.pos, site: cs.pos,
					chain: append([]string{funcLabel(cs.callee)}, ct.chain...)}
				changed = true
				return
			}
		}
	}
	pick(&ff.alloc, ff.allocs, "alloc")
	pick(&ff.clock, ff.clocks, "clock")
	pick(&ff.rand, ff.rands, "rand")
	pick(&ff.write, ff.writes, "write")
	return changed
}

// tarjan returns the strongly-connected components of the module call
// graph in reverse topological order (callees before callers).
func (db *factDB) tarjan(all []*funcFacts) [][]*funcFacts {
	// Deterministic node order: source position.
	sort.Slice(all, func(i, j int) bool { return all[i].decl.Pos() < all[j].decl.Pos() })
	index := map[*funcFacts]int{}
	low := map[*funcFacts]int{}
	onStack := map[*funcFacts]bool{}
	var stack []*funcFacts
	var sccs [][]*funcFacts
	next := 0

	var strongconnect func(ff *funcFacts)
	strongconnect = func(ff *funcFacts) {
		index[ff] = next
		low[ff] = next
		next++
		stack = append(stack, ff)
		onStack[ff] = true
		for _, cs := range ff.calls {
			cff := db.funcs[cs.callee]
			if cff == nil {
				continue
			}
			if _, seen := index[cff]; !seen {
				strongconnect(cff)
				if low[cff] < low[ff] {
					low[ff] = low[cff]
				}
			} else if onStack[cff] && index[cff] < low[ff] {
				low[ff] = index[cff]
			}
		}
		if low[ff] == index[ff] {
			var scc []*funcFacts
			for {
				n := len(stack) - 1
				m := stack[n]
				stack = stack[:n]
				onStack[m] = false
				scc = append(scc, m)
				if m == ff {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, ff := range all {
		if _, seen := index[ff]; !seen {
			strongconnect(ff)
		}
	}
	return sccs
}

// factsFor returns the summary of fn, or nil for functions outside the
// loaded module packages.
func (db *factDB) factsFor(fn *types.Func) *funcFacts {
	return db.funcs[fn]
}
