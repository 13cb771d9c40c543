package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// checks registers every analysis in the order they run. One check, one
// file, one invariant — adding a ninth check is a new entry here plus a
// new file with a checkXxx(*pass) function and a testdata package.
// unusedignore must stay last: it audits which suppressions the earlier
// checks (and the facts engine) actually consumed.
var checks = []struct {
	name string
	run  func(*pass)
}{
	{"maporder", checkMapOrder},
	{"pardiscipline", checkParDiscipline},
	{"walltime", checkWallTime},
	{"floateq", checkFloatEq},
	{"errwrap", checkErrWrap},
	{"metricnames", checkMetricNames},
	{"hotalloc", checkHotAlloc},
	{"unusedignore", checkUnusedIgnore},
}

// knownCheck reports whether name is a registered check, for validating
// ignore directives ("ignore" is the validator's own reporting name).
func knownCheck(name string) bool {
	for _, c := range checks {
		if c.name == name {
			return true
		}
	}
	return false
}

// finding is one violation at one source position.
type finding struct {
	pos   token.Position
	check string
	msg   string
}

// ignoreDirective is one parsed //placelint:ignore comment. A directive
// suppresses findings of its check on its own line and on the line directly
// below it (i.e. it may trail the flagged code or lead it as a comment).
// For the fact-backed checks (walltime, hotalloc, pardiscipline) a directive
// does more than silence a message: it clears the underlying fact at its
// source, so callers of the suppressed code stay clean too.
type ignoreDirective struct {
	check  string
	reason string
	pos    token.Position
}

// pass carries one type-checked package through every check. The package
// (with its parsed ignore table) comes from the loader; the fact database
// is shared across every pass of the run, so cross-package summaries are
// computed once.
type pass struct {
	fset     *token.FileSet
	lp       *lintPkg
	db       *factDB
	files    []*ast.File
	pkg      *types.Package
	info     *types.Info
	only     []string // nil = all checks; the unusedignore audit respects it
	findings []finding
}

// ignorePrefix introduces a suppression comment:
// //placelint:ignore <check> <reason>.
const ignorePrefix = "//placelint:ignore"

// newPass builds the pass over one loaded package. Malformed suppression
// directives (unknown check, missing reason) surface immediately as
// violations of the pseudo-check "ignore" — a bare ignore must never
// silently suppress.
func newPass(fset *token.FileSet, lp *lintPkg, db *factDB, only []string) *pass {
	p := &pass{fset: fset, lp: lp, db: db,
		files: lp.files, pkg: lp.pkg, info: lp.info, only: only}
	p.findings = append(p.findings, lp.ignoreFindings...)
	return p
}

// run executes the registered checks, or just the named subset when only is
// non-nil (the testdata harness isolates one check per package).
func (p *pass) run() {
	for _, c := range checks {
		if p.only != nil && !contains(p.only, c.name) {
			continue
		}
		c.run(p)
	}
}

// contains reports whether list holds s.
func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// reportf records a finding of check at pos unless a matching ignore
// directive covers the line (same line, or the line directly above). A
// directive that suppresses is marked used, which keeps it alive under the
// unusedignore audit.
func (p *pass) reportf(pos token.Pos, check, format string, args ...any) {
	position := p.fset.Position(pos)
	if d := p.lp.ignoreAt(position.Filename, position.Line, check); d != nil {
		p.db.usedIgnores[d] = true
		return
	}
	p.findings = append(p.findings, finding{position, check, fmt.Sprintf(format, args...)})
}

// eachFunc visits every function declaration of the package together with
// its fact summary, in file/declaration order.
func (p *pass) eachFunc(visit func(fd *ast.FuncDecl, ff *funcFacts)) {
	for _, f := range p.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := p.info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if ff := p.db.factsFor(obj); ff != nil {
				visit(fd, ff)
			}
		}
	}
}

// parseDirFiles parses the non-test Go files of dir, in sorted file-name
// order, with comments (the directives live there).
func parseDirFiles(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// enclosingFuncBody returns the body of the innermost function declaration
// or literal in f that contains pos, or nil when pos sits outside any
// function. Checks use it to scope idiom searches (e.g. "are the collected
// keys sorted in the same function").
func enclosingFuncBody(f *ast.File, pos token.Pos) *ast.BlockStmt {
	var best *ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if pos < n.Pos() || pos >= n.End() {
			return false // prune subtrees that cannot contain pos
		}
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil && pos >= fn.Body.Pos() && pos < fn.Body.End() {
				best = fn.Body
			}
		case *ast.FuncLit:
			if pos >= fn.Body.Pos() && pos < fn.Body.End() {
				best = fn.Body
			}
		}
		return true
	})
	return best
}

// exprUsesAny reports whether e mentions an identifier whose object is in
// objs (by Uses or Defs).
func exprUsesAny(info *types.Info, e ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if o := info.Uses[id]; o != nil && objs[o] {
			found = true
		}
		if o := info.Defs[id]; o != nil && objs[o] {
			found = true
		}
		return true
	})
	return found
}
