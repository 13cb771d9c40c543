// Command placelint machine-enforces the repository's determinism and
// concurrency invariants: the properties that keep placements bit-identical
// at every worker count and keep the error taxonomy testable with errors.Is.
// Golden tests catch a violation only after it has corrupted a placement;
// placelint rejects the hazard pattern at review time, before it runs.
//
// It is stdlib-only (go/ast + go/parser + go/types with a module-aware
// demand-driven loader), following the docslint precedent — no external
// linter dependency. Since PR 10 the checks sit on an interprocedural facts
// engine: every function in the module gets per-function fact summaries
// (readsClock, readsRand, mayAllocate, writesNonLocal) propagated bottom-up
// over the strongly-connected components of the cross-package call graph,
// so the determinism contracts hold transitively, not just at the surface
// syntax. Eight checks ship today, one file each:
//
//	maporder       for-range over a map outside the collect-then-sort idiom
//	pardiscipline  writes escaping the worker-owned slot inside closures
//	               passed to internal/par (the compute-then-reduce rule),
//	               in the closure's body or through any function it calls
//	walltime       time.Now / time.Since / time.Until / math/rand reachable
//	               — directly or through any call chain — outside the owner
//	               packages (internal/obs for the clock; internal/gen and
//	               internal/faultinject for seeded randomness)
//	floateq        == / != on floating-point operands outside approved
//	               epsilon helpers
//	errwrap        error arguments formatted with a verb other than %w,
//	               which would sever the internal/pipeline sentinel chain
//	metricnames    metric registrations on internal/obs/metrics.Registry
//	               whose name or label is dynamic, not snake_case, or a
//	               duplicate within the package
//	hotalloc       allocations reachable from a //placelint:hotpath
//	               function (the DESIGN.md §14 zero-alloc kernel contract)
//	unusedignore   suppression directives that no longer suppress anything
//
// A true finding that is nevertheless safe is suppressed in place with
//
//	//placelint:ignore <check> <reason>
//
// on the flagged line or the line directly above it. The reason is
// mandatory: a bare ignore is itself a violation, so every suppression
// documents why the invariant holds anyway. For the fact-backed checks the
// directive also clears the fact at its source, so every caller of the
// suppressed code is clean too — and the unusedignore audit reports any
// directive that stops earning its keep.
//
// Usage:
//
//	go run ./internal/tools/placelint [-github] [dir ...]
//
// With no arguments it lints the whole module ("."). -github emits GitHub
// Actions ::error workflow commands on stdout so findings annotate the
// offending lines of a pull request. Test files and testdata directories
// are exempt. Exit status: 0 clean, 1 violations, 2 operational failure
// (bad flag, unreadable directory, parse or type-check error).
package main

import (
	"errors"
	"flag"
	"fmt"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run lints the directories named in args and returns the exit status: 0
// clean, 1 violations, 2 when the linter could not run, so CI can tell "tree
// is dirty" from "linter broke".
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("placelint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	github := flags.Bool("github", false, "emit GitHub Actions ::error annotations on stdout")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	roots := flags.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "placelint: %v\n", err)
		return 2
	}
	var dirs []string
	seen := map[string]bool{}
	for _, root := range roots {
		ds, err := collectDirs(root)
		if err != nil {
			return fail(err)
		}
		for _, d := range ds {
			if abs, err := filepath.Abs(d); err == nil && !seen[abs] {
				seen[abs] = true
				dirs = append(dirs, d)
			}
		}
	}
	fset := token.NewFileSet()
	all, err := lintPackages(fset, dirs, nil)
	if err != nil {
		return fail(err)
	}
	sortFindings(all)
	if *github {
		writeGitHub(stdout, all)
	}
	if len(all) == 0 {
		return 0
	}
	for _, f := range all {
		fmt.Fprintf(stderr, "%s:%d:%d: [%s] %s\n",
			f.pos.Filename, f.pos.Line, f.pos.Column, f.check, f.msg)
	}
	fmt.Fprintf(stderr, "placelint: %d violation(s)\n", len(all))
	return 1
}

// lintPackages loads every target directory through the module loader,
// builds the shared fact database over everything loaded (targets plus
// their dependencies), and runs the checks over each target package.
func lintPackages(fset *token.FileSet, dirs []string, only []string) ([]finding, error) {
	l, err := newLoader(fset)
	if err != nil {
		return nil, err
	}
	targets := make([]*lintPkg, 0, len(dirs))
	for _, dir := range dirs {
		lp, err := l.loadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", dir, err)
		}
		targets = append(targets, lp)
	}
	db := newFactDB(l)
	var all []finding
	for _, lp := range targets {
		p := newPass(fset, lp, db, only)
		p.run()
		all = append(all, p.findings...)
	}
	return all, nil
}

// collectDirs walks root and returns, sorted, every directory holding at
// least one non-test Go file. Hidden, underscore and testdata directories
// are skipped — testdata under this tool holds intentional violations for
// the self-test, and must never fail the tree lint.
func collectDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name != "." && name != root &&
				(strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			seen[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// sortFindings orders findings by file, line, column, then check name, so
// output (and the testdata harness) is stable regardless of check order.
func sortFindings(fs []finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		if a.pos.Column != b.pos.Column {
			return a.pos.Column < b.pos.Column
		}
		return a.check < b.check
	})
}

// writeGitHub emits one ::error workflow command per finding, which GitHub
// Actions renders as an inline annotation on the offending line of the PR.
func writeGitHub(w io.Writer, fs []finding) {
	for _, f := range fs {
		fmt.Fprintf(w, "::error file=%s,line=%d,col=%d,title=placelint/%s::%s\n",
			filepath.ToSlash(f.pos.Filename), f.pos.Line, f.pos.Column,
			f.check, githubEscape(f.msg))
	}
}

// githubEscape encodes the characters the workflow-command grammar
// reserves in message data.
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}
