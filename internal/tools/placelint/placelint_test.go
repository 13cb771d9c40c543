package main

import (
	"bytes"
	"go/token"
	"path/filepath"
	"testing"

	"repro/internal/tools/lintest"
)

// TestChecksOnTestdata runs each check against its seeded testdata package
// and enforces the exact two-way match between `// want` annotations and
// findings: every seeded violation must be caught, and nothing else may be
// flagged — the exempt idioms in the same files double as false-positive
// regression tests.
func TestChecksOnTestdata(t *testing.T) {
	cases := []struct {
		dir  string
		only []string // nil runs everything, incl. the ignore validator
	}{
		{"maporder", []string{"maporder"}},
		{"pardiscipline", []string{"pardiscipline"}},
		{"walltime", []string{"walltime"}},
		{"floateq", []string{"floateq"}},
		{"errwrap", []string{"errwrap"}},
		{"metricnames", []string{"metricnames"}},
		{"hotalloc", []string{"hotalloc"}},
		// The callee half of the par-worker contract: pardiscipline owns
		// the writes, walltime the clock and rand reads.
		{"parpurity", []string{"pardiscipline", "walltime"}},
		// The audit needs its subject checks in the run set: it only judges
		// directives whose check had the chance to consume them.
		{"unusedignore", []string{"floateq", "walltime", "unusedignore"}},
		{"ignore", nil},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			dir := filepath.Join("testdata", tc.dir)
			fset := token.NewFileSet()
			got, err := lintPackages(fset, []string{dir}, tc.only)
			if err != nil {
				t.Fatalf("lintPackages(%s): %v", dir, err)
			}
			finds := make([]lintest.Finding, 0, len(got))
			for _, f := range got {
				finds = append(finds, lintest.Finding{
					File: filepath.Base(f.pos.Filename),
					Line: f.pos.Line,
					Msg:  f.msg,
				})
			}
			lintest.Check(t, lintest.ParseWants(t, dir), finds)
		})
	}
}

// TestTreeIsClean asserts the invariant `make lint` enforces in CI: the
// repository's own source produces zero findings — including the
// transitive fact-backed checks and the unused-suppression audit. Any new
// violation must be fixed or carry a reasoned //placelint:ignore before it
// can land.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root := filepath.Join("..", "..", "..")
	dirs, err := collectDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	got, err := lintPackages(fset, dirs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range got {
		t.Errorf("%s:%d: [%s] %s", f.pos.Filename, f.pos.Line, f.check, f.msg)
	}
}

// TestRunExitStatus pins the exit contract CI reads: 1 when a package has
// findings, 0 when it is clean, 2 when the linter cannot run.
func TestRunExitStatus(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"findings", []string{filepath.Join("testdata", "floateq")}, 1},
		{"clean", []string{filepath.Join("..", "..", "par")}, 0},
		{"missing directory", []string{filepath.Join("testdata", "no-such-dir")}, 2},
		{"unknown flag", []string{"-no-such-flag"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Errorf("run(%q) = %d, want %d\n%s", tc.args, got, tc.want, stderr.String())
			}
		})
	}
}
