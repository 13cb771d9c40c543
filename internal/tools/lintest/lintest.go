// Package lintest is the testdata-driven harness shared by the repository's
// static-analysis tools (docslint, placelint). A testdata file marks every
// expected finding with a trailing comment of the form
//
//	// want "regexp"
//
// on the line the tool should flag. When the finding cannot share the line —
// a malformed //placelint:ignore directive is itself a comment, so a trailing
// want would become its reason — the comment takes a line offset:
//
//	// want[-1] "regexp"
//
// expects the finding offset lines away from the want comment.
//
// The tool's test converts its findings to []Finding and calls Check, which
// enforces an exact two-way match: every want must be hit by a finding on
// its line whose message matches the pattern, and every finding must be
// claimed by exactly one want. Unexpected findings and unmatched wants are
// both test failures, so testdata documents the check's behavior precisely.
package lintest

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Finding is one diagnostic produced by the tool under test, keyed by the
// file's base name so testdata directories can move without breaking tests.
type Finding struct {
	File string // base name, e.g. "maporder.go"
	Line int
	Msg  string
}

// Want is one expectation parsed from a `// want "…"` comment.
type Want struct {
	File    string // base name of the file holding the comment
	Line    int    // line the finding is expected on (offset already applied)
	Pattern *regexp.Regexp
}

// wantRE matches `// want "pat"` and `// want[±N] "pat"`. The pattern
// capture is greedy to the last quote on the line, so patterns may contain
// embedded double quotes.
var wantRE = regexp.MustCompile(`//\s*want(?:\[([+-]?\d+)\])?\s+"(.*)"`)

// ParseWants scans every non-test .go file under dir — recursively, so a
// testdata package may carry helper sub-packages (cross-package facts need
// a real dependency to traverse) whose files hold wants of their own — and
// returns the wants in file-walk order. Malformed patterns fail the test
// immediately: a want that cannot match anything would silently weaken the
// two-way check.
func ParseWants(t *testing.T, dir string) []Want {
	t.Helper()
	var wants []Want
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			offset := 0
			if m[1] != "" {
				offset, err = strconv.Atoi(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want offset %q: %v", name, i+1, m[1], err)
				}
			}
			re, err := regexp.Compile(m[2])
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %q: %v", name, i+1, m[2], err)
			}
			wants = append(wants, Want{File: name, Line: i + 1 + offset, Pattern: re})
		}
		return nil
	})
	if err != nil {
		t.Fatalf("lintest: %v", err)
	}
	return wants
}

// Check enforces the exact two-way match between wants and got. Each finding
// can satisfy at most one want, so duplicated diagnostics need duplicated
// want comments and are never silently collapsed. A testdata package with no
// want at all fails: an emptied fixture would otherwise pass by matching a
// tool that reports nothing.
func Check(t *testing.T, wants []Want, got []Finding) {
	t.Helper()
	if len(wants) == 0 {
		t.Error("no // want comments: a testdata package must seed at least one finding")
	}
	claimed := make([]bool, len(got))
	for _, w := range wants {
		hit := false
		for i, f := range got {
			if claimed[i] || f.File != w.File || f.Line != w.Line || !w.Pattern.MatchString(f.Msg) {
				continue
			}
			claimed[i] = true
			hit = true
			break
		}
		if !hit {
			t.Errorf("%s:%d: no finding matching %q", w.File, w.Line, w.Pattern)
		}
	}
	for i, f := range got {
		if !claimed[i] {
			t.Errorf("%s:%d: unexpected finding: %s", f.File, f.Line, f.Msg)
		}
	}
}
