// Package cmdtest checks a command's flag ranges from its tests: it builds
// the command's binary and runs it over a table of flag values, requiring an
// out-of-range value to stop the run as a usage error that names the flag
// and a value inside its range to get past the check.
package cmdtest

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// exitUsage is the exit status every command uses for a usage error.
const exitUsage = 2

// Build compiles the main package in the test's working directory into a
// temporary directory and returns the binary's path.
func Build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cmd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// Case is one row of a range table: Args are the flags under test, Flag is
// the flag name a rejection must mention (without its dash) and Reject says
// whether the values are out of range.
type Case struct {
	Args   []string
	Flag   string
	Reject bool
}

// Flag is the common Case of a single flag set to one value.
func Flag(name, value string, reject bool) Case {
	return Case{Args: []string{"-" + name, value}, Flag: name, Reject: reject}
}

// CheckRanges runs bin once per case: the common flags, then the case's
// Args, which override them, then the positional args. A rejected case must
// exit 2 with a message naming its flag; any other case must not exit 2. The
// common flags and args should make a run that gets past the check end
// quickly, for example on a missing input.
func CheckRanges(t *testing.T, bin string, flags []string, cases []Case, args ...string) {
	t.Helper()
	for _, c := range cases {
		var stderr bytes.Buffer
		argv := append(append(append([]string(nil), flags...), c.Args...), args...)
		cmd := exec.Command(bin, argv...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		code := 0
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		args := strings.Join(c.Args, " ")
		if c.Reject {
			if code != exitUsage || !strings.Contains(stderr.String(), "-"+c.Flag) {
				t.Errorf("%s: exit %d, stderr %q; want exit %d naming -%s",
					args, code, stderr.String(), exitUsage, c.Flag)
			}
		} else if code == exitUsage {
			t.Errorf("%s: rejected as usage error: %s", args, stderr.String())
		}
	}
}
