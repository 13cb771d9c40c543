package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestOutOfRangeFlagsExitUsage runs the built binary with numeric flags just
// outside and just inside their ranges. An out-of-range value must stop the
// run with exit 2 and a message naming the flag, before the design is read;
// a boundary value must get past the check (the missing design then fails
// the run with another code).
func TestOutOfRangeFlagsExitUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	bin := placeBinary(t)
	missing := filepath.Join(t.TempDir(), "missing.aux")
	cases := []struct {
		flag, value string
		reject      bool
	}{
		{"inflate-max", "0.5", true},
		{"inflate-max", "1", true},
		{"inflate-max", "NaN", true},
		{"inflate-max", "1.01", false},
		{"cluster-ratio", "1.5", true},
		{"cluster-ratio", "0", true},
		{"cluster-ratio", "1", true},
		{"cluster-ratio", "0.5", false},
		{"levels", "-1", true},
		{"levels", "0", false},
		{"outer", "-3", true},
		{"outer", "0", false},
		{"inner", "-1", true},
		{"inner", "0", false},
		{"workers", "-1", true},
		{"workers", "0", false},
		{"timeout", "-1s", true},
		{"timeout", "0s", false},
	}
	for _, c := range cases {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, "-quiet", "-"+c.flag, c.value, missing)
		cmd.Stderr = &stderr
		err := cmd.Run()
		code := 0
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if c.reject {
			if code != exitUsage || !strings.Contains(stderr.String(), "-"+c.flag) {
				t.Errorf("-%s %s: exit %d, stderr %q; want exit %d naming the flag",
					c.flag, c.value, code, stderr.String(), exitUsage)
			}
		} else if code == exitUsage {
			t.Errorf("-%s %s: rejected as usage error: %s", c.flag, c.value, stderr.String())
		}
	}
}
