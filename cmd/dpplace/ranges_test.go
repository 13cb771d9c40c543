package main

import (
	"path/filepath"
	"testing"

	"repro/internal/cmdtest"
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
	cases := []cmdtest.Case{
		cmdtest.Flag("inflate-max", "0.5", true),
		cmdtest.Flag("inflate-max", "1", true),
		cmdtest.Flag("inflate-max", "NaN", true),
		cmdtest.Flag("inflate-max", "1.01", false),
		cmdtest.Flag("cluster-ratio", "1.5", true),
		cmdtest.Flag("cluster-ratio", "0", true),
		cmdtest.Flag("cluster-ratio", "1", true),
		cmdtest.Flag("cluster-ratio", "0.5", false),
		cmdtest.Flag("levels", "-1", true),
		cmdtest.Flag("levels", "0", false),
		cmdtest.Flag("outer", "-3", true),
		cmdtest.Flag("outer", "0", false),
		cmdtest.Flag("inner", "-1", true),
		cmdtest.Flag("inner", "0", false),
		cmdtest.Flag("workers", "-1", true),
		cmdtest.Flag("workers", "0", false),
		cmdtest.Flag("timeout", "-1s", true),
		cmdtest.Flag("timeout", "0s", false),
	}
	missing := filepath.Join(t.TempDir(), "missing.aux")
	cmdtest.CheckRanges(t, placeBinary(t), []string{"-quiet"}, cases, missing)
}
