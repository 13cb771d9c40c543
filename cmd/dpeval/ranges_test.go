package main

import (
	"path/filepath"
	"testing"

	"repro/internal/cmdtest"
)

// TestOutOfRangeFlagsExitUsage runs the built binary with -capacity just
// outside and just inside its range. An out-of-range value must exit 2 with
// a message naming the flag before the design is read; a value in range
// must get past the check (the missing design then fails the run).
func TestOutOfRangeFlagsExitUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	cases := []cmdtest.Case{
		cmdtest.Flag("capacity", "0", true),
		cmdtest.Flag("capacity", "-1", true),
		cmdtest.Flag("capacity", "NaN", true),
		cmdtest.Flag("capacity", "+Inf", true),
		cmdtest.Flag("capacity", "0.001", false),
		cmdtest.Flag("capacity", "2", false),
	}
	missing := filepath.Join(t.TempDir(), "missing.aux")
	cmdtest.CheckRanges(t, cmdtest.Build(t), nil, cases, missing)
}
