package main

import (
	"path/filepath"
	"testing"

	"repro/internal/cmdtest"
)

// TestOutOfRangeFlagsExitUsage runs the built binary with -min-bits and
// -min-stages just outside and just inside their ranges. An out-of-range
// value must exit 2 with a message naming the flag before the design is
// read; a boundary value must get past the check (the missing design then
// fails the run).
func TestOutOfRangeFlagsExitUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	cases := []cmdtest.Case{
		cmdtest.Flag("min-bits", "0", true),
		cmdtest.Flag("min-bits", "-2", true),
		cmdtest.Flag("min-bits", "1", false),
		cmdtest.Flag("min-stages", "-1", true),
		cmdtest.Flag("min-stages", "0", true),
		cmdtest.Flag("min-stages", "1", false),
	}
	missing := filepath.Join(t.TempDir(), "missing.aux")
	cmdtest.CheckRanges(t, cmdtest.Build(t), nil, cases, missing)
}
