package main

import (
	"path/filepath"
	"testing"

	"repro/internal/cmdtest"
)

// TestOutOfRangeFlagsExitUsage runs the built binary with numeric flags just
// outside and just inside their ranges, and with an unknown unit. An
// out-of-range value or unknown unit must exit 2 with a message naming the
// flag before anything is written; a boundary value must get past the
// check.
func TestOutOfRangeFlagsExitUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	cases := []cmdtest.Case{
		cmdtest.Flag("bits", "0", true),
		cmdtest.Flag("bits", "-3", true),
		cmdtest.Flag("bits", "513", true),
		cmdtest.Flag("bits", "1", false),
		cmdtest.Flag("bits", "512", false),
		cmdtest.Flag("random", "-5", true),
		cmdtest.Flag("random", "0", false),
		cmdtest.Flag("pads", "-1", true),
		cmdtest.Flag("pads", "0", true),
		cmdtest.Flag("pads", "1", false),
		{Args: []string{"-units", ",", "-random", "0"}, Flag: "units", Reject: true},
		{Args: []string{"-units", ",", "-random", "1"}, Flag: "units"},
		cmdtest.Flag("units", "adder,bogus", true),
	}
	out := filepath.Join(t.TempDir(), "out")
	cmdtest.CheckRanges(t, cmdtest.Build(t), []string{"-units", "adder", "-random", "20", "-out", out}, cases)
}
