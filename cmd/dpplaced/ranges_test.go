package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cmdtest"
)

// TestOutOfRangeFlagsExitUsage runs the built daemon with numeric flags just
// outside and just inside their ranges. An out-of-range value must exit 2
// with a message naming the flag before the data directory is opened; a
// boundary value must get past the check (the data directory, a path under
// a regular file, then fails the start).
func TestOutOfRangeFlagsExitUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	cases := []cmdtest.Case{
		cmdtest.Flag("queue", "-1", true),
		cmdtest.Flag("queue", "0", true),
		cmdtest.Flag("queue", "1", false),
		cmdtest.Flag("max-cells", "0", true),
		cmdtest.Flag("max-cells", "1", false),
		cmdtest.Flag("workers", "-1", true),
		cmdtest.Flag("workers", "0", false),
		cmdtest.Flag("job-timeout", "-1s", true),
		cmdtest.Flag("job-timeout", "0s", true),
		cmdtest.Flag("job-timeout", "1ms", false),
		cmdtest.Flag("heartbeat", "-1s", true),
		cmdtest.Flag("heartbeat", "0s", true),
		cmdtest.Flag("heartbeat", "1ms", false),
		cmdtest.Flag("drain-timeout", "-1s", true),
		cmdtest.Flag("drain-timeout", "0s", true),
		cmdtest.Flag("drain-timeout", "1ms", false),
		// The values the benchmark harness and the smoke driver pass.
		cmdtest.Flag("workers", "2", false),
		cmdtest.Flag("drain-timeout", "2s", false),
		cmdtest.Flag("drain-timeout", "50ms", false),
	}
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	flags := []string{"-addr", "127.0.0.1:0", "-data", filepath.Join(file, "data"), "-quiet"}
	cmdtest.CheckRanges(t, daemonBin(t), flags, cases)
}
