package serve

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bookshelf"
	"repro/internal/core"
	"repro/internal/netlist"
)

// writePlacementFile creates nothing when the .pl writer refuses the
// design, leaves a file already at the path as it was, and otherwise
// writes what bookshelf.WritePl writes.
func TestWritePlacementFileRefusalCreatesNothing(t *testing.T) {
	nl := netlist.New("refused")
	nl.MustAddCell("u0/FIXED", "STD", 2, 10, false)
	nl.MustAddCell("pad", "TERM", 1, 1, true)
	d := &bookshelf.Design{Netlist: nl, Placement: netlist.NewPlacement(nl)}
	res := &core.Result{Placement: d.Placement}
	dir := t.TempDir()

	fresh := filepath.Join(dir, "fresh.pl")
	if err := writePlacementFile(fresh, d, res); err == nil {
		t.Fatal("writePlacementFile accepted a movable cell named u0/FIXED")
	}
	if _, err := os.Stat(fresh); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("refused write left %s behind: %v", fresh, err)
	}

	kept := filepath.Join(dir, "kept.pl")
	old := []byte("UCLA pl 1.0\nearlier result\n")
	if err := os.WriteFile(kept, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writePlacementFile(kept, d, res); err == nil {
		t.Fatal("writePlacementFile accepted a movable cell named u0/FIXED")
	}
	if got, err := os.ReadFile(kept); err != nil || !bytes.Equal(got, old) {
		t.Errorf("refused write changed %s to %q (%v)", kept, got, err)
	}

	nl.Cells[0].Name = "u0"
	nl.RebuildIndex()
	if err := writePlacementFile(kept, d, res); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := bookshelf.WritePl(&want, nl, d.Placement); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(kept); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Errorf("%s holds %q (%v), want %q", kept, got, err, want.Bytes())
	}
}
