package main

import (
	"fmt"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/bookshelf"
	"repro/internal/cmdtest"
	"repro/internal/datapath"
	"repro/internal/gen"
)

// TestDefaultsMatchPlacer runs the built binary with no flags on a suite
// design written to Bookshelf: it must report the groups that extraction
// with datapath.DefaultOptions, the options dpplace extracts with, finds.
func TestDefaultsMatchPlacer(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	b := gen.Generate(gen.Suite()[0])
	aux, err := bookshelf.WriteAux(t.TempDir(), "dp01",
		&bookshelf.Design{Netlist: b.Netlist, Placement: b.Placement, Core: b.Core})
	if err != nil {
		t.Fatal(err)
	}
	d, err := bookshelf.ReadAux(aux)
	if err != nil {
		t.Fatal(err)
	}
	ext := datapath.Extract(d.Netlist, datapath.DefaultOptions())
	out, err := exec.Command(cmdtest.Build(t), aux).CombinedOutput()
	if err != nil {
		t.Fatalf("dpextract: %v\n%s", err, out)
	}
	want := fmt.Sprintf("extracted %d groups covering %d cells ", len(ext.Groups), ext.NumGrouped())
	if !strings.Contains(string(out), want) {
		t.Fatalf("output does not report %q:\n%s", want, out)
	}
}
