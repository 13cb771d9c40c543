package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/bookshelf"
	"repro/internal/gen"
)

// TestRefusedPlacementWritesNoOut places a design whose movable cell is
// named u0/FIXED, which ReadPl would take for the fixed flag. Its .aux
// lists no .pl, so ReadAux accepts it, and the run fails at the .pl write:
// exit 1, with no -out file created and an existing one left as it was.
func TestRefusedPlacementWritesNoOut(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	b := gen.Generate(gen.Config{
		Name: "refused", Seed: 3, Bits: 4,
		Units: []gen.UnitKind{gen.Adder}, RandomCells: 40, Pads: 8,
	})
	nl := b.Netlist
	for i := range nl.Cells {
		if !nl.Cells[i].Fixed {
			nl.Cells[i].Name = "u0/FIXED"
			break
		}
	}
	nl.RebuildIndex()
	write := func(name string, fn func(*bytes.Buffer) error) {
		t.Helper()
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("r.nodes", func(w *bytes.Buffer) error { return bookshelf.WriteNodes(w, nl) })
	write("r.nets", func(w *bytes.Buffer) error { return bookshelf.WriteNets(w, nl) })
	write("r.scl", func(w *bytes.Buffer) error { return bookshelf.WriteScl(w, b.Core) })
	write("r.aux", func(w *bytes.Buffer) error {
		_, err := w.WriteString("RowBasedPlacement : r.nodes r.nets r.scl\n")
		return err
	})

	run := func(out string) {
		t.Helper()
		err := exec.Command(placeBinary(t), "-quiet", "-workers", "1",
			"-out", out, filepath.Join(dir, "r.aux")).Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != exitError {
			t.Fatalf("run with -out %s: %v, want exit %d", out, err, exitError)
		}
	}
	fresh := filepath.Join(dir, "fresh.pl")
	run(fresh)
	if _, err := os.Stat(fresh); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("refused write left %s behind: %v", fresh, err)
	}

	kept := filepath.Join(dir, "kept.pl")
	old := []byte("UCLA pl 1.0\nearlier result\n")
	if err := os.WriteFile(kept, old, 0o644); err != nil {
		t.Fatal(err)
	}
	run(kept)
	if got, err := os.ReadFile(kept); err != nil || !bytes.Equal(got, old) {
		t.Errorf("refused write changed %s to %q (%v)", kept, got, err)
	}
}
