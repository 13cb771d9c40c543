package bookshelf

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
)

// fuzzBench generates a small realistic design once per fuzz target so the
// seed corpus exercises the same shapes the rest of the system produces.
func fuzzBench() *gen.Benchmark {
	return gen.Generate(gen.Config{
		Name: "fuzzseed", Seed: 17, Bits: 4,
		Units:       []gen.UnitKind{gen.Adder},
		RandomCells: 40,
		Pads:        8,
	})
}

// seedCells gives fuzzed net streams a realistic cell population to
// reference.
func seedCells(t testing.TB) *netlist.Netlist {
	t.Helper()
	nl := netlist.New("fuzz")
	if err := ReadNodes(strings.NewReader("a 2 10\nb 3 10\npad 1 1 terminal\n"), nl); err != nil {
		t.Fatal(err)
	}
	return nl
}

func FuzzReadNodes(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteNodes(&buf, fuzzBench().Netlist); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\na 2 10\nb 3 10\n")
	f.Add("NumNodes : 99999999999\na 1 1\n")
	f.Add("a NaN 10\n")
	f.Add("a 2 Inf\n")
	f.Add("a -2 10\n")
	f.Add("NumNodes : -5\n")
	for _, s := range oracleInputs {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		nl := netlist.New("fuzz")
		err := ReadNodes(strings.NewReader(data), nl)
		// The previous reader, kept as the oracle, must reach the same verdict
		// and design.
		ref := netlist.New("fuzz")
		refErr := refReadNodes(strings.NewReader(data), ref)
		if d := diffOutcome(err, refErr); d != "" {
			t.Fatal(d)
		}
		if err == nil {
			if d := diffNetlist(nl, ref); d != "" {
				t.Fatalf("differs from the oracle: %s", d)
			}
		}
		// Any outcome is fine except a panic or an unclassified error.
		if err != nil {
			if !errors.Is(err, ErrMalformedInput) {
				t.Errorf("error not wrapping ErrMalformedInput: %v", err)
			}
			return
		}
		// Accepted input must yield only finite, positive cell sizes.
		for i := range nl.Cells {
			c := &nl.Cells[i]
			if !finiteSize(c.W) || !finiteSize(c.H) {
				t.Errorf("accepted cell %q with size %gx%g", c.Name, c.W, c.H)
			}
		}
	})
}

func FuzzReadNets(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteNets(&buf, fuzzBench().Netlist); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("NumNets : 1\nNumPins : 2\nNetDegree : 2 n\na O : 0 0\nb I : 0 0\n")
	f.Add("NetDegree : 3 n\na O : 0 0\n")
	f.Add("NetDegree : -1 n\n")
	f.Add("a O : 0 0\n")
	f.Add("NetDegree : 2 n\na O : NaN 0\nb I : 0 0\n")
	for _, s := range oracleInputs {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		nl := seedCells(t)
		err := ReadNets(strings.NewReader(data), nl)
		// The previous reader, kept as the oracle, must reach the same verdict
		// and design.
		ref := seedCells(t)
		refErr := refReadNets(strings.NewReader(data), ref)
		if d := diffOutcome(err, refErr); d != "" {
			t.Fatal(d)
		}
		if err == nil {
			if d := diffNetlist(nl, ref); d != "" {
				t.Fatalf("differs from the oracle: %s", d)
			}
		}
		if err != nil {
			if !errors.Is(err, ErrMalformedInput) {
				t.Errorf("error not wrapping ErrMalformedInput: %v", err)
			}
			return
		}
		if err := nl.Validate(); err != nil {
			t.Errorf("accepted nets violate netlist invariants: %v", err)
		}
	})
}

func FuzzReadAux(f *testing.F) {
	b := fuzzBench()
	dir := f.TempDir()
	aux, err := WriteAux(dir, "fuzzseed", &Design{
		Netlist: b.Netlist, Placement: b.Placement, Core: b.Core,
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range []string{"fuzzseed.nodes", "fuzzseed.nets", "fuzzseed.pl", "fuzzseed.scl"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(name, string(data))
	}
	_ = aux
	f.Add("x.nodes", "a 2 10\n")
	f.Add("x.nets", "garbage\x00\xff\n")
	f.Fuzz(func(t *testing.T, name, data string) {
		// The fuzzer mutates one component file of an otherwise valid
		// benchmark; ReadAux must classify, never panic.
		base := filepath.Base(name)
		if base == "." || base == ".." || base == "/" || strings.ContainsAny(base, "\x00") {
			t.Skip()
		}
		td := t.TempDir()
		files := map[string]string{
			"f.nodes": "a 2 10\nb 3 10\n",
			"f.nets":  "NetDegree : 2 n\na O : 0 0\nb I : 0 0\n",
			"f.pl":    "a 0 0 : N\nb 5 0 : N\n",
			"f.scl":   "CoreRow Horizontal\n Coordinate : 0\n Height : 10\n Sitewidth : 1\n SubrowOrigin : 0 NumSites : 50\nEnd\n",
		}
		// Overwrite one file with fuzz data when the name matches; unknown
		// names just add an unreferenced file.
		files[base] = data
		for fn, content := range files {
			if err := os.WriteFile(filepath.Join(td, fn), []byte(content), 0o644); err != nil {
				t.Skip()
			}
		}
		auxText := "RowBasedPlacement : f.nodes f.nets f.pl f.scl\n"
		if err := os.WriteFile(filepath.Join(td, "f.aux"), []byte(auxText), 0o644); err != nil {
			t.Skip()
		}
		d, err := ReadAux(filepath.Join(td, "f.aux"))
		// The previous reader, kept as the oracle, must reach the same verdict
		// and design.
		ref, refErr := refReadAux(filepath.Join(td, "f.aux"))
		if diff := diffOutcome(err, refErr); diff != "" {
			t.Fatal(diff)
		}
		if err == nil {
			if diff := diffDesign(d, ref); diff != "" {
				t.Fatalf("differs from the oracle: %s", diff)
			}
		}
		if err != nil {
			if !errors.Is(err, ErrMalformedInput) && !os.IsNotExist(errors.Unwrap(err)) {
				// I/O errors are acceptable; anything format-related must
				// carry the sentinel.
				var pathErr *os.PathError
				if !errors.As(err, &pathErr) {
					t.Errorf("error not wrapping ErrMalformedInput: %v", err)
				}
			}
		}
	})
}
