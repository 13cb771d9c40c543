package bookshelf

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// nameDesign is a three-cell design whose names the cases below break one
// at a time.
func nameDesign() *Design {
	nl := netlist.New("names")
	a := nl.MustAddCell("a", "STD", 2, 10, false)
	b := nl.MustAddCell("b", "STD", 3, 10, false)
	pad := nl.MustAddCell("pad", "TERM", 1, 1, true)
	nl.MustAddNet("n1", 1,
		netlist.Endpoint{Cell: a, Pin: "Y", Dir: netlist.DirOutput, DX: 2, DY: 5},
		netlist.Endpoint{Cell: b, Pin: "A", Dir: netlist.DirInput, DX: 0, DY: 5},
		netlist.Endpoint{Cell: pad, Pin: "P", Dir: netlist.DirInout, DX: 0.5, DY: 0.5},
	)
	pl := netlist.NewPlacement(nl)
	pl.X[b], pl.X[pad], pl.Y[pad] = 7, 90, 90
	return &Design{Netlist: nl, Placement: pl, Core: geom.NewCore(geom.NewRect(0, 0, 100, 20), 10, 1)}
}

// diffNames returns the first name, fixed flag or connection that reading
// back changed, or "".
func diffNames(in, out *netlist.Netlist) string {
	if len(in.Cells) != len(out.Cells) || len(in.Nets) != len(out.Nets) || len(in.Pins) != len(out.Pins) {
		return "counts differ"
	}
	for i := range in.Cells {
		if in.Cells[i].Name != out.Cells[i].Name || in.Cells[i].Fixed != out.Cells[i].Fixed {
			return fmt.Sprintf("cell %q fixed %v read back as %q fixed %v", in.Cells[i].Name,
				in.Cells[i].Fixed, out.Cells[i].Name, out.Cells[i].Fixed)
		}
	}
	for i := range in.Nets {
		if in.Nets[i].Name != out.Nets[i].Name {
			return fmt.Sprintf("net %q read back as %q", in.Nets[i].Name, out.Nets[i].Name)
		}
	}
	for i := range in.Pins {
		p, q := in.Pins[i], out.Pins[i]
		if p.Name != q.Name || p.Cell != q.Cell || p.Net != q.Net {
			return fmt.Sprintf("pin %q read back as %q", p.Name, q.Name)
		}
	}
	return ""
}

// Every exported writer refuses, before writing a byte, a design its reader
// would split, truncate, skip or take for a header, and the others write it.
// Each case breaks the previous write-then-read: the oracle writer writes
// it, and reading it back fails or returns other names.
func TestWritersRejectUnreadableNames(t *testing.T) {
	cell := func(name string) func(*Design) {
		return func(d *Design) { d.Netlist.Cells[0].Name = name; d.Netlist.RebuildIndex() }
	}
	net := func(name string) func(*Design) {
		return func(d *Design) { d.Netlist.Nets[0].Name = name; d.Netlist.RebuildIndex() }
	}
	pin := func(name string) func(*Design) {
		return func(d *Design) { d.Netlist.Pins[0].Name = name }
	}
	const all = "WriteNodes WriteNets WritePl"
	cases := []struct {
		name   string
		base   string
		spoil  func(*Design)
		refuse string // the section writers that must refuse it
	}{
		{"top-level terminal pin", "x", func(d *Design) {
			d.Netlist.MustAddNet("n2", 1,
				netlist.Endpoint{Cell: 0, Pin: "Z", Dir: netlist.DirOutput},
				netlist.Endpoint{Cell: netlist.NoCell, Pin: "pad0", Dir: netlist.DirInput})
		}, "WriteNets"},
		{"empty cell name", "x", cell(""), all},
		{"space in cell name", "x", cell("a b"), all},
		{"tab in cell name", "x", cell("a\tb"), all},
		{"no-break space in cell name", "x", cell("a\u00a0b"), all},
		{"ideographic space in cell name", "x", cell("a\u3000b"), all},
		{"# in cell name", "x", cell("a#1"), all},
		{": in a pin-line cell name", "x", cell("a:1"), "WriteNets"},
		{"cell name starting UCLA", "x", cell("UCLAx"), all},
		{"cell name starting NumNodes", "x", cell("NumNodesX"), "WriteNodes"},
		{"cell name starting NumTerminals", "x", cell("NumTerminals1"), "WriteNodes"},
		{"pin-line cell name starting NumNets", "x", cell("NumNetsA"), "WriteNets"},
		{"pin-line cell name starting NumPins", "x", cell("NumPinsA"), "WriteNets"},
		{"pin-line cell name starting NetDegree", "x", cell("NetDegreeA"), "WriteNets"},
		{"/FIXED in a movable cell's name", "x", cell("a/FIXED"), "WritePl"},
		{"empty net name", "x", net(""), "WriteNets"},
		{"space in net name", "x", net("n 1"), "WriteNets"},
		{"next-line in net name", "x", net("n\u00851"), "WriteNets"},
		{"# in net name", "x", net("n#1"), "WriteNets"},
		{"empty pin name", "x", pin(""), "WriteNets"},
		{"space in pin name", "x", pin("Y 2"), "WriteNets"},
		{": in pin name", "x", pin("Y:2"), "WriteNets"},
		{"# in pin name", "x", pin("Y#2"), "WriteNets"},
		{"space in base name", "my design", func(*Design) {}, ""},
		{"separator in base name", "sub/x", func(*Design) {}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := nameDesign()
			tc.spoil(d)

			// The oracle writer writes it, and the oracle reader does not read
			// it back as written.
			refDir := t.TempDir()
			// With sub/ present, the separator case fails at the read.
			if err := os.Mkdir(filepath.Join(refDir, "sub"), 0o755); err != nil {
				t.Fatal(err)
			}
			aux, err := refWriteAux(refDir, tc.base, d)
			if err == nil {
				var got *Design
				if got, err = refReadAux(aux); err == nil {
					if diff := diffNames(d.Netlist, got.Netlist); diff != "" {
						err = errors.New(diff)
					}
				}
			}
			if err == nil {
				t.Fatal("the oracle's write-then-read round-trips this case")
			}

			dir := filepath.Join(t.TempDir(), "out")
			if _, err := WriteAux(dir, tc.base, d); err == nil {
				t.Error("WriteAux accepted it")
			}
			if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("WriteAux created %s: %v", dir, err)
			}
			for name, write := range map[string]func(*bytes.Buffer) error{
				"WriteNets":  func(w *bytes.Buffer) error { return WriteNets(w, d.Netlist) },
				"WriteNodes": func(w *bytes.Buffer) error { return WriteNodes(w, d.Netlist) },
				"WritePl":    func(w *bytes.Buffer) error { return WritePl(w, d.Netlist, d.Placement) },
			} {
				var buf bytes.Buffer
				err := write(&buf)
				refuse := strings.Contains(tc.refuse, name)
				if refuse && (err == nil || buf.Len() > 0) {
					t.Errorf("%s: err %v after %d bytes, want an error before any", name, err, buf.Len())
				}
				if !refuse && err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		})
	}
}

// A design ReadAux accepts writes back whole, names the readers keep
// included: ':' in a net name, non-ASCII letters, header keys anywhere but
// at a line's start, and in a cell no pin line names, ':' or a .nets key;
// a fixed cell may hold /FIXED.
func TestWritersKeepReadableNames(t *testing.T) {
	dir := t.TempDir()
	for name, text := range map[string]string{
		"x.aux":   "RowBasedPlacement : x.nodes x.nets x.pl\n",
		"x.nodes": "NumNodes : 5\nNumTerminals : 1\né_NumNodes 2 10\nb 3 10\nm:1 1 10\nNetDegreeX 1 10\nt/FIXED 1 1 terminal\n",
		"x.nets":  "NumNets : 1\nNumPins : 2\nNetDegree : 2 bus[3]:x\n\té_NumNodes O : 0 0 UCLA\n\tb I : 0 0 A\n",
		"x.pl":    "é_NumNodes 0 0 : N\nb 5 0 : N\nm:1 9 0 : N\nNetDegreeX 12 0 : N\nt/FIXED 50 50 : N /FIXED\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d, err := ReadAux(filepath.Join(dir, "x.aux"))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Netlist.Nets[0].Name + " " + d.Netlist.Pins[0].Name + " " + d.Netlist.Cells[2].Name; got != "bus[3]:x UCLA m:1" {
		t.Fatalf("read names %q", got)
	}
	samePlacement := func(got *netlist.Placement) {
		t.Helper()
		if !slices.Equal(got.X, d.Placement.X) || !slices.Equal(got.Y, d.Placement.Y) {
			t.Errorf("placement read back as %v %v, want %v %v", got.X, got.Y, d.Placement.X, d.Placement.Y)
		}
	}

	var buf bytes.Buffer
	if err := WritePl(&buf, d.Netlist, d.Placement); err != nil {
		t.Fatal(err)
	}
	pl := netlist.NewPlacement(d.Netlist)
	if err := ReadPl(&buf, d.Netlist, pl); err != nil {
		t.Fatal(err)
	}
	samePlacement(pl)

	aux, err := WriteAux(t.TempDir(), "y", d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAux(aux)
	if err != nil {
		t.Fatal(err)
	}
	if diff := diffNames(d.Netlist, got.Netlist); diff != "" {
		t.Error(diff)
	}
	samePlacement(got.Placement)
}
