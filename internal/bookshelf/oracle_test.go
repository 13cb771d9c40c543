package bookshelf

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// The production readers and writers against the previous ones, kept in
// read_ref_test.go and write_ref_test.go: same bytes out, same designs in.

// largeConfig is the bench's large design: the shape of EXPERIMENTS.md
// Table 8's "big" (a 32-bit adder, register bank, shifter and mux tree from
// seed 5) with 4,000 random cells, 4.9k cells in all.
func largeConfig() gen.Config {
	return gen.Config{
		Name: "large", Seed: 5, Bits: 32,
		Units:       []gen.UnitKind{gen.Adder, gen.RegBank, gen.Shifter, gen.MuxTree},
		RandomCells: 4000,
	}
}

func designOf(b *gen.Benchmark) *Design {
	return &Design{Netlist: b.Netlist, Placement: b.Placement, Core: b.Core}
}

// quirkDesign holds what generated designs lack: fixed terminals, inout
// pins, negative and fractional offsets, values that print in exponent form
// (1e-07, 1e+21) and negative zero.
func quirkDesign() *Design {
	nl := netlist.New("quirk")
	a := nl.MustAddCell("a", "STD", 2, 10, false)
	b := nl.MustAddCell("b_1", "STD", 3.5, 10, false)
	tiny := nl.MustAddCell("tiny", "STD", 1e-07, 10, false)
	huge := nl.MustAddCell("huge", "STD", 1e+21, 2.5e-3, false)
	pad := nl.MustAddCell("pad0", "TERM", 1, 1, true)
	pad2 := nl.MustAddCell("pad1", "TERM", 0.75, 0.75, true)
	nl.MustAddNet("n1", 1,
		netlist.Endpoint{Cell: a, Pin: "Y", Dir: netlist.DirOutput, DX: 2, DY: 5},
		netlist.Endpoint{Cell: b, Pin: "A", Dir: netlist.DirInput, DX: 0.125, DY: 3.3},
		netlist.Endpoint{Cell: pad, Pin: "P", Dir: netlist.DirInout, DX: 0.5, DY: 0.5},
	)
	nl.MustAddNet("bus[3]:x", 1,
		netlist.Endpoint{Cell: tiny, Pin: "Q", Dir: netlist.DirOutput, DX: 1e-07, DY: 7e-09},
		netlist.Endpoint{Cell: huge, Pin: "D", Dir: netlist.DirInout, DX: 3e+20, DY: -1e-07},
		netlist.Endpoint{Cell: pad2, Pin: "P", Dir: netlist.DirInput, DX: -0.3, DY: 1e+21},
		netlist.Endpoint{Cell: a, Pin: "B", Dir: netlist.DirInput, DX: -1.25, DY: 0.1},
	)
	pl := netlist.NewPlacement(nl)
	pl.X[a], pl.Y[a] = math.Copysign(0, -1), 0
	pl.X[b], pl.Y[b] = 7.25, 1e+21
	pl.X[tiny], pl.Y[tiny] = 1e-07, -3.5
	pl.X[huge], pl.Y[huge] = -1e-300, 12
	pl.X[pad], pl.Y[pad] = 999999, -1e6
	pl.X[pad2], pl.Y[pad2] = 1e+21, math.Copysign(0, -1)
	core := &geom.Core{
		Region: geom.NewRect(math.Copysign(0, -1), 0, 100.5, 20),
		Rows: []geom.Row{
			{Y: 0, X: math.Copysign(0, -1), W: 100.5, H: 10, SiteW: 0.5},
			{Y: 10, X: 1e-07, W: 100, H: 10, SiteW: 0},
		},
	}
	return &Design{Netlist: nl, Placement: pl, Core: core}
}

// oracleDesigns returns gen.Suite's dp01–dp08, the large design and the
// quirk design.
func oracleDesigns() []*Design {
	var out []*Design
	for _, c := range gen.Suite() {
		out = append(out, designOf(gen.Generate(c)))
	}
	return append(out, designOf(gen.Generate(largeConfig())), quirkDesign())
}

func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diffNetlist returns the first difference between a and b, bit for bit,
// name indexes included, or "".
func diffNetlist(a, b *netlist.Netlist) string {
	if a.Name != b.Name || len(a.Cells) != len(b.Cells) || len(a.Nets) != len(b.Nets) || len(a.Pins) != len(b.Pins) {
		return fmt.Sprintf("%q %d/%d/%d vs %q %d/%d/%d cells/nets/pins", a.Name,
			len(a.Cells), len(a.Nets), len(a.Pins), b.Name, len(b.Cells), len(b.Nets), len(b.Pins))
	}
	for i := range a.Cells {
		x, y := &a.Cells[i], &b.Cells[i]
		if x.Name != y.Name || x.Type != y.Type || !same(x.W, y.W) || !same(x.H, y.H) ||
			x.Fixed != y.Fixed || !slices.Equal(x.Pins, y.Pins) {
			return fmt.Sprintf("cell %d: %+v vs %+v", i, *x, *y)
		}
		if a.CellByName(x.Name) != b.CellByName(y.Name) {
			return fmt.Sprintf("cell %q indexed as %d vs %d", x.Name, a.CellByName(x.Name), b.CellByName(y.Name))
		}
	}
	for i := range a.Nets {
		x, y := &a.Nets[i], &b.Nets[i]
		if x.Name != y.Name || !same(x.Weight, y.Weight) || !slices.Equal(x.Pins, y.Pins) {
			return fmt.Sprintf("net %d: %+v vs %+v", i, *x, *y)
		}
		if a.NetByName(x.Name) != b.NetByName(y.Name) {
			return fmt.Sprintf("net %q indexed as %d vs %d", x.Name, a.NetByName(x.Name), b.NetByName(y.Name))
		}
	}
	for i := range a.Pins {
		x, y := &a.Pins[i], &b.Pins[i]
		if x.Cell != y.Cell || x.Net != y.Net || x.Name != y.Name || x.Dir != y.Dir ||
			!same(x.DX, y.DX) || !same(x.DY, y.DY) {
			return fmt.Sprintf("pin %d: %+v vs %+v", i, *x, *y)
		}
	}
	return ""
}

func diffFloats(what string, a, b []float64) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%s: %d vs %d values", what, len(a), len(b))
	}
	for i := range a {
		if !same(a[i], b[i]) {
			return fmt.Sprintf("%s[%d]: %v vs %v", what, i, a[i], b[i])
		}
	}
	return ""
}

func diffCore(a, b *geom.Core) string {
	if (a == nil) != (b == nil) {
		return fmt.Sprintf("core %v vs %v", a, b)
	}
	if a == nil {
		return ""
	}
	r, s := a.Region, b.Region
	if !same(r.Lo.X, s.Lo.X) || !same(r.Lo.Y, s.Lo.Y) || !same(r.Hi.X, s.Hi.X) || !same(r.Hi.Y, s.Hi.Y) ||
		len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("core %+v vs %+v", *a, *b)
	}
	for i := range a.Rows {
		x, y := a.Rows[i], b.Rows[i]
		if !same(x.X, y.X) || !same(x.Y, y.Y) || !same(x.W, y.W) || !same(x.H, y.H) || !same(x.SiteW, y.SiteW) {
			return fmt.Sprintf("row %d: %+v vs %+v", i, x, y)
		}
	}
	return ""
}

func diffDesign(a, b *Design) string {
	if d := diffNetlist(a.Netlist, b.Netlist); d != "" {
		return d
	}
	if d := diffFloats("X", a.Placement.X, b.Placement.X); d != "" {
		return d
	}
	if d := diffFloats("Y", a.Placement.Y, b.Placement.Y); d != "" {
		return d
	}
	return diffCore(a.Core, b.Core)
}

// diffOutcome compares two readers' verdicts on one input: both accept, or
// both reject and agree on whether the input is at fault.
func diffOutcome(err, ref error) string {
	if (err == nil) != (ref == nil) ||
		errors.Is(err, ErrMalformedInput) != errors.Is(ref, ErrMalformedInput) {
		return fmt.Sprintf("verdicts differ: %v vs oracle %v", err, ref)
	}
	return ""
}

func TestWritersMatchOracle(t *testing.T) {
	for _, d := range oracleDesigns() {
		name := d.Netlist.Name
		for _, sec := range []struct {
			ext      string
			new, ref func(*bytes.Buffer) error
		}{
			{"nodes", func(w *bytes.Buffer) error { return WriteNodes(w, d.Netlist) },
				func(w *bytes.Buffer) error { return refWriteNodes(w, d.Netlist) }},
			{"nets", func(w *bytes.Buffer) error { return WriteNets(w, d.Netlist) },
				func(w *bytes.Buffer) error { return refWriteNets(w, d.Netlist) }},
			{"pl", func(w *bytes.Buffer) error { return WritePl(w, d.Netlist, d.Placement) },
				func(w *bytes.Buffer) error { return refWritePl(w, d.Netlist, d.Placement) }},
			{"scl", func(w *bytes.Buffer) error { return WriteScl(w, d.Core) },
				func(w *bytes.Buffer) error { return refWriteScl(w, d.Core) }},
		} {
			var got, want bytes.Buffer
			if err := sec.new(&got); err != nil {
				t.Fatalf("%s.%s: %v", name, sec.ext, err)
			}
			if err := sec.ref(&want); err != nil {
				t.Fatalf("%s.%s oracle: %v", name, sec.ext, err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s.%s: %d bytes differ from the oracle's %d", name, sec.ext, got.Len(), want.Len())
			}
		}

		dir, refDir := t.TempDir(), t.TempDir()
		aux, err := WriteAux(dir, name, d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := refWriteAux(refDir, name, d); err != nil {
			t.Fatal(err)
		}
		for _, ext := range []string{".aux", ".nodes", ".nets", ".pl", ".scl"} {
			got, err := os.ReadFile(filepath.Join(dir, name+ext))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(refDir, name+ext))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("WriteAux %s%s differs from the oracle's", name, ext)
			}
		}

		got, err := ReadAux(aux)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refReadAux(aux)
		if err != nil {
			t.Fatal(err)
		}
		if diff := diffDesign(got, want); diff != "" {
			t.Errorf("ReadAux %s differs from the oracle: %s", name, diff)
		}
	}
}

// oracleInputs are hand-picked section texts for the text differential:
// Bookshelf quirks, non-ASCII white space and look-alikes, and every
// rejection the hardening tests name.
var oracleInputs = []string{
	nodesText, netsText, plText, sclText,
	"a 2 10\nb 3 10\npad 1 1 terminal\n",
	"a 2 10\n", "a 2　10\u0085\n", "a\xa0 2 10\n", "a 2 10 TERMINAL\n", "a 2 10 termİnal\n",
	"NumNodes : 2\nNumTerminals : 1\nNumNodesX 2 10\n",
	"NumNodes : 99999999999\na 1 1\n", "NumNodes : -5\n", "NumNodes:3\na 1 1\n",
	"a 999999999999999 -000000000000001\n", "a 1000000000000000 1\n", "a -0 1\n", "a - 1\n", "a +1 1\n",
	"a 1_0 1\n", "a 0x10 1\n", "a 10. 1\n", "a 1e3 1\n",
	"a NaN 10\n", "a 2 Inf\n", "a -2 10\n", "a 2 10\na 2 10\n", "a 0x1p-2 1_0\n",
	"UCLA anything\n  UCLAa 1 1\n#x\na 1 1 # c\n",
	"NetDegree : 2 n\n\ta O : 1.0 0.0 Y\n\tb I : -1.5 0 A\n",
	"NetDegree : 2 n\n\ta ı : 1 0\n\tb o:0:0:q\n",
	"NetDegree : 2 n\n\ta O\n\tb I\n",
	"NetDegree : 2\n\ta O\n\tb I\nNetDegree : 2\n\tb O\n\ta I\n",
	"NetDegree : 2 n\n\ta O\n\tb I\nNetDegree : 2 n\n\tb O\n\ta I\n",
	"NetDegree : 2 n\n\ta O\n\tb I\nNetDegree : 2 n\n\tb O\n\ta I\nNetDegree : x\n",
	"NumNets : 1\nNumPins : 2\nNetDegree : 2 n\na O : 0 0\nb I : 0 0\n",
	"NumNets : 2\nNumPins : 2\nNetDegree : 2 n\na O : 0 0\nb I : 0 0\n",
	"NetDegree : 3 n\na O : 0 0\n", "NetDegree : -1 n\n", "a O : 0 0\n",
	"NetDegree : 2 n\na O : NaN 0\nb I : 0 0\n", "NetDegree : 2 n\na O : 0\nb I : 0 0\n",
	"NetDegree : 1 n\na O : 0 0 p q\nb I\n", "NetDegree : 1 n\nzzz O\n",
	"a 0 0 : N\nb 5 0 : N /FIXED\npad 50 50 : N /FIXED\n", "a x 0 : N\n", "a NaN 0 : N\n",
	"CoreRow Horizontal\n Coordinate : 1p4\n Height : 10abc\n Sitewidth : 0x1p-1\n" +
		" SubrowOrigin : -0 NumSites : 1_0\nEnd\n",
	"CoreRow Horizontal\n Coordinate :\nEnd\n", "CoreRow Horizontal\n Height : nan\nEnd\n",
	"CoreRow Horizontal\n SubrowOrigin : 5 numsites : 2e1\nEnd\nEnd\n",
	"garbage\x00\xff\n", "",
}

// readBoth reads one section text with both readers the way each reader
// type takes it, against a small cell population, and compares them.
func readBoth(data string) string {
	cells := "a 2 10\nb 3 10\npad 1 1 terminal\n"
	var out []string
	{
		got, want := netlist.New("t"), netlist.New("t")
		err, ref := ReadNodes(strings.NewReader(data), got), refReadNodes(strings.NewReader(data), want)
		out = append(out, diffOutcome(err, ref))
		if err == nil && ref == nil {
			out = append(out, diffNetlist(got, want))
		}
	}
	{
		got, want := netlist.New("t"), netlist.New("t")
		if err := ReadNodes(strings.NewReader(cells), got); err != nil {
			return err.Error()
		}
		if err := refReadNodes(strings.NewReader(cells), want); err != nil {
			return err.Error()
		}
		err, ref := ReadNets(strings.NewReader(data), got), refReadNets(strings.NewReader(data), want)
		out = append(out, diffOutcome(err, ref))
		if err == nil && ref == nil {
			out = append(out, diffNetlist(got, want))
		}
		gp, wp := netlist.NewPlacement(got), netlist.NewPlacement(want)
		err, ref = ReadPl(strings.NewReader(data), got, gp), refReadPl(strings.NewReader(data), want, wp)
		out = append(out, diffOutcome(err, ref))
		if err == nil && ref == nil {
			out = append(out, diffDesign(&Design{got, gp, nil}, &Design{want, wp, nil}))
		}
	}
	gc, err := ReadScl(strings.NewReader(data))
	wc, ref := refReadScl(strings.NewReader(data))
	out = append(out, diffOutcome(err, ref))
	if err == nil && ref == nil {
		out = append(out, diffCore(gc, wc))
	}
	for _, d := range out {
		if d != "" {
			return d
		}
	}
	return ""
}

func TestReadersMatchOracleOnText(t *testing.T) {
	for _, data := range oracleInputs {
		if d := readBoth(data); d != "" {
			t.Errorf("%q: %s", data, d)
		}
	}
}

// The line splitter must split as strings.Fields does (and as Fields after
// ReplaceAll(":", " ") on pin lines), on random lines mixing ASCII, Unicode
// white space and invalid UTF-8.
func TestSplitMatchesFields(t *testing.T) {
	alphabet := []string{"a", "b", "1", ".", ":", " ", "\t", "\v", "\r", "\u0085", " ", " ",
		"　", "\xc2", "\x85", "\xe2\x80", "ı", "é", "�", "#"}
	rng := rand.New(rand.NewSource(1))
	ls := &lineScanner{}
	for n := 0; n < 20000; n++ {
		var sb strings.Builder
		for k := rng.Intn(12); k > 0; k-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		s := sb.String()
		for _, colon := range []bool{false, true} {
			want := strings.Fields(s)
			if colon {
				want = strings.Fields(strings.ReplaceAll(s, ":", " "))
			}
			var got []string
			for _, f := range ls.split([]byte(s), colon) {
				got = append(got, string(f))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("split(%q, %v) = %q, want %q", s, colon, got, want)
			}
		}
	}
}

// pinDir must classify every single-rune field as strings.ToUpper did.
func TestPinDirMatchesToUpper(t *testing.T) {
	ref := func(f string) netlist.Dir {
		switch strings.ToUpper(f) {
		case "I":
			return netlist.DirInput
		case "O":
			return netlist.DirOutput
		}
		return netlist.DirInout
	}
	for r := rune(0); r <= utf8.MaxRune; r++ {
		f := string(r)
		if pinDir([]byte(f)) != ref(f) {
			t.Fatalf("pinDir(%q) = %v, want %v", f, pinDir([]byte(f)), ref(f))
		}
	}
	for _, f := range []string{"II", "io", "\xff", "ıı", "I\xff"} {
		if pinDir([]byte(f)) != ref(f) {
			t.Errorf("pinDir(%q) = %v, want %v", f, pinDir([]byte(f)), ref(f))
		}
	}
}
