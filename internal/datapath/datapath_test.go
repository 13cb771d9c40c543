package datapath

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/netlist"
)

// buildRegisterColumn builds the canonical bit-sliced structure: per bit i,
// src_i --d[i]--> dff_i --q[i]--> sink_i, with one shared clock net. When
// scramble is set, net names carry no bus indices.
func buildRegisterColumn(t *testing.T, bits int, scramble bool) (*netlist.Netlist, Labels) {
	t.Helper()
	nl := netlist.New("regcol")
	truth := Labels{}

	clkBuf := nl.MustAddCell("clkbuf", "BUF", 2, 1, false)
	srcs := make([]netlist.CellID, bits)
	dffs := make([]netlist.CellID, bits)
	sinks := make([]netlist.CellID, bits)
	for i := 0; i < bits; i++ {
		srcs[i] = nl.MustAddCell(fmt.Sprintf("src%d", i), "INV", 2, 1, false)
		dffs[i] = nl.MustAddCell(fmt.Sprintf("dff%d", i), "DFF", 5, 1, false)
		sinks[i] = nl.MustAddCell(fmt.Sprintf("sink%d", i), "INV", 2, 1, false)
	}
	netName := func(base string, i int) string {
		if scramble {
			// No bracket/underscore-index pattern: invisible to name-based
			// bus inference.
			return fmt.Sprintf("w%s%d", base, i)
		}
		return fmt.Sprintf("%s[%d]", base, i)
	}
	ends := make([]netlist.Endpoint, 0, bits+1)
	ends = append(ends, netlist.Endpoint{Cell: clkBuf, Pin: "Y", Dir: netlist.DirOutput})
	for i := 0; i < bits; i++ {
		ends = append(ends, netlist.Endpoint{Cell: dffs[i], Pin: "CK", Dir: netlist.DirInput})
	}
	nl.MustAddNet("clk", 1, ends...)
	for i := 0; i < bits; i++ {
		nl.MustAddNet(netName("d", i), 1,
			netlist.Endpoint{Cell: srcs[i], Pin: "Y", Dir: netlist.DirOutput},
			netlist.Endpoint{Cell: dffs[i], Pin: "D", Dir: netlist.DirInput},
		)
		nl.MustAddNet(netName("q", i), 1,
			netlist.Endpoint{Cell: dffs[i], Pin: "Q", Dir: netlist.DirOutput},
			netlist.Endpoint{Cell: sinks[i], Pin: "A", Dir: netlist.DirInput},
		)
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	truth = NewLabels(nl.NumCells())
	for i := 0; i < bits; i++ {
		for _, c := range []netlist.CellID{srcs[i], dffs[i], sinks[i]} {
			truth.Group[c] = 0
			truth.Bit[c] = i
		}
	}
	return nl, truth
}

func TestCellSigsGroupIdenticalCells(t *testing.T) {
	nl, _ := buildRegisterColumn(t, 8, false)
	sigs := CellSigs(nl)
	d0 := nl.CellByName("dff0")
	d5 := nl.CellByName("dff5")
	s0 := nl.CellByName("src0")
	if sigs[d0] != sigs[d5] {
		t.Error("identical DFFs got different signatures")
	}
	if sigs[d0] == sigs[s0] {
		t.Error("DFF and INV share a signature")
	}
	// src and sink are both INVs but differ in environment (src drives a
	// DFF-bound 2-pin net, sink is driven): the *cell* signature is
	// type-level and ignores neighbors beyond degree, so src0 vs sink0 may
	// collide — that is fine; the extractor separates them by connectivity.
}

func TestNetSigsGroupBusNets(t *testing.T) {
	nl, _ := buildRegisterColumn(t, 8, true)
	cs := CellSigs(nl)
	ns := NetSigs(nl, cs)
	// All 8 d-nets share a signature; the clock net must not share it.
	d0 := nl.NetByName("wd0")
	d5 := nl.NetByName("wd5")
	clk := nl.NetByName("clk")
	if ns[d0] != ns[d5] {
		t.Error("bus bit nets got different signatures")
	}
	if ns[d0] == ns[clk] {
		t.Error("clock net shares the data-net signature")
	}
}

func TestParseBusName(t *testing.T) {
	cases := []struct {
		in   string
		base string
		idx  int
		ok   bool
	}{
		{"data[3]", "data", 3, true},
		{"data<12>", "data", 12, true},
		{"data_7", "data", 7, true},
		{"clk", "", 0, false},
		{"a[x]", "", 0, false},
		{"[3]", "", 0, false},
		{"x_y_9", "x_y", 9, true},
		{"n_00", "n", 0, true},
		{"bus[-2]", "", 0, false},
	}
	for _, c := range cases {
		base, idx, ok := parseBusName(c.in)
		if ok != c.ok || (ok && (base != c.base || idx != c.idx)) {
			t.Errorf("parseBusName(%q) = (%q,%d,%v), want (%q,%d,%v)",
				c.in, base, idx, ok, c.base, c.idx, c.ok)
		}
	}
}

func TestNameBuses(t *testing.T) {
	nl, _ := buildRegisterColumn(t, 8, false)
	buses := NameBuses(nl, 4)
	if len(buses) != 2 {
		t.Fatalf("buses = %d, want 2 (d and q)", len(buses))
	}
	for _, b := range buses {
		if b.Bits() != 8 {
			t.Errorf("bus %q has %d bits", b.Name, b.Bits())
		}
	}
	if buses[0].Name != "d" || buses[1].Name != "q" {
		t.Errorf("bus names = %q, %q", buses[0].Name, buses[1].Name)
	}
}

func TestNameBusesRejectsDuplicateIndex(t *testing.T) {
	nl := netlist.New("dup")
	a := nl.MustAddCell("a", "INV", 1, 1, false)
	for i := 0; i < 5; i++ {
		nl.MustAddNet(fmt.Sprintf("b[%d]", i), 1,
			netlist.Endpoint{Cell: a, Pin: fmt.Sprintf("p%d", i), Dir: netlist.DirInput})
	}
	// Duplicate index 2 under a different container style.
	nl.MustAddNet("b_2", 1, netlist.Endpoint{Cell: a, Pin: "px", Dir: netlist.DirInput})
	buses := NameBuses(nl, 4)
	if len(buses) != 0 {
		t.Errorf("ambiguous bus accepted: %v", buses)
	}
}

func TestStructuralBuses(t *testing.T) {
	nl, _ := buildRegisterColumn(t, 8, true)
	cs := CellSigs(nl)
	ns := NetSigs(nl, cs)
	buses := StructuralBuses(nl, ns, 4, 512)
	// d-nets and q-nets form two structural classes of 8 each (possibly
	// more if INV signatures collide, merging d and q nets into one class
	// of 16 — still valid buses).
	total := 0
	for _, b := range buses {
		total += b.Bits()
	}
	if total < 16 {
		t.Errorf("structural buses cover %d nets, want >= 16", total)
	}
}

func TestExtractRegisterColumnNamed(t *testing.T) {
	nl, truth := buildRegisterColumn(t, 8, false)
	ext := Extract(nl, DefaultOptions())
	if len(ext.Groups) == 0 {
		t.Fatal("no groups extracted")
	}
	score := Compare(truth, ext.Labels())
	if score.Recall < 0.99 || score.Precision < 0.99 {
		t.Errorf("score = %+v, want perfect recovery", score)
	}
	// The main group must be 8 bits wide and at least src→dff→sink deep.
	g := ext.Groups[0]
	if g.Bits() != 8 || g.Stages() < 3 {
		t.Errorf("group shape = %d bits × %d stages, want 8×3", g.Bits(), g.Stages())
	}
}

func TestExtractRegisterColumnScrambled(t *testing.T) {
	nl, truth := buildRegisterColumn(t, 8, true)
	opt := DefaultOptions()
	opt.UseNames = false // force pure structural mode
	ext := Extract(nl, opt)
	score := Compare(truth, ext.Labels())
	if score.Recall < 0.99 || score.Precision < 0.99 {
		t.Errorf("structural-only score = %+v, want perfect recovery", score)
	}
}

func TestExtractTooNarrowBusIgnored(t *testing.T) {
	nl, _ := buildRegisterColumn(t, 3, false) // below MinBits=4
	ext := Extract(nl, DefaultOptions())
	if len(ext.Groups) != 0 {
		t.Errorf("3-bit structure extracted despite MinBits=4: %v", ext.Groups)
	}
	if ext.NumGrouped() != 0 {
		t.Errorf("NumGrouped = %d", ext.NumGrouped())
	}
}

func TestExtractRandomLogicFindsLittle(t *testing.T) {
	// A random Rent-style netlist has no repeated slices; the extractor
	// must not hallucinate large structures.
	rng := rand.New(rand.NewSource(99))
	nl := netlist.New("rand")
	n := 300
	for i := 0; i < n; i++ {
		nl.MustAddCell(fmt.Sprintf("c%d", i), fmt.Sprintf("T%d", rng.Intn(6)), 2, 1, false)
	}
	for i := 0; i < 400; i++ {
		deg := 2 + rng.Intn(3)
		ends := make([]netlist.Endpoint, 0, deg)
		drv := rng.Intn(n)
		ends = append(ends, netlist.Endpoint{
			Cell: netlist.CellID(drv), Pin: "Y", Dir: netlist.DirOutput})
		for k := 1; k < deg; k++ {
			ends = append(ends, netlist.Endpoint{
				Cell: netlist.CellID(rng.Intn(n)), Pin: fmt.Sprintf("A%d", k), Dir: netlist.DirInput})
		}
		nl.MustAddNet(fmt.Sprintf("n%d", i), 1, ends...)
	}
	ext := Extract(nl, DefaultOptions())
	if frac := float64(ext.NumGrouped()) / float64(n); frac > 0.15 {
		t.Errorf("extractor grouped %.0f%% of random logic", frac*100)
	}
}

func TestExtractionInvariants(t *testing.T) {
	nl, _ := buildRegisterColumn(t, 16, false)
	ext := Extract(nl, DefaultOptions())
	seen := make(map[netlist.CellID]bool)
	for gi, g := range ext.Groups {
		if g.Bits() == 0 || g.Stages() == 0 {
			t.Fatalf("group %d empty", gi)
		}
		for _, col := range g.Columns {
			if len(col) != g.Bits() {
				t.Fatalf("group %d has ragged columns", gi)
			}
			for b, c := range col {
				if seen[c] {
					t.Fatalf("cell %d in two groups", c)
				}
				seen[c] = true
				if ext.CellGroup[c] != gi || ext.CellBit[c] != b {
					t.Fatalf("reverse mapping wrong for cell %d", c)
				}
			}
		}
	}
	// Ungrouped cells must have -1 markers.
	for c := range nl.Cells {
		if !seen[netlist.CellID(c)] && (ext.CellGroup[c] != -1 || ext.CellBit[c] != -1) {
			t.Fatalf("ungrouped cell %d has labels %d/%d", c, ext.CellGroup[c], ext.CellBit[c])
		}
	}
}

func TestCompareScoring(t *testing.T) {
	truth := NewLabels(6)
	// Truth: cells 0,1 in slice (0,0); cells 2,3 in slice (0,1).
	truth.Group[0], truth.Bit[0] = 0, 0
	truth.Group[1], truth.Bit[1] = 0, 0
	truth.Group[2], truth.Bit[2] = 0, 1
	truth.Group[3], truth.Bit[3] = 0, 1

	// Prediction: perfect on slice 0, merges slice 1 with cell 4 (false pair).
	got := NewLabels(6)
	got.Group[0], got.Bit[0] = 7, 3 // renumbered: still same-slice pairs
	got.Group[1], got.Bit[1] = 7, 3
	got.Group[2], got.Bit[2] = 7, 4
	got.Group[3], got.Bit[3] = 7, 4
	got.Group[4], got.Bit[4] = 7, 4

	s := Compare(truth, got)
	if s.TruePairs != 2 {
		t.Errorf("TruePairs = %d, want 2", s.TruePairs)
	}
	if s.GotPairs != 4 { // (0,1) + C(3,2)=3
		t.Errorf("GotPairs = %d, want 4", s.GotPairs)
	}
	if s.Hits != 2 {
		t.Errorf("Hits = %d, want 2", s.Hits)
	}
	if s.Recall != 1 || s.Precision != 0.5 {
		t.Errorf("P/R = %g/%g, want 0.5/1", s.Precision, s.Recall)
	}
	if s.F1 <= 0.66 || s.F1 >= 0.67 {
		t.Errorf("F1 = %g, want 2/3", s.F1)
	}
}

func TestCompareEmpty(t *testing.T) {
	s := Compare(NewLabels(5), NewLabels(5))
	if s.Precision != 0 || s.Recall != 0 || s.F1 != 0 {
		t.Errorf("empty compare = %+v", s)
	}
}

// TestExtractKeepsWideSliceNets pins maxFanout at 12: a per-bit net of up
// to 12 pins is data. In an 8-bit src→dff→sink column, each q[i] net also
// feeds eight observer cells, ten pins in all, and extraction must still
// follow it from the flip-flops to their sinks.
func TestExtractKeepsWideSliceNets(t *testing.T) {
	const bits, observers = 8, 8
	nl := netlist.New("widecol")
	var bitCells [][3]netlist.CellID
	for i := 0; i < bits; i++ {
		src := nl.MustAddCell(fmt.Sprintf("src%d", i), "INV", 2, 1, false)
		dff := nl.MustAddCell(fmt.Sprintf("dff%d", i), "DFF", 5, 1, false)
		sink := nl.MustAddCell(fmt.Sprintf("sink%d", i), "INV", 2, 1, false)
		bitCells = append(bitCells, [3]netlist.CellID{src, dff, sink})
		nl.MustAddNet(fmt.Sprintf("d[%d]", i), 1,
			netlist.Endpoint{Cell: src, Pin: "Y", Dir: netlist.DirOutput},
			netlist.Endpoint{Cell: dff, Pin: "D", Dir: netlist.DirInput})
		q := []netlist.Endpoint{
			{Cell: dff, Pin: "Q", Dir: netlist.DirOutput},
			{Cell: sink, Pin: "A", Dir: netlist.DirInput},
		}
		for k := 0; k < observers; k++ {
			obs := nl.MustAddCell(fmt.Sprintf("obs%d_%d", i, k), "OBS", 1, 1, false)
			q = append(q, netlist.Endpoint{Cell: obs, Pin: "A", Dir: netlist.DirInput})
		}
		nl.MustAddNet(fmt.Sprintf("q[%d]", i), 1, q...)
	}
	truth := NewLabels(nl.NumCells())
	for i, cells := range bitCells {
		for _, c := range cells {
			truth.Group[c], truth.Bit[c] = 0, i
		}
	}
	ext := Extract(nl, DefaultOptions())
	if score := Compare(truth, ext.Labels()); score.Recall < 0.99 || score.Precision < 0.99 {
		t.Errorf("score = %+v with %d-pin slice nets, want perfect recovery", score, 2+observers)
	}
}
