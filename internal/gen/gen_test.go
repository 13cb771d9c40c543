package gen

import (
	"slices"
	"testing"

	"repro/internal/datapath"
	"repro/internal/netlist"
)

func smallConfig() Config {
	return Config{
		Name:        "t",
		Seed:        7,
		Bits:        8,
		Units:       []UnitKind{Adder, MuxTree, Shifter, RegBank},
		RandomCells: 300,
		Pads:        8,
	}
}

func TestGenerateValidNetlist(t *testing.T) {
	b := Generate(smallConfig())
	if err := b.Netlist.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Netlist.NumCells() < 300 {
		t.Errorf("too few cells: %d", b.Netlist.NumCells())
	}
	if b.Netlist.NumNets() == 0 || b.Netlist.NumPins() == 0 {
		t.Error("no nets/pins")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallConfig())
	b := Generate(smallConfig())
	if a.Netlist.NumCells() != b.Netlist.NumCells() ||
		a.Netlist.NumNets() != b.Netlist.NumNets() ||
		a.Netlist.NumPins() != b.Netlist.NumPins() {
		t.Fatal("same seed produced different designs")
	}
	for i := range a.Placement.X {
		if a.Placement.X[i] != b.Placement.X[i] {
			t.Fatal("same seed produced different placements")
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	cfg1 := smallConfig()
	cfg2 := smallConfig()
	cfg2.Seed = 8
	a, b := Generate(cfg1), Generate(cfg2)
	same := true
	for i := range a.Placement.X {
		if a.Placement.X[i] != b.Placement.X[i] {
			same = false
			break
		}
	}
	// Topology may match in counts, but random wiring must differ; compare
	// net degrees as a cheap fingerprint.
	if same {
		diff := false
		for i := 0; i < a.Netlist.NumNets() && i < b.Netlist.NumNets(); i++ {
			if a.Netlist.Net(netlist.NetID(i)).Degree() != b.Netlist.Net(netlist.NetID(i)).Degree() {
				diff = true
				break
			}
		}
		if !diff {
			t.Error("different seeds produced identical designs")
		}
	}
}

func TestEveryInputPinWiredOnce(t *testing.T) {
	b := Generate(smallConfig())
	nl := b.Netlist
	// Every movable cell must have as many pins as its master defines
	// (each pin wired exactly once); masters are identified by Type.
	wantPins := map[string]int{
		"INV": 2, "BUF": 2, "NAND2": 3, "NOR2": 3, "AND2": 3, "OR2": 3,
		"XOR2": 3, "MUX2": 4, "DFF": 3,
	}
	for i := range nl.Cells {
		c := &nl.Cells[i]
		if c.Fixed {
			continue
		}
		if want, ok := wantPins[c.Type]; ok {
			if len(c.Pins) != want {
				t.Fatalf("cell %s (%s) has %d pins, want %d", c.Name, c.Type, len(c.Pins), want)
			}
		}
		// No pin name may repeat on a movable cell.
		seen := map[string]bool{}
		for _, pid := range c.Pins {
			n := nl.Pin(pid).Name
			if seen[n] {
				t.Fatalf("cell %s has duplicate pin %q", c.Name, n)
			}
			seen[n] = true
		}
	}
}

func TestDatapathFraction(t *testing.T) {
	b := Generate(smallConfig())
	f := b.DatapathFraction()
	if f <= 0 || f >= 1 {
		t.Errorf("datapath fraction = %g", f)
	}
	// No units → zero fraction.
	cfg := smallConfig()
	cfg.Units = nil
	if got := Generate(cfg).DatapathFraction(); got != 0 {
		t.Errorf("fraction without units = %g", got)
	}
}

func TestPadsFixedAndOutsideCore(t *testing.T) {
	b := Generate(smallConfig())
	nl, pl := b.Netlist, b.Placement
	nPads := 0
	for i := range nl.Cells {
		if !nl.Cells[i].Fixed {
			continue
		}
		nPads++
		r := pl.CellRect(nl, netlist.CellID(i))
		if !b.Core.Region.Intersect(r).Empty() {
			t.Errorf("pad %s overlaps the core", nl.Cells[i].Name)
		}
	}
	if nPads != 8 {
		t.Errorf("pads = %d, want 8", nPads)
	}
}

func TestMovablesStartInsideCore(t *testing.T) {
	b := Generate(smallConfig())
	for i := range b.Netlist.Cells {
		if b.Netlist.Cells[i].Fixed {
			continue
		}
		p := b.Placement.Loc(netlist.CellID(i))
		if !b.Core.Region.Contains(p) {
			t.Fatalf("movable cell %d starts at %v outside core %v", i, p, b.Core.Region)
		}
	}
}

func TestCoreAreaMatchesWhitespace(t *testing.T) {
	b := Generate(smallConfig())
	ratio := b.Core.Area() / b.Netlist.MovableArea()
	if ratio < 1.9 || ratio > 2.3 {
		t.Errorf("core/cell area ratio = %g, want ≈2.0", ratio)
	}
}

func TestGroundTruthShape(t *testing.T) {
	b := Generate(smallConfig())
	// Each labeled group must have cells in >= Bits slices.
	slices := map[[2]int]int{}
	for c, g := range b.Truth.Group {
		if g >= 0 {
			slices[[2]int{g, b.Truth.Bit[c]}]++
		}
	}
	if len(slices) == 0 {
		t.Fatal("no ground-truth slices")
	}
	// The bus chain makes the whole datapath one physical array.
	groups := map[int]bool{}
	for k := range slices {
		groups[k[0]] = true
	}
	if len(groups) != 1 {
		t.Errorf("ground-truth groups = %d, want 1 (bus-chained units)", len(groups))
	}
}

// Extraction on generated benchmarks: the integration test tying the
// generator and extractor together. Named mode must recover most slices.
func TestExtractionOnGeneratedNamed(t *testing.T) {
	b := Generate(smallConfig())
	ext := datapath.Extract(b.Netlist, datapath.DefaultOptions())
	score := datapath.Compare(b.Truth, ext.Labels())
	if score.Recall < 0.95 {
		t.Errorf("named-mode recall = %.3f, want >= 0.95 (score %+v)", score.Recall, score)
	}
	if score.Precision < 0.95 {
		t.Errorf("named-mode precision = %.3f, want >= 0.95", score.Precision)
	}
}

func TestExtractionOnGeneratedScrambled(t *testing.T) {
	cfg := smallConfig()
	cfg.Scramble = true
	b := Generate(cfg)
	opt := datapath.DefaultOptions()
	opt.UseNames = false
	ext := datapath.Extract(b.Netlist, opt)
	score := datapath.Compare(b.Truth, ext.Labels())
	if score.Recall < 0.8 {
		t.Errorf("structural-mode recall = %.3f, want >= 0.8 (score %+v)", score.Recall, score)
	}
	if score.Precision < 0.9 {
		t.Errorf("structural-mode precision = %.3f, want >= 0.9", score.Precision)
	}
}

func TestSuiteConfigsGenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("suite generation is slow in -short mode")
	}
	for _, cfg := range Suite()[:4] {
		b := Generate(cfg)
		if err := b.Netlist.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestUnitKindString(t *testing.T) {
	if Adder.String() != "adder" || RegBank.String() != "regbank" {
		t.Error("UnitKind strings wrong")
	}
	if UnitKind(99).String() == "" {
		t.Error("unknown kind should still print")
	}
}

// TestParseUnitsInvertsString parses every kind's String back to the kind,
// skips blank names and refuses an unknown one.
func TestParseUnitsInvertsString(t *testing.T) {
	all := []UnitKind{Adder, MuxTree, Shifter, RegBank}
	names := []string{"", " "}
	for _, k := range all {
		names = append(names, " "+k.String())
	}
	got, err := ParseUnits(names)
	if err != nil || !slices.Equal(got, all) {
		t.Fatalf("ParseUnits(%q) = %v, %v; want %v", names, got, err, all)
	}
	if _, err := ParseUnits([]string{"adder", "bogus"}); err == nil {
		t.Fatal("an unknown unit parsed")
	}
}
