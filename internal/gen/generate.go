package gen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/datapath"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// MaxBits is the widest datapath dpgen and the dpplaced job spec accept.
const MaxBits = 512

// Config describes a benchmark to generate.
type Config struct {
	Name        string
	Seed        int64
	Bits        int        // datapath width
	Units       []UnitKind // datapath units to instantiate, in order
	RandomCells int        // random-logic cell count
	Pads        int        // fixed IO pads (default 16)
	Whitespace  float64    // core area / total cell area (default 2.0)
	Scramble    bool       // strip bus indices from net names
	ExtraSinks  float64    // mean extra sinks per random net (default 1.2)
	ClockWeight float64    // net weight of the clock (default 0.25)
}

func (c *Config) fillDefaults() {
	if c.Bits <= 0 {
		c.Bits = 16
	}
	if c.Pads <= 0 {
		c.Pads = 16
	}
	if c.Whitespace <= 1 {
		c.Whitespace = 2.0
	}
	if c.ExtraSinks <= 0 {
		c.ExtraSinks = 1.2
	}
	if c.ClockWeight <= 0 {
		c.ClockWeight = 0.25
	}
	if c.Name == "" {
		c.Name = "bench"
	}
}

// Benchmark is a generated design ready for placement and extraction
// scoring.
type Benchmark struct {
	Config    Config
	Netlist   *netlist.Netlist
	Core      *geom.Core
	Placement *netlist.Placement // pads placed; movables at the core center
	Truth     datapath.Labels    // ground-truth slice labels
	// DatapathCells counts cells belonging to ground-truth slices.
	DatapathCells int
}

// DatapathFraction returns the fraction of movable cells inside ground-truth
// datapath slices.
func (b *Benchmark) DatapathFraction() float64 {
	mov := b.Netlist.NumMovable()
	if mov == 0 {
		return 0
	}
	return float64(b.DatapathCells) / float64(mov)
}

// Generate builds a benchmark from cfg. Generation is deterministic in
// cfg.Seed. cfg must yield a movable cell: at least one unit or RandomCells
// > 0. Without one the core region is degenerate and Generate panics.
func Generate(cfg Config) *Benchmark {
	cfg.fillDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := newBuilder(cfg.Name, cfg.Scramble)

	var clkSinks []conn
	var openIn, openOut []conn

	// Datapath units.
	units := make([]unit, 0, len(cfg.Units))
	for uid, kind := range cfg.Units {
		units = append(units, b.build(kind, uid, cfg.Bits, &clkSinks))
	}

	// Inter-unit buses: chain unit k's bit-b outputs into unit k+1's bit-b
	// inputs. This is what makes a design *datapath-intensive*: most
	// connectivity flows bit-parallel between stages, exactly the
	// structure whose alignment the placer exploits. Control pins and
	// leftover bit pins join the random sea below.
	inUsed := make([][]bool, len(units))
	outUsed := make([][]bool, len(units))
	for k := range units {
		inUsed[k] = make([]bool, len(units[k].openIn))
		outUsed[k] = make([]bool, len(units[k].openOut))
	}
	busID := 0
	for k := 0; k+1 < len(units); k++ {
		prev, cur := &units[k], &units[k+1]
		for bit := 0; bit < cfg.Bits; bit++ {
			var outs, ins []int
			for i, ob := range prev.outBit {
				if ob == bit && !outUsed[k][i] {
					outs = append(outs, i)
				}
			}
			for i, ib := range cur.inBit {
				if ib == bit && !inUsed[k+1][i] {
					ins = append(ins, i)
				}
			}
			// Each output drives up to two next-stage inputs of its bit.
			for _, oi := range outs {
				if len(ins) == 0 {
					break
				}
				n := 1
				if len(ins) > len(outs) && len(ins) >= 2 {
					n = 2
				}
				if n > len(ins) {
					n = len(ins)
				}
				ends := []conn{prev.openOut[oi]}
				for _, ii := range ins[:n] {
					ends = append(ends, cur.openIn[ii])
					inUsed[k+1][ii] = true
				}
				ins = ins[n:]
				outUsed[k][oi] = true
				b.net(fmt.Sprintf("ubus%d[%d]", busID, bit), 1, ends...)
			}
		}
		busID++
	}
	for k := range units {
		for i, c := range units[k].openIn {
			if !inUsed[k][i] {
				openIn = append(openIn, c)
			}
		}
		for i, c := range units[k].openOut {
			if !outUsed[k][i] {
				openOut = append(openOut, c)
			}
		}
	}

	// Random-logic cells: every input pin joins the open-input pool, every
	// output pin the driver pool, so each pin connects exactly once.
	type drv struct {
		c conn
	}
	var drivers []drv
	for i := 0; i < cfg.RandomCells; i++ {
		m := randomMasters[rng.Intn(len(randomMasters))]
		id := b.addCell(m, -1, -1)
		for pi, p := range m.pins {
			switch p.dir {
			case netlist.DirOutput:
				drivers = append(drivers, drv{conn{id, m, pi}})
			case netlist.DirInput:
				if m.typ == "DFF" && p.name == "CK" {
					clkSinks = append(clkSinks, conn{id, m, pi})
					continue
				}
				openIn = append(openIn, conn{id, m, pi})
			}
		}
	}
	// Unit outputs behave as extra drivers.
	for _, c := range openOut {
		drivers = append(drivers, drv{c})
	}

	// Pads: fixed IO ring.
	pads := make([]netlist.CellID, cfg.Pads)
	for i := range pads {
		pads[i] = b.addPad()
	}

	// Wire the sea: shuffle inputs, hand geometric batches to each driver.
	rng.Shuffle(len(openIn), func(i, j int) { openIn[i], openIn[j] = openIn[j], openIn[i] })
	rng.Shuffle(len(drivers), func(i, j int) { drivers[i], drivers[j] = drivers[j], drivers[i] })

	inAt := 0
	takeSinks := func(mean float64) []conn {
		n := 1
		for rng.Float64() < mean/(mean+1) && n < 6 {
			n++
		}
		if inAt+n > len(openIn) {
			n = len(openIn) - inAt
		}
		s := openIn[inAt : inAt+n]
		inAt += n
		return s
	}
	netID := 0
	for _, d := range drivers {
		sinks := takeSinks(cfg.ExtraSinks)
		ends := append([]conn{d.c}, sinks...)
		if len(ends) < 2 {
			// Leave danglers for the pads below; a driver-only net carries
			// no placement information.
			if inAt >= len(openIn) {
				// Tie the lonely driver to a pad so every pin is wired.
				pad := pads[netID%len(pads)]
				ends = append(ends, on(pad, masterPAD, "P"))
			}
		}
		b.net(fmt.Sprintf("r%d", netID), 1, ends...)
		netID++
	}
	// Remaining inputs hang off pads in small batches.
	for inAt < len(openIn) {
		pad := pads[netID%len(pads)]
		n := 1 + rng.Intn(3)
		if inAt+n > len(openIn) {
			n = len(openIn) - inAt
		}
		ends := append([]conn{on(pad, masterPAD, "P")}, openIn[inAt:inAt+n]...)
		inAt += n
		b.net(fmt.Sprintf("r%d", netID), 1, ends...)
		netID++
	}

	// Clock tree root.
	if len(clkSinks) > 0 {
		clkbuf := b.addCell(masterBUF, -1, -1)
		ends := append([]conn{on(clkbuf, masterBUF, "Y")}, clkSinks...)
		b.net("clk", cfg.ClockWeight, ends...)
		// The buffer's input hangs off pad 0.
		b.net("clk_in", 1, on(pads[0], masterPAD, "P"), on(clkbuf, masterBUF, "A"))
	}

	nl := b.nl
	if err := nl.Validate(); err != nil {
		panic(fmt.Sprintf("gen: generated invalid netlist: %v", err))
	}

	// Core region sized from total movable area.
	area := nl.MovableArea() * cfg.Whitespace
	w := math.Sqrt(area)
	nRows := int(math.Ceil(area / (w * RowH)))
	if nRows < 1 {
		nRows = 1
	}
	w = math.Ceil(area / (float64(nRows) * RowH))
	core := geom.NewCore(geom.NewRect(0, 0, w, float64(nRows)*RowH), RowH, 1)

	// Pads on a ring just outside the core; movables start at the center.
	pl := netlist.NewPlacement(nl)
	placePadRing(nl, pl, pads, core.Region)
	center := core.Region.Center()
	spread := math.Min(core.Region.W(), core.Region.H()) * 0.05
	for i := range nl.Cells {
		if nl.Cells[i].Fixed {
			continue
		}
		pl.X[i] = center.X + (rng.Float64()-0.5)*spread
		pl.Y[i] = center.Y + (rng.Float64()-0.5)*spread
	}

	// Ground truth labels. The inter-unit buses chain every unit
	// bit-preservingly, so the whole datapath is one physical array: bit i
	// of every unit belongs to the same slice (the layout a designer would
	// draw puts them in one row). Collapse the per-unit group ids into one
	// chain group accordingly.
	truth := datapath.NewLabels(nl.NumCells())
	dpCells := 0
	for c, lab := range b.truth {
		if lab.group >= 0 {
			truth.Group[c] = 0
			truth.Bit[c] = lab.bit
			dpCells++
		}
	}

	return &Benchmark{
		Config:        cfg,
		Netlist:       nl,
		Core:          core,
		Placement:     pl,
		Truth:         truth,
		DatapathCells: dpCells,
	}
}

// placePadRing distributes pads evenly around the outside of region.
func placePadRing(nl *netlist.Netlist, pl *netlist.Placement, pads []netlist.CellID, region geom.Rect) {
	n := len(pads)
	if n == 0 {
		return
	}
	perim := 2 * (region.W() + region.H())
	for i, id := range pads {
		t := float64(i) / float64(n) * perim
		cell := nl.Cell(id)
		var x, y float64
		switch {
		case t < region.W(): // bottom edge
			x, y = region.Lo.X+t, region.Lo.Y-cell.H
		case t < region.W()+region.H(): // right edge
			x, y = region.Hi.X, region.Lo.Y+(t-region.W())
		case t < 2*region.W()+region.H(): // top edge
			x, y = region.Hi.X-(t-region.W()-region.H()), region.Hi.Y
		default: // left edge
			x, y = region.Lo.X-cell.W, region.Hi.Y-(t-2*region.W()-region.H())
		}
		pl.X[id] = x
		pl.Y[id] = y
	}
}

// Suite returns the dp01..dp08 benchmark suite used throughout the
// evaluation: increasing size and datapath fraction (≈20% → ≈75%), fixed
// seeds. The high-fraction designs are the "datapath-intensive" regime of
// the paper's title; the low-fraction ones anchor the crossover.
func Suite() []Config {
	return []Config{
		{Name: "dp01", Seed: 101, Bits: 8, Units: []UnitKind{Adder, MuxTree}, RandomCells: 400},
		{Name: "dp02", Seed: 102, Bits: 16, Units: []UnitKind{Adder, Shifter}, RandomCells: 600},
		{Name: "dp03", Seed: 103, Bits: 16, Units: []UnitKind{Adder, MuxTree, RegBank}, RandomCells: 900},
		{Name: "dp04", Seed: 104, Bits: 16, Units: []UnitKind{Adder, MuxTree, RegBank, Shifter, Adder}, RandomCells: 500},
		{Name: "dp05", Seed: 105, Bits: 16, Units: []UnitKind{Adder, MuxTree, RegBank, Shifter, Adder, RegBank, MuxTree}, RandomCells: 250},
		{Name: "dp06", Seed: 106, Bits: 32, Units: []UnitKind{Adder, Adder, MuxTree, RegBank}, RandomCells: 2400},
		{Name: "dp07", Seed: 107, Bits: 32, Units: []UnitKind{Adder, MuxTree, Shifter, RegBank, Adder, MuxTree}, RandomCells: 2000},
		{Name: "dp08", Seed: 108, Bits: 64, Units: []UnitKind{Adder, MuxTree, Shifter, RegBank, Adder}, RandomCells: 3000},
	}
}
