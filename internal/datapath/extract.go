package datapath

import (
	"fmt"
	"sort"

	"repro/internal/netlist"
)

// Group is one recovered datapath array. Columns[s][b] is the cell of bit b
// at stage s; every column's cells are structurally identical and the bit
// order is consistent across all columns (bit b of every column belongs to
// the same slice).
type Group struct {
	Columns [][]netlist.CellID
}

// Bits returns the number of bit slices in the group.
func (g *Group) Bits() int {
	if len(g.Columns) == 0 {
		return 0
	}
	return len(g.Columns[0])
}

// Stages returns the number of columns (pipeline stages) in the group.
func (g *Group) Stages() int { return len(g.Columns) }

// NumCells returns Bits × Stages.
func (g *Group) NumCells() int { return g.Bits() * g.Stages() }

// String summarizes the group's shape.
func (g *Group) String() string {
	return fmt.Sprintf("group{%d bits × %d stages}", g.Bits(), g.Stages())
}

// Extraction is the result of running the extractor on a netlist.
type Extraction struct {
	Groups []Group
	// CellGroup maps each cell to its group index, or -1.
	CellGroup []int
	// CellBit maps each cell to its bit (row) within its group, or -1.
	CellBit []int
}

// NumGrouped returns the number of cells assigned to any group.
func (e *Extraction) NumGrouped() int {
	n := 0
	for _, g := range e.CellGroup {
		if g >= 0 {
			n++
		}
	}
	return n
}

// Fixed parameters of extraction.
const (
	// maxBusBits is the widest structural bus considered.
	maxBusBits = 512
	// maxFanout separates data from control: nets wider than this are
	// control, not data.
	maxFanout = 12
	// defaultMinStages is the default minimum column count of a group. Two
	// lock-step columns arise by coincidence in random logic (pairs of
	// identical cells joined by identical 2-pin nets), and aligning such
	// false arrays costs wirelength for no benefit; three isomorphic
	// stages are decisive.
	defaultMinStages = 3
)

// Options controls extraction.
type Options struct {
	MinBits       int  // minimum bus width / slice count (default 4)
	MinStages     int  // minimum columns per group (default 3)
	UseNames      bool // infer buses from net names (default on via DefaultOptions)
	UseStructural bool // infer buses from net signatures
}

// DefaultOptions returns the extraction defaults used in the paper
// reproduction: both inference modes on.
func DefaultOptions() Options {
	return Options{
		MinBits:       4,
		MinStages:     defaultMinStages,
		UseNames:      true,
		UseStructural: true,
	}
}

func (o *Options) fillDefaults() {
	if o.MinBits <= 0 {
		o.MinBits = 4
	}
	if o.MinStages <= 0 {
		o.MinStages = defaultMinStages
	}
}

// extractor carries the per-run state.
type extractor struct {
	nl       *netlist.Netlist
	opt      Options
	cellSigs []Sig
	used     []bool // cells committed to an accepted group
	// pinByName[c] maps pin name → PinID for cell c, built lazily.
	pinByName []map[string]netlist.PinID
}

// Extract runs datapath extraction on nl.
func Extract(nl *netlist.Netlist, opt Options) *Extraction {
	opt.fillDefaults()
	ex := &extractor{
		nl:        nl,
		opt:       opt,
		cellSigs:  CellSigs(nl),
		used:      make([]bool, nl.NumCells()),
		pinByName: make([]map[string]netlist.PinID, nl.NumCells()),
	}

	var buses []Bus
	if opt.UseNames {
		buses = append(buses, NameBuses(nl, opt.MinBits)...)
	}
	if opt.UseStructural {
		netSigs := NetSigs(nl, ex.cellSigs)
		buses = append(buses, StructuralBuses(nl, netSigs, opt.MinBits, maxBusBits)...)
	}
	// Wider buses first: they anchor the most regular structure.
	sort.SliceStable(buses, func(a, b int) bool { return buses[a].Bits() > buses[b].Bits() })

	// Phase 1: grow a candidate group from every seed, without claiming
	// cells — overlapping candidates compete in phase 2. Seeds polluted by
	// a coincidental extra bit (common for structural buses) are retried on
	// the bit subsets that can actually continue.
	var candidates []Group
	for _, bus := range buses {
		for _, seed := range ex.seedColumns(bus) {
			if group, ok := ex.grow(seed); ok {
				candidates = append(candidates, group)
			}
			for _, mask := range ex.partialMasks(seed) {
				sub := make([]netlist.CellID, 0, len(seed))
				for i, keep := range mask {
					if keep {
						sub = append(sub, seed[i])
					}
				}
				if group, ok := ex.grow(sub); ok {
					candidates = append(candidates, group)
				}
			}
		}
	}

	// Phases 2-6 iterate: select candidates (most lock-step evidence
	// first), repair their shapes (fold), extend them (regrow), unite them
	// (merge), and drop the ones that remain shallow. Cells claimed by a
	// dropped group are released so the surviving candidates can pick them
	// up on the next round — a wide 2-stage mixed blob (one structural
	// class pooled across several units) would otherwise both fail its own
	// fold and starve the per-unit candidates of their cells.
	var finalGroups []Group
	for round := 0; round < 3; round++ {
		selected := ex.selectCandidates(candidates)
		if len(selected) == 0 {
			break
		}
		selected = ex.foldGroups(selected)
		ex.regrow(selected)
		selected = mergeGroups(nl, selected, maxFanout)
		ex.regrow(selected)

		// Confidence filter: groups still shallower than MinStages after
		// folding, regrowing and merging are coincidences or mixed blobs;
		// release their cells.
		dropped := 0
		for _, g := range selected {
			if g.Stages() >= opt.MinStages {
				finalGroups = append(finalGroups, g)
				continue
			}
			dropped++
			for _, col := range g.Columns {
				for _, c := range col {
					ex.used[c] = false
				}
			}
		}
		if dropped == 0 {
			break
		}
	}

	res := &Extraction{
		Groups:    finalGroups,
		CellGroup: make([]int, nl.NumCells()),
		CellBit:   make([]int, nl.NumCells()),
	}
	for i := range res.CellGroup {
		res.CellGroup[i] = -1
		res.CellBit[i] = -1
	}
	for gi, g := range res.Groups {
		for _, col := range g.Columns {
			for b, c := range col {
				res.CellGroup[c] = gi
				res.CellBit[c] = b
			}
		}
	}
	return res
}

// pins returns the name→pin map of cell c.
func (ex *extractor) pins(c netlist.CellID) map[string]netlist.PinID {
	if m := ex.pinByName[c]; m != nil {
		return m
	}
	cell := ex.nl.Cell(c)
	m := make(map[string]netlist.PinID, len(cell.Pins))
	for _, pid := range cell.Pins {
		m[ex.nl.Pin(pid).Name] = pid
	}
	ex.pinByName[c] = m
	return m
}

// columnOK reports whether cells form a valid fresh column: all distinct,
// unused, sharing one signature.
func (ex *extractor) columnOK(cells []netlist.CellID, tentative map[netlist.CellID]bool) bool {
	if len(cells) == 0 {
		return false
	}
	seen := make(map[netlist.CellID]bool, len(cells))
	sig := ex.cellSigs[cells[0]]
	for _, c := range cells {
		if c == netlist.NoCell || ex.used[c] || tentative[c] || seen[c] || ex.cellSigs[c] != sig {
			return false
		}
		seen[c] = true
	}
	return true
}

// endpointMatch describes one continuation target found on a net.
type endpointMatch struct {
	sig Sig
	pin string
}

// seedColumns derives candidate seed columns from a bus: for every
// (signature, pin-name) combination that occurs exactly once among the sinks
// of each bus net, the matched cells form a column; likewise for the unique
// drivers.
func (ex *extractor) seedColumns(bus Bus) [][]netlist.CellID {
	nl := ex.nl
	var seeds [][]netlist.CellID

	// Enumerate candidate sink keys from the first net.
	first := nl.Net(bus.Nets[0])
	counts := make(map[endpointMatch]int)
	for _, pid := range first.Pins {
		p := nl.Pin(pid)
		if p.Cell == netlist.NoCell || p.Dir == netlist.DirOutput {
			continue
		}
		counts[endpointMatch{ex.cellSigs[p.Cell], p.Name}]++
	}
	keys := make([]endpointMatch, 0, len(counts))
	for k, c := range counts {
		if c == 1 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].sig != keys[b].sig {
			return keys[a].sig < keys[b].sig
		}
		return keys[a].pin < keys[b].pin
	})

	for _, key := range keys {
		// Subset seeding: keep the bits whose net matches; real buses have
		// ragged boundaries (carry in/out, enables), and demanding a match
		// on every bit would discard the whole array.
		col := make([]netlist.CellID, 0, len(bus.Nets))
		for _, ni := range bus.Nets {
			if c := ex.uniqueEndpoint(ni, key, netlist.DirInput); c != netlist.NoCell {
				col = append(col, c)
			}
		}
		if len(col) >= ex.opt.MinBits && ex.columnOK(col, nil) {
			seeds = append(seeds, col)
		}
	}

	// Driver column: the unique output endpoint of each net. Drivers may
	// mix masters (boundary bits); keep the dominant signature subset.
	col := make([]netlist.CellID, 0, len(bus.Nets))
	for _, ni := range bus.Nets {
		if c := ex.uniqueDriver(ni); c != netlist.NoCell {
			col = append(col, c)
		}
	}
	col = ex.dominantSigSubset(col)
	if len(col) >= ex.opt.MinBits && ex.columnOK(col, nil) {
		seeds = append(seeds, col)
	}
	return seeds
}

// dominantSigSubset keeps the cells sharing the most common signature,
// preserving order.
func (ex *extractor) dominantSigSubset(col []netlist.CellID) []netlist.CellID {
	if len(col) == 0 {
		return col
	}
	counts := make(map[Sig]int)
	for _, c := range col {
		counts[ex.cellSigs[c]]++
	}
	var best Sig
	bestN := -1
	//placelint:ignore maporder argmax with a full (count, sig) tie break is iteration-order independent
	for s, n := range counts {
		if n > bestN || (n == bestN && s < best) {
			best, bestN = s, n
		}
	}
	out := col[:0]
	for _, c := range col {
		if ex.cellSigs[c] == best {
			out = append(out, c)
		}
	}
	return out
}

// uniqueEndpoint returns the only cell attached to net ni through a pin with
// the given name/signature/direction, or NoCell when absent or ambiguous.
func (ex *extractor) uniqueEndpoint(ni netlist.NetID, key endpointMatch, dir netlist.Dir) netlist.CellID {
	nl := ex.nl
	found := netlist.NoCell
	for _, pid := range nl.Net(ni).Pins {
		p := nl.Pin(pid)
		if p.Cell == netlist.NoCell || p.Dir != dir || p.Name != key.pin {
			continue
		}
		if ex.cellSigs[p.Cell] != key.sig {
			continue
		}
		if found != netlist.NoCell {
			return netlist.NoCell // ambiguous
		}
		found = p.Cell
	}
	return found
}

// uniqueDriver returns the single output-pin cell of net ni, or NoCell.
func (ex *extractor) uniqueDriver(ni netlist.NetID) netlist.CellID {
	nl := ex.nl
	found := netlist.NoCell
	for _, pid := range nl.Net(ni).Pins {
		p := nl.Pin(pid)
		if p.Cell == netlist.NoCell || p.Dir != netlist.DirOutput {
			continue
		}
		if found != netlist.NoCell {
			return netlist.NoCell
		}
		found = p.Cell
	}
	return found
}

// grow runs BFS from the seed column, adding every lock-step continuation
// (forward through output pins, backward through input pins) whose cells are
// fresh. Returns the group and whether it meets the acceptance thresholds.
func (ex *extractor) grow(seed []netlist.CellID) (Group, bool) {
	tentative := make(map[netlist.CellID]bool, len(seed)*4)
	for _, c := range seed {
		tentative[c] = true
	}
	group := Group{Columns: [][]netlist.CellID{seed}}
	for qi := 0; qi < len(group.Columns); qi++ {
		for _, next := range ex.continuations(group.Columns[qi], tentative) {
			// Re-validate: an earlier continuation from this same column may
			// have claimed these cells (e.g. a rotator's straight and
			// rotated paths reach the same mux column in two bit orders).
			if !ex.columnOK(next, tentative) {
				continue
			}
			for _, c := range next {
				tentative[c] = true
			}
			group.Columns = append(group.Columns, next)
		}
	}
	// Depth is checked again *after* fold/regrow/merge (see Extract): a
	// wide 2-stage candidate may be a folded register bank that deepens
	// once its row structure is recovered, so only the hard floor applies
	// here.
	if group.Bits() < ex.opt.MinBits || group.Stages() < 2 {
		return Group{}, false
	}
	return group, true
}

// continuations finds every new column reachable from col in lock step.
func (ex *extractor) continuations(col []netlist.CellID, tentative map[netlist.CellID]bool) [][]netlist.CellID {
	nl := ex.nl
	var result [][]netlist.CellID

	// Iterate the pin names of the column's class via cell 0, sorted for
	// determinism.
	pinNames := make([]string, 0, 8)
	for name := range ex.pins(col[0]) {
		pinNames = append(pinNames, name)
	}
	sort.Strings(pinNames)

	for _, pn := range pinNames {
		p0 := nl.Pin(ex.pins(col[0])[pn])
		// Gather the per-bit nets on this pin; they must be distinct
		// (a shared net is a control signal, not per-bit data) and narrow
		// enough to be data.
		nets := make([]netlist.NetID, len(col))
		ok := true
		seenNet := make(map[netlist.NetID]bool, len(col))
		wantDeg := -1
		for i, c := range col {
			pid, exists := ex.pins(c)[pn]
			if !exists {
				ok = false
				break
			}
			ni := nl.Pin(pid).Net
			deg := nl.Net(ni).Degree()
			if wantDeg < 0 {
				wantDeg = deg
			}
			// Lock-step requires per-bit, same-shape nets: distinct (shared
			// = control), equal degree (unequal = boundary or coincidence),
			// and narrow enough to be data.
			if seenNet[ni] || deg != wantDeg || deg > maxFanout {
				ok = false
				break
			}
			seenNet[ni] = true
			nets[i] = ni
		}
		if !ok {
			continue
		}

		if p0.Dir == netlist.DirOutput {
			// Forward: unique same-key sink per net.
			for _, key := range ex.sinkKeys(nets[0], col[0]) {
				next := make([]netlist.CellID, len(col))
				good := true
				for i, ni := range nets {
					c := ex.uniqueEndpoint(ni, key, netlist.DirInput)
					if c == netlist.NoCell {
						good = false
						break
					}
					next[i] = c
				}
				if good && ex.columnOK(next, tentative) {
					result = append(result, next)
				}
			}
		} else {
			// Backward: unique driver per net, all alike.
			next := make([]netlist.CellID, len(col))
			good := true
			for i, ni := range nets {
				c := ex.uniqueDriver(ni)
				if c == netlist.NoCell {
					good = false
					break
				}
				next[i] = c
			}
			if good && ex.columnOK(next, tentative) {
				result = append(result, next)
			}
		}
	}
	return result
}

// sinkKeys lists the (signature, pin) keys occurring exactly once among the
// input-pin endpoints of net ni, excluding pins on cell self.
func (ex *extractor) sinkKeys(ni netlist.NetID, self netlist.CellID) []endpointMatch {
	nl := ex.nl
	counts := make(map[endpointMatch]int)
	for _, pid := range nl.Net(ni).Pins {
		p := nl.Pin(pid)
		if p.Cell == netlist.NoCell || p.Cell == self || p.Dir == netlist.DirOutput {
			continue
		}
		counts[endpointMatch{ex.cellSigs[p.Cell], p.Name}]++
	}
	keys := make([]endpointMatch, 0, len(counts))
	for k, c := range counts {
		if c == 1 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].sig != keys[b].sig {
			return keys[a].sig < keys[b].sig
		}
		return keys[a].pin < keys[b].pin
	})
	return keys
}

// rungs scores a candidate by its lock-step evidence: the number of
// parallel net "rungs" between consecutive columns. Depth and width both
// contribute, so true arrays outrank both the wide-but-shallow mixed blobs
// and the deep-but-narrow diagonal chains.
func rungs(g *Group) int { return g.Bits() * (g.Stages() - 1) }

// selectCandidates greedily claims candidates in decreasing evidence order,
// shedding columns whose cells are already claimed; remnants survive with
// two or more columns (the merge phase reunites them with their array).
func (ex *extractor) selectCandidates(candidates []Group) []Group {
	order := make([]int, len(candidates))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ga, gb := &candidates[order[a]], &candidates[order[b]]
		if rungs(ga) != rungs(gb) {
			return rungs(ga) > rungs(gb)
		}
		if ga.Bits() != gb.Bits() {
			return ga.Bits() > gb.Bits()
		}
		return order[a] < order[b]
	})
	var selected []Group
	for _, ci := range order {
		cand := &candidates[ci]
		var cols [][]netlist.CellID
		for _, col := range cand.Columns {
			free := true
			for _, c := range col {
				if ex.used[c] {
					free = false
					break
				}
			}
			if free {
				cols = append(cols, col)
			}
		}
		if len(cols) < 2 {
			continue
		}
		g := Group{Columns: cols}
		for _, col := range cols {
			for _, c := range col {
				ex.used[c] = true
			}
		}
		selected = append(selected, g)
	}
	return selected
}
