package gen

import (
	"fmt"
	"strings"

	"repro/internal/netlist"
)

// UnitKind selects a datapath unit archetype.
type UnitKind int

// The datapath unit archetypes, mirroring the structures the paper's intro
// motivates: arithmetic (adder), steering (mux tree), shifting (rotator) and
// storage (register bank).
const (
	Adder UnitKind = iota
	MuxTree
	Shifter
	RegBank
)

// String names the unit kind.
func (k UnitKind) String() string {
	switch k {
	case Adder:
		return "adder"
	case MuxTree:
		return "muxtree"
	case Shifter:
		return "shifter"
	case RegBank:
		return "regbank"
	}
	return fmt.Sprintf("UnitKind(%d)", int(k))
}

// ParseUnits is the inverse of String over a list of names: each name,
// trimmed, maps to the unit kind String gives it, and a blank name is
// skipped, so the comma list "adder,,muxtree" parses to two units.
func ParseUnits(names []string) ([]UnitKind, error) {
	kinds := make([]UnitKind, 0, len(names))
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		k := Adder
		for k <= RegBank && k.String() != name {
			k++
		}
		if k > RegBank {
			return nil, fmt.Errorf("unknown unit %q", name)
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}

// unit is a constructed datapath block with unconnected boundary pins that
// the top level wires into inter-unit buses (bit-indexed pins) and the
// random-logic sea (control pins, bit -1).
type unit struct {
	openIn  []conn
	inBit   []int // bit index per openIn entry; -1 for control
	openOut []conn
	outBit  []int
	cells   int
}

// addIn registers an unconnected input pin with its bit index.
func (u *unit) addIn(c conn, bit int) {
	u.openIn = append(u.openIn, c)
	u.inBit = append(u.inBit, bit)
}

// addOut registers an unconnected output pin with its bit index.
func (u *unit) addOut(c conn, bit int) {
	u.openOut = append(u.openOut, c)
	u.outBit = append(u.outBit, bit)
}

// busName builds a per-unit indexed net name, e.g. "u3_a[7]".
func (b *builder) busName(uid int, base string, bit int) string {
	return fmt.Sprintf("u%d_%s[%d]", uid, base, bit)
}

// adder builds a registered ripple-carry adder: DFF columns for both
// operands, a full-adder slice per bit (2×XOR, 2×AND, OR), and a sum DFF
// column. All cells of bit i share ground-truth slice i.
func (b *builder) adder(uid, bits int, clk *[]conn) unit {
	g := b.group
	b.group++
	var u unit

	cin := b.addCell(masterBUF, -1, -1) // carry-in driver, not part of a slice
	u.addIn(on(cin, masterBUF, "A"), -1)
	carry := on(cin, masterBUF, "Y")
	carryM := masterBUF

	for i := 0; i < bits; i++ {
		dffA := b.addCell(masterDFF, g, i)
		dffB := b.addCell(masterDFF, g, i)
		x1 := b.addCell(masterXOR, g, i)
		a1 := b.addCell(masterAND, g, i)
		x2 := b.addCell(masterXOR, g, i)
		a2 := b.addCell(masterAND, g, i)
		orc := b.addCell(masterOR, g, i)
		dffS := b.addCell(masterDFF, g, i)
		u.cells += 8

		b.net(b.busName(uid, "a", i), 1,
			on(dffA, masterDFF, "Q"), on(x1, masterXOR, "A"), on(a1, masterAND, "A"))
		b.net(b.busName(uid, "b", i), 1,
			on(dffB, masterDFF, "Q"), on(x1, masterXOR, "B"), on(a1, masterAND, "B"))
		b.net(b.busName(uid, "p", i), 1,
			on(x1, masterXOR, "Y"), on(x2, masterXOR, "A"), on(a2, masterAND, "A"))
		b.net(b.busName(uid, "c", i), 1,
			conn{carry.cell, carryM, carry.pin},
			on(x2, masterXOR, "B"), on(a2, masterAND, "B"))
		b.net(b.busName(uid, "g", i), 1,
			on(a1, masterAND, "Y"), on(orc, masterOR, "A"))
		b.net(b.busName(uid, "t", i), 1,
			on(a2, masterAND, "Y"), on(orc, masterOR, "B"))
		b.net(b.busName(uid, "s", i), 1,
			on(x2, masterXOR, "Y"), on(dffS, masterDFF, "D"))

		carry = on(orc, masterOR, "Y")
		carryM = masterOR

		*clk = append(*clk,
			on(dffA, masterDFF, "CK"), on(dffB, masterDFF, "CK"), on(dffS, masterDFF, "CK"))
		u.addIn(on(dffA, masterDFF, "D"), i)
		u.addIn(on(dffB, masterDFF, "D"), i)
		u.addOut(on(dffS, masterDFF, "Q"), i)
	}
	u.cells++ // cin
	// Terminate the final carry.
	cout := b.addCell(masterINV, -1, -1)
	u.cells++
	b.net(b.busName(uid, "cout", 0), 1,
		conn{carry.cell, carryM, carry.pin}, on(cout, masterINV, "A"))
	u.addOut(on(cout, masterINV, "Y"), -1)
	return u
}

// muxTree builds a k-input operand selector: per bit, a chain of k−1 MUX2
// cells; select lines are shared across bits (control nets).
func (b *builder) muxTree(uid, bits, k int, clk *[]conn) unit {
	if k < 2 {
		k = 2
	}
	g := b.group
	b.group++
	var u unit

	// Shared select drivers.
	sels := make([]netlist.CellID, k-1)
	selConns := make([][]conn, k-1)
	for j := range sels {
		sels[j] = b.addCell(masterBUF, -1, -1)
		u.cells++
		u.addIn(on(sels[j], masterBUF, "A"), -1)
	}

	muxes := make([][]netlist.CellID, bits)
	for i := 0; i < bits; i++ {
		muxes[i] = make([]netlist.CellID, k-1)
		var prev conn
		for j := 0; j < k-1; j++ {
			m := b.addCell(masterMUX, g, i)
			muxes[i][j] = m
			u.cells++
			if j == 0 {
				u.addIn(on(m, masterMUX, "A"), i)
			} else {
				b.net(b.busName(uid, fmt.Sprintf("m%d", j), i), 1,
					prev, on(m, masterMUX, "A"))
			}
			u.addIn(on(m, masterMUX, "B"), i)
			selConns[j] = append(selConns[j], on(m, masterMUX, "S"))
			prev = on(m, masterMUX, "Y")
		}
		// Register the output.
		dff := b.addCell(masterDFF, g, i)
		u.cells++
		b.net(b.busName(uid, "y", i), 1, prev, on(dff, masterDFF, "D"))
		*clk = append(*clk, on(dff, masterDFF, "CK"))
		u.addOut(on(dff, masterDFF, "Q"), i)
	}
	for j := range sels {
		ends := append([]conn{on(sels[j], masterBUF, "Y")}, selConns[j]...)
		b.net(fmt.Sprintf("u%d_sel%d", uid, j), 1, ends...)
	}
	return u
}

// shifter builds a logarithmic rotator: stages of MUX2 per bit, where stage
// s mixes bit i with bit (i−2^s) mod bits. Cross-bit wiring makes this the
// hardest structure for lock-step extraction.
func (b *builder) shifter(uid, bits, stages int, clk *[]conn) unit {
	g := b.group
	b.group++
	var u unit

	// Input register column.
	cur := make([]conn, bits)
	curM := make([]master, bits)
	for i := 0; i < bits; i++ {
		dff := b.addCell(masterDFF, g, i)
		u.cells++
		*clk = append(*clk, on(dff, masterDFF, "CK"))
		u.addIn(on(dff, masterDFF, "D"), i)
		cur[i] = on(dff, masterDFF, "Q")
		curM[i] = masterDFF
	}

	for s := 0; s < stages; s++ {
		sel := b.addCell(masterBUF, -1, -1)
		u.cells++
		u.addIn(on(sel, masterBUF, "A"), -1)
		shift := 1 << uint(s)

		next := make([]netlist.CellID, bits)
		var selSinks []conn
		// Endpoint sets per source bit: straight sink and rotated sink.
		type sink struct {
			straight, rotated conn
		}
		sinks := make([]sink, bits)
		for i := 0; i < bits; i++ {
			m := b.addCell(masterMUX, g, i)
			next[i] = m
			u.cells++
			selSinks = append(selSinks, on(m, masterMUX, "S"))
		}
		for i := 0; i < bits; i++ {
			sinks[i].straight = on(next[i], masterMUX, "A")
			j := (i + shift) % bits
			sinks[i].rotated = on(next[j], masterMUX, "B")
		}
		for i := 0; i < bits; i++ {
			b.net(b.busName(uid, fmt.Sprintf("st%d", s), i), 1,
				cur[i], sinks[i].straight, sinks[i].rotated)
		}
		b.net(fmt.Sprintf("u%d_shsel%d", uid, s), 1,
			append([]conn{on(sel, masterBUF, "Y")}, selSinks...)...)
		for i := 0; i < bits; i++ {
			cur[i] = on(next[i], masterMUX, "Y")
			curM[i] = masterMUX
		}
	}
	// Output register column.
	for i := 0; i < bits; i++ {
		dff := b.addCell(masterDFF, g, i)
		u.cells++
		b.net(b.busName(uid, "out", i), 1, cur[i], on(dff, masterDFF, "D"))
		*clk = append(*clk, on(dff, masterDFF, "CK"))
		u.addOut(on(dff, masterDFF, "Q"), i)
	}
	return u
}

// regBank builds a write-enabled register bank: an input DFF column plus,
// per word, a MUX2 (hold/load) feeding a DFF per bit. The whole bank is one
// group: bit i of every word shares slice i.
func (b *builder) regBank(uid, bits, words int, clk *[]conn) unit {
	g := b.group
	b.group++
	var u unit

	// Input column drives the shared per-bit din nets.
	din := make([]conn, bits)
	for i := 0; i < bits; i++ {
		dff := b.addCell(masterDFF, g, i)
		u.cells++
		*clk = append(*clk, on(dff, masterDFF, "CK"))
		u.addIn(on(dff, masterDFF, "D"), i)
		din[i] = on(dff, masterDFF, "Q")
	}
	dinSinks := make([][]conn, bits)

	for w := 0; w < words; w++ {
		we := b.addCell(masterBUF, -1, -1)
		u.cells++
		u.addIn(on(we, masterBUF, "A"), -1)
		var weSinks []conn
		for i := 0; i < bits; i++ {
			m := b.addCell(masterMUX, g, i)
			dff := b.addCell(masterDFF, g, i)
			u.cells += 2
			// Feedback: q → mux.A; load: din → mux.B; mux.Y → dff.D. The
			// last word carries the read port: a buffer per bit taps q and
			// becomes the unit's bus output, keeping the chain connected
			// through the bank.
			qEnds := []conn{on(dff, masterDFF, "Q"), on(m, masterMUX, "A")}
			if w == words-1 {
				rd := b.addCell(masterBUF, g, i)
				u.cells++
				qEnds = append(qEnds, on(rd, masterBUF, "A"))
				u.addOut(on(rd, masterBUF, "Y"), i)
			}
			b.net(fmt.Sprintf("u%d_w%d_q[%d]", uid, w, i), 1, qEnds...)
			dinSinks[i] = append(dinSinks[i], on(m, masterMUX, "B"))
			b.net(fmt.Sprintf("u%d_w%d_m[%d]", uid, w, i), 1,
				on(m, masterMUX, "Y"), on(dff, masterDFF, "D"))
			weSinks = append(weSinks, on(m, masterMUX, "S"))
			*clk = append(*clk, on(dff, masterDFF, "CK"))
		}
		b.net(fmt.Sprintf("u%d_we%d", uid, w), 1,
			append([]conn{on(we, masterBUF, "Y")}, weSinks...)...)
	}
	for i := 0; i < bits; i++ {
		b.net(b.busName(uid, "din", i), 1, append([]conn{din[i]}, dinSinks[i]...)...)
	}
	return u
}

// build dispatches a unit kind.
func (b *builder) build(kind UnitKind, uid, bits int, clk *[]conn) unit {
	switch kind {
	case Adder:
		return b.adder(uid, bits, clk)
	case MuxTree:
		return b.muxTree(uid, bits, 4, clk)
	case Shifter:
		stages := 3
		if bits <= 4 {
			stages = 2
		}
		return b.shifter(uid, bits, stages, clk)
	case RegBank:
		return b.regBank(uid, bits, 4, clk)
	}
	panic(fmt.Sprintf("gen: unknown unit kind %d", kind))
}
