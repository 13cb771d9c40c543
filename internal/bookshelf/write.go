package bookshelf

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// WriteAux writes the full design as base.aux plus its referenced files into
// dir, returning the .aux path. It creates nothing, and returns an error,
// when a writer below would refuse the design, or when base holds white
// space or a path separator, which the .aux line would not keep.
func WriteAux(dir, base string, d *Design) (string, error) {
	if strings.IndexFunc(base, unicode.IsSpace) >= 0 || strings.ContainsAny(base, "/"+string(filepath.Separator)) {
		return "", fmt.Errorf("bookshelf: base name %q holds white space or a path separator", base)
	}
	err := checkNodes(d.Netlist)
	if err == nil {
		err = checkNets(d.Netlist)
	}
	if err == nil {
		err = checkPl(d.Netlist, d.Placement)
	}
	if err == nil && d.Core != nil {
		err = checkScl(d.Core)
	}
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("bookshelf: %w", err)
	}
	// Files are written in sorted name order (the extensions sort the same
	// under any base), so directory mtimes and error reporting are
	// reproducible run to run.
	files := []struct {
		ext   string
		write func(io.Writer) error
	}{
		{".nets", func(w io.Writer) error { return writeNets(w, d.Netlist) }},
		{".nodes", func(w io.Writer) error { return writeNodes(w, d.Netlist) }},
		{".pl", func(w io.Writer) error { return writePl(w, d.Netlist, d.Placement) }},
		{".scl", func(w io.Writer) error { return writeScl(w, d.Core) }},
	}
	line := "RowBasedPlacement : " + base + ".nodes " + base + ".nets " + base + ".pl"
	if d.Core != nil {
		line += " " + base + ".scl"
	}
	for _, f := range files {
		if f.ext == ".scl" && d.Core == nil {
			continue
		}
		if err := writeFile(filepath.Join(dir, base+f.ext), f.write); err != nil {
			return "", err
		}
	}
	auxPath := filepath.Join(dir, base+".aux")
	err = writeFile(auxPath, func(w io.Writer) error {
		_, err := io.WriteString(w, line+"\n")
		return err
	})
	if err != nil {
		return "", err
	}
	return auxPath, nil
}

func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bookshelf: %w", err)
	}
	if err := fn(f); err != nil {
		f.Close()
		return fmt.Errorf("bookshelf: writing %s: %w", path, err)
	}
	return f.Close()
}

// chunkSize is how many bytes a lineWriter gathers before it writes them.
const chunkSize = 32 << 10

// lineWriter builds output lines in one reused buffer with strconv and
// hands them to w about chunkSize bytes at a time: no fmt call and no
// allocation per line. Its appends print exactly as fmt's %s, %g and %d.
// The first write error sticks; flush returns it.
type lineWriter struct {
	w   io.Writer
	b   []byte
	err error
}

func newLineWriter(w io.Writer) *lineWriter {
	return &lineWriter{w: w, b: make([]byte, 0, chunkSize+512)}
}

// s, d and g append as %s, %d and %g would print, and return lw, so that a
// line reads in the order of its format.
func (lw *lineWriter) s(v string) *lineWriter {
	lw.b = append(lw.b, v...)
	return lw
}

func (lw *lineWriter) d(v int) *lineWriter {
	lw.b = strconv.AppendInt(lw.b, int64(v), 10)
	return lw
}

func (lw *lineWriter) g(v float64) *lineWriter {
	lw.b = strconv.AppendFloat(lw.b, v, 'g', -1, 64)
	return lw
}

// end closes a line, and passes the buffer on once it holds a chunk.
func (lw *lineWriter) end() {
	lw.b = append(lw.b, '\n')
	if len(lw.b) >= chunkSize {
		lw.flush()
	}
}

func (lw *lineWriter) flush() error {
	if lw.err == nil && len(lw.b) > 0 {
		_, lw.err = lw.w.Write(lw.b)
	}
	lw.b = lw.b[:0]
	return lw.err
}

// badName returns why a reader would not read name back as the one field
// it is written as, or "" when it would: it must be non-empty and hold no
// white space as strings.Fields splits it, no '#' (a comment starts there)
// and, with colon set, no ':' (pin lines split on it too).
func badName(name string, colon bool) string {
	switch {
	case name == "":
		return "is empty"
	case strings.IndexFunc(name, unicode.IsSpace) >= 0:
		return "holds white space"
	case strings.IndexByte(name, '#') >= 0:
		return "holds '#'"
	case colon && strings.IndexByte(name, ':') >= 0:
		return "holds ':'"
	}
	return ""
}

// The line starts each reader takes for something other than a record:
// every reader skips "UCLA" lines, and the rest are its count headers.
var (
	nodesKeys = []string{"UCLA", "NumNodes", "NumTerminals"}
	netsKeys  = []string{"UCLA", "NumNets", "NumPins", "NetDegree"}
	plKeys    = []string{"UCLA"}
)

// badCellName returns why a reader would misread a cell name that starts a
// line, or "": besides badName's rules, the name must not start with one of
// the reader's keys.
func badCellName(name string, colon bool, keys []string) string {
	if why := badName(name, colon); why != "" {
		return why
	}
	for _, key := range keys {
		if strings.HasPrefix(name, key) {
			return "starts with " + key + ", which the reader takes for no record"
		}
	}
	return ""
}

// checkNodes rejects the first cell ReadNodes would misread or refuse: a
// name it would misread, or a width or height that is not finite and
// positive.
func checkNodes(nl *netlist.Netlist) error {
	for i := range nl.Cells {
		c := &nl.Cells[i]
		if why := badCellName(c.Name, false, nodesKeys); why != "" {
			return fmt.Errorf("bookshelf: cell %d name %q %s", i, c.Name, why)
		}
		if !finiteSize(c.W) || !finiteSize(c.H) {
			return fmt.Errorf("bookshelf: cell %d %q has size %gx%g, which ReadNodes refuses", i, c.Name, c.W, c.H)
		}
	}
	return nil
}

// checkPl rejects the first cell ReadPl would misread or refuse: a name it
// would misread, or a position that is not finite. ReadPl also takes
// "/FIXED" anywhere on a line for the fixed flag, which misreads the name
// of a movable cell only.
func checkPl(nl *netlist.Netlist, pl *netlist.Placement) error {
	for i := range nl.Cells {
		c := &nl.Cells[i]
		why := badCellName(c.Name, false, plKeys)
		if why == "" && !c.Fixed && strings.Contains(c.Name, "/FIXED") {
			why = "holds /FIXED, which ReadPl takes for the fixed flag"
		}
		if why != "" {
			return fmt.Errorf("bookshelf: cell %d name %q %s", i, c.Name, why)
		}
		if !finite(pl.X[i]) || !finite(pl.Y[i]) {
			return fmt.Errorf("bookshelf: cell %d %q has position (%g,%g), which ReadPl refuses", i, c.Name, pl.X[i], pl.Y[i])
		}
	}
	return nil
}

// checkNets rejects what ReadNets would misread or refuse: a net name
// badName refuses (':' is allowed there, as the NetDegree line does not
// split on it), a net with no pins, a pin or pin-line cell name it refuses
// with ':', a pin-line cell name starting with a .nets key, a top-level
// terminal pin, which belongs to no cell the file can name, and a pin
// offset that is not finite as written.
func checkNets(nl *netlist.Netlist) error {
	checked := make([]bool, len(nl.Cells))
	for i := range nl.Nets {
		n := &nl.Nets[i]
		if why := badName(n.Name, false); why != "" {
			return fmt.Errorf("bookshelf: net %d name %q %s", i, n.Name, why)
		}
		if n.Degree() < 1 {
			return fmt.Errorf("bookshelf: net %d %q has no pins, which ReadNets refuses", i, n.Name)
		}
		for _, pid := range n.Pins {
			p := nl.Pin(pid)
			if p.Cell == netlist.NoCell {
				return fmt.Errorf("bookshelf: net %q pin %q is a top-level terminal, which .nets cannot name", n.Name, p.Name)
			}
			if why := badName(p.Name, true); why != "" {
				return fmt.Errorf("bookshelf: net %q pin name %q %s", n.Name, p.Name, why)
			}
			if dx, dy := pinOffset(nl, p); !finite(dx) || !finite(dy) {
				return fmt.Errorf("bookshelf: net %q pin %q has offset (%g,%g), which ReadNets refuses", n.Name, p.Name, dx, dy)
			}
			if !checked[p.Cell] {
				checked[p.Cell] = true
				if why := badCellName(nl.Cells[p.Cell].Name, true, netsKeys); why != "" {
					return fmt.Errorf("bookshelf: net %q cell name %q %s", n.Name, nl.Cells[p.Cell].Name, why)
				}
			}
		}
	}
	return nil
}

// checkScl rejects a core ReadScl would refuse: one with no rows, or a row
// whose height or origin, or whose width as written in whole sites, is not
// finite, or whose height or width is not positive.
func checkScl(core *geom.Core) error {
	if len(core.Rows) == 0 {
		return errors.New("bookshelf: core has no rows, which ReadScl refuses")
	}
	for i, row := range core.Rows {
		siteW := sitePitch(row)
		w := float64(int(row.W/siteW)) * siteW
		if !finiteSize(row.H) || !finiteSize(w) || !finite(row.X) || !finite(row.Y) {
			return fmt.Errorf("bookshelf: row %d at (%g,%g) of %gx%g, %g wide in whole sites, which ReadScl refuses",
				i, row.X, row.Y, row.W, row.H, w)
		}
	}
	return nil
}

// sitePitch is the site width WriteScl writes for row.
func sitePitch(row geom.Row) float64 {
	if row.SiteW <= 0 {
		return 1
	}
	return row.SiteW
}

// pinOffset is the center-relative offset WriteNets writes for p.
func pinOffset(nl *netlist.Netlist, p *netlist.Pin) (dx, dy float64) {
	cell := nl.Cell(p.Cell)
	return p.DX - cell.W/2, p.DY - cell.H/2
}

// WriteNodes writes the .nodes section for nl. It writes nothing and
// returns an error when ReadNodes would misread a cell name or refuse a
// cell size.
func WriteNodes(w io.Writer, nl *netlist.Netlist) error {
	if err := checkNodes(nl); err != nil {
		return err
	}
	return writeNodes(w, nl)
}

func writeNodes(w io.Writer, nl *netlist.Netlist) error {
	lw := newLineWriter(w)
	lw.s("UCLA nodes 1.0\n\nNumNodes : ").d(nl.NumCells()).s("\nNumTerminals : ").d(nl.NumCells() - nl.NumMovable()).end()
	for i := range nl.Cells {
		c := &nl.Cells[i]
		lw.s(c.Name).s(" ").g(c.W).s(" ").g(c.H)
		if c.Fixed {
			lw.s(" terminal")
		}
		lw.end()
	}
	return lw.flush()
}

// WriteNets writes the .nets section for nl, converting pin offsets back to
// the Bookshelf center-relative convention. It writes nothing and returns
// an error when ReadNets would misread a cell, net or pin name or refuse a
// net with no pins or a non-finite pin offset, or when a pin is a
// top-level terminal.
func WriteNets(w io.Writer, nl *netlist.Netlist) error {
	if err := checkNets(nl); err != nil {
		return err
	}
	return writeNets(w, nl)
}

func writeNets(w io.Writer, nl *netlist.Netlist) error {
	lw := newLineWriter(w)
	lw.s("UCLA nets 1.0\n\nNumNets : ").d(nl.NumNets()).s("\nNumPins : ").d(nl.NumPins()).end()
	for i := range nl.Nets {
		n := &nl.Nets[i]
		lw.s("NetDegree : ").d(n.Degree()).s(" ").s(n.Name).end()
		for _, pid := range n.Pins {
			p := nl.Pin(pid)
			dirCh := "B"
			switch p.Dir {
			case netlist.DirInput:
				dirCh = "I"
			case netlist.DirOutput:
				dirCh = "O"
			}
			dx, dy := pinOffset(nl, p)
			// The trailing pin name is a common academic extension of the
			// Bookshelf .nets format; standard parsers ignore extra tokens
			// and our reader recovers it, preserving extraction fidelity.
			lw.s("\t").s(nl.Cell(p.Cell).Name).s(" ").s(dirCh).s(" : ").g(dx).s(" ").g(dy).s(" ").s(p.Name).end()
		}
	}
	return lw.flush()
}

// WritePl writes the .pl section. It writes nothing and returns an error
// when ReadPl would misread a cell name or refuse a position.
func WritePl(w io.Writer, nl *netlist.Netlist, pl *netlist.Placement) error {
	if err := checkPl(nl, pl); err != nil {
		return err
	}
	return writePl(w, nl, pl)
}

// WritePlFile writes the .pl section to path. The bytes are built first, so
// when WritePl refuses the placement nothing is created and a file already
// at path is left as it was.
func WritePlFile(path string, nl *netlist.Netlist, pl *netlist.Placement) error {
	var buf bytes.Buffer
	if err := WritePl(&buf, nl, pl); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("bookshelf: %w", err)
	}
	return nil
}

func writePl(w io.Writer, nl *netlist.Netlist, pl *netlist.Placement) error {
	lw := newLineWriter(w)
	lw.s("UCLA pl 1.0").end()
	for i := range nl.Cells {
		c := &nl.Cells[i]
		lw.s(c.Name).s(" ").g(pl.X[i]).s(" ").g(pl.Y[i]).s(" : N")
		if c.Fixed {
			lw.s(" /FIXED")
		}
		lw.end()
	}
	return lw.flush()
}

// WriteScl writes the .scl section for core. It writes nothing and returns
// an error when ReadScl would refuse the core.
func WriteScl(w io.Writer, core *geom.Core) error {
	if err := checkScl(core); err != nil {
		return err
	}
	return writeScl(w, core)
}

func writeScl(w io.Writer, core *geom.Core) error {
	lw := newLineWriter(w)
	lw.s("UCLA scl 1.0\n\nNumRows : ").d(core.NumRows()).end()
	for _, row := range core.Rows {
		siteW := sitePitch(row)
		lw.s("CoreRow Horizontal\n Coordinate : ").g(row.Y).
			s("\n Height : ").g(row.H).
			s("\n Sitewidth : ").g(siteW).
			s("\n Sitespacing : ").g(siteW).
			s("\n SubrowOrigin : ").g(row.X).s(" NumSites : ").d(int(row.W / siteW)).
			s("\nEnd").end()
	}
	return lw.flush()
}
