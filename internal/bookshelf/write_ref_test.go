package bookshelf

// The previous Bookshelf writer, kept verbatim (only renamed) as the
// oracle of the differential tests: for every design it accepts, the
// production writers must emit exactly these bytes.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// refWriteAux writes the full design as base.aux plus its referenced files into
// dir, returning the .aux path.
func refWriteAux(dir, base string, d *Design) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("bookshelf: %w", err)
	}
	files := map[string]func(io.Writer) error{
		base + ".nodes": func(w io.Writer) error { return refWriteNodes(w, d.Netlist) },
		base + ".nets":  func(w io.Writer) error { return refWriteNets(w, d.Netlist) },
		base + ".pl":    func(w io.Writer) error { return refWritePl(w, d.Netlist, d.Placement) },
	}
	if d.Core != nil {
		files[base+".scl"] = func(w io.Writer) error { return refWriteScl(w, d.Core) }
	}
	// Write in sorted name order so directory mtimes and error reporting
	// are reproducible run to run.
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := refWriteFile(filepath.Join(dir, name), files[name]); err != nil {
			return "", err
		}
	}
	auxPath := filepath.Join(dir, base+".aux")
	err := refWriteFile(auxPath, func(w io.Writer) error {
		line := fmt.Sprintf("RowBasedPlacement : %s.nodes %s.nets %s.pl", base, base, base)
		if d.Core != nil {
			line += " " + base + ".scl"
		}
		_, err := fmt.Fprintln(w, line)
		return err
	})
	if err != nil {
		return "", err
	}
	return auxPath, nil
}

func refWriteFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bookshelf: %w", err)
	}
	bw := bufio.NewWriter(f)
	if err := fn(bw); err != nil {
		f.Close()
		return fmt.Errorf("bookshelf: writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("bookshelf: writing %s: %w", path, err)
	}
	return f.Close()
}

// refWriteNodes writes the .nodes section for nl.
func refWriteNodes(w io.Writer, nl *netlist.Netlist) error {
	if _, err := fmt.Fprintf(w, "UCLA nodes 1.0\n\nNumNodes : %d\nNumTerminals : %d\n",
		nl.NumCells(), nl.NumCells()-nl.NumMovable()); err != nil {
		return err
	}
	for i := range nl.Cells {
		c := &nl.Cells[i]
		suffix := ""
		if c.Fixed {
			suffix = " terminal"
		}
		if _, err := fmt.Fprintf(w, "%s %g %g%s\n", c.Name, c.W, c.H, suffix); err != nil {
			return err
		}
	}
	return nil
}

// refWriteNets writes the .nets section for nl, converting pin offsets back to
// the Bookshelf center-relative convention.
func refWriteNets(w io.Writer, nl *netlist.Netlist) error {
	if _, err := fmt.Fprintf(w, "UCLA nets 1.0\n\nNumNets : %d\nNumPins : %d\n",
		nl.NumNets(), nl.NumPins()); err != nil {
		return err
	}
	for i := range nl.Nets {
		n := &nl.Nets[i]
		if _, err := fmt.Fprintf(w, "NetDegree : %d %s\n", n.Degree(), n.Name); err != nil {
			return err
		}
		for _, pid := range n.Pins {
			p := nl.Pin(pid)
			dirCh := "B"
			switch p.Dir {
			case netlist.DirInput:
				dirCh = "I"
			case netlist.DirOutput:
				dirCh = "O"
			}
			var cellName string
			var dx, dy float64
			if p.Cell == netlist.NoCell {
				// Top-level terminals are not representable without a pad
				// cell; emit a synthetic name so the file stays parseable.
				cellName = "TERM_" + p.Name
				dx, dy = 0, 0
			} else {
				cell := nl.Cell(p.Cell)
				cellName = cell.Name
				dx = p.DX - cell.W/2
				dy = p.DY - cell.H/2
			}
			// The trailing pin name is a common academic extension of the
			// Bookshelf .nets format; standard parsers ignore extra tokens
			// and our reader recovers it, preserving extraction fidelity.
			if _, err := fmt.Fprintf(w, "\t%s %s : %g %g %s\n", cellName, dirCh, dx, dy, p.Name); err != nil {
				return err
			}
		}
	}
	return nil
}

// refWritePl writes the .pl section.
func refWritePl(w io.Writer, nl *netlist.Netlist, pl *netlist.Placement) error {
	if _, err := fmt.Fprintln(w, "UCLA pl 1.0"); err != nil {
		return err
	}
	for i := range nl.Cells {
		c := &nl.Cells[i]
		suffix := ""
		if c.Fixed {
			suffix = " /FIXED"
		}
		if _, err := fmt.Fprintf(w, "%s %g %g : N%s\n", c.Name, pl.X[i], pl.Y[i], suffix); err != nil {
			return err
		}
	}
	return nil
}

// refWriteScl writes the .scl section for core.
func refWriteScl(w io.Writer, core *geom.Core) error {
	if _, err := fmt.Fprintf(w, "UCLA scl 1.0\n\nNumRows : %d\n", core.NumRows()); err != nil {
		return err
	}
	for _, row := range core.Rows {
		siteW := row.SiteW
		if siteW <= 0 {
			siteW = 1
		}
		numSites := int(row.W / siteW)
		_, err := fmt.Fprintf(w,
			"CoreRow Horizontal\n"+
				" Coordinate : %g\n"+
				" Height : %g\n"+
				" Sitewidth : %g\n"+
				" Sitespacing : %g\n"+
				" SubrowOrigin : %g NumSites : %d\n"+
				"End\n",
			row.Y, row.H, siteW, siteW, row.X, numSites)
		if err != nil {
			return err
		}
	}
	return nil
}
