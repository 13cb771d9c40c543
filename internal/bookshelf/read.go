// Package bookshelf reads and writes the UCLA Bookshelf placement format
// (.aux/.nodes/.nets/.pl/.scl), the lingua franca of academic placers. Only
// the row-based standard-cell subset used by placement benchmarks is
// supported.
//
// Offset convention: Bookshelf pin offsets are relative to the cell center;
// the in-memory netlist stores offsets from the cell's lower-left corner.
// Readers and writers convert between the two.
//
// Readers are hardened against hostile input: declared header counts are
// capped against the bytes actually available before any allocation, sizes
// and coordinates must be finite, and every format violation wraps
// ErrMalformedInput so callers can classify with errors.Is. The fuzz
// targets check that property and are differential, like
// TestWritersMatchOracle: the previous reader and writer, kept verbatim in
// read_ref_test.go and write_ref_test.go, must return the same verdicts
// and designs and write the same bytes.
//
// Readers and writers spend no fmt call and no allocation per line beyond
// what a netlist keeps (names and pin lists); only the .scl reader, with a
// few values per row, reads them with fmt.Sscan. Writers refuse, before
// writing anything, a name the reader of their section would split,
// truncate, skip or take for a header.
package bookshelf

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/pipeline"
)

// ErrMalformedInput is wrapped by every reader error caused by the input
// stream (as opposed to I/O failures). Alias of pipeline.ErrMalformedInput.
var ErrMalformedInput = pipeline.ErrMalformedInput

// malf builds a malformed-input error anchored to a line number.
func malf(num int, format string, args ...any) error {
	return fmt.Errorf("line %d: %s: %w", num, fmt.Sprintf(format, args...), ErrMalformedInput)
}

// Design bundles everything a Bookshelf benchmark describes.
type Design struct {
	Netlist   *netlist.Netlist
	Placement *netlist.Placement
	Core      *geom.Core
}

// ReadAux loads a complete design given the path of its .aux file.
func ReadAux(path string) (*Design, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("bookshelf: %w", err)
	}
	defer f.Close()

	var nodes, nets, pl, scl string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// "RowBasedPlacement : a.nodes a.nets a.wts a.pl a.scl"
		if i := strings.Index(line, ":"); i >= 0 {
			line = line[i+1:]
		}
		for _, tok := range strings.Fields(line) {
			switch filepath.Ext(tok) {
			case ".nodes":
				nodes = tok
			case ".nets":
				nets = tok
			case ".pl":
				pl = tok
			case ".scl":
				scl = tok
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bookshelf: reading %s: %w", path, scanErr(err))
	}
	if nodes == "" || nets == "" {
		return nil, fmt.Errorf("bookshelf: %s does not reference .nodes and .nets files: %w",
			path, ErrMalformedInput)
	}
	dir := filepath.Dir(path)
	name := strings.TrimSuffix(filepath.Base(path), ".aux")

	nl := netlist.New(name)
	if err := readFileInto(filepath.Join(dir, nodes), func(r io.Reader) error {
		return ReadNodes(r, nl)
	}); err != nil {
		return nil, err
	}
	if err := readFileInto(filepath.Join(dir, nets), func(r io.Reader) error {
		return ReadNets(r, nl)
	}); err != nil {
		return nil, err
	}
	d := &Design{Netlist: nl, Placement: netlist.NewPlacement(nl)}
	if pl != "" {
		if err := readFileInto(filepath.Join(dir, pl), func(r io.Reader) error {
			return ReadPl(r, nl, d.Placement)
		}); err != nil {
			return nil, err
		}
	}
	if scl != "" {
		if err := readFileInto(filepath.Join(dir, scl), func(r io.Reader) error {
			core, err := ReadScl(r)
			d.Core = core
			return err
		}); err != nil {
			return nil, err
		}
	}
	if err := nl.Validate(); err != nil {
		return nil, fmt.Errorf("bookshelf: %s: %w: %w", path, err, ErrMalformedInput)
	}
	return d, nil
}

// sizedReader pairs a stream with the number of bytes known to remain, so
// readers can sanity-check declared record counts before allocating.
type sizedReader struct {
	r io.Reader
	n int64 // bytes remaining, or -1 when unknown
}

func (s *sizedReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if s.n >= 0 {
		s.n -= int64(n)
	}
	return n, err
}

// Remaining returns the bytes left in the stream, or -1 when unknown.
func (s *sizedReader) Remaining() int64 { return s.n }

func readFileInto(path string, fn func(io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("bookshelf: %w", err)
	}
	defer f.Close()
	size := int64(-1)
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	var r io.Reader = f
	if size > 0 {
		// Fault injection: simulate a file cut off mid-record.
		cut := faultinject.TruncatedReader(faultinject.SiteBookshelfTruncate, r, (size+1)/2)
		if cut != r {
			r, size = cut, (size+1)/2
		}
	}
	if err := fn(&sizedReader{r: r, n: size}); err != nil {
		return fmt.Errorf("bookshelf: %s: %w", path, err)
	}
	return nil
}

// scanErr classifies scanner failures: an over-long token is an input
// problem, not an I/O one.
func scanErr(err error) error {
	if errors.Is(err, bufio.ErrTooLong) {
		return fmt.Errorf("%w: %w", err, ErrMalformedInput)
	}
	return err
}

// maxLine is the longest line the readers accept.
const maxLine = 16 * 1024 * 1024

// Byte classes for split: part of a field, a separator, or the start of a
// non-ASCII rune, which split decodes to classify.
const (
	inField = iota
	isSep
	isWide
)

// fieldClass classifies bytes as strings.Fields does; pinClass also makes
// ':' a separator.
var fieldClass, pinClass = func() (f, p [256]uint8) {
	for c := utf8.RuneSelf; c < len(f); c++ {
		f[c] = isWide
	}
	for _, c := range "\t\n\v\f\r " {
		f[c] = isSep
	}
	p = f
	p[':'] = isSep
	return f, p
}()

// lineScanner yields non-empty, comment-stripped lines with their numbers.
// A line and its fields alias the scanner's buffer: they hold until the
// next call to next, and a name kept past it must be copied.
type lineScanner struct {
	sc     *bufio.Scanner
	line   []byte
	fields [][]byte // reused by split
	num    int
	size   int64 // stream size at construction, or -1 when unknown
}

func newLineScanner(r io.Reader) *lineScanner {
	size := int64(-1)
	switch v := r.(type) {
	case interface{ Remaining() int64 }:
		size = v.Remaining()
	case interface{ Len() int }: // strings.Reader, bytes.Reader, bytes.Buffer
		size = int64(v.Len())
	}
	sc := bufio.NewScanner(r)
	// The buffer doubles from 64 KiB as long lines need it, up to maxLine.
	sc.Buffer(make([]byte, 64*1024), maxLine)
	return &lineScanner{sc: sc, size: size}
}

func (ls *lineScanner) next() bool {
	for ls.sc.Scan() {
		ls.num++
		line := ls.sc.Bytes()
		if i := bytes.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 || hasPrefix(line, "UCLA") {
			continue
		}
		ls.line = line
		return true
	}
	return false
}

func (ls *lineScanner) err() error { return scanErr(ls.sc.Err()) }

// split returns the fields of s exactly as strings.Fields splits them, and
// with colon set also splits on ':' (pin lines: "cell I : dx dy"). A
// non-ASCII byte starts a rune, decoded as strings.Fields decodes it: a
// byte of invalid UTF-8 is one rune that is not space. The result reuses
// one slice from line to line.
func (ls *lineScanner) split(s []byte, colon bool) [][]byte {
	class := &fieldClass
	if colon {
		class = &pinClass
	}
	f := ls.fields[:0]
	start := -1
	for i := 0; i < len(s); {
		k, size := class[s[i]], 1
		if k == isWide {
			var r rune
			r, size = utf8.DecodeRune(s[i:])
			if k = inField; unicode.IsSpace(r) {
				k = isSep
			}
		}
		if k == isSep && start >= 0 {
			f = append(f, s[start:i])
			start = -1
		} else if k != isSep && start < 0 {
			start = i
		}
		i += size
	}
	if start >= 0 {
		f = append(f, s[start:])
	}
	ls.fields = f
	return f
}

// hasPrefix reports whether line starts with key, without allocating.
func hasPrefix(line []byte, key string) bool {
	return len(line) >= len(key) && string(line[:len(key)]) == key
}

// headerValue parses "Key : value" lines, returning ok=false when the line
// does not start with key.
func headerValue(line []byte, key string) ([]byte, bool) {
	if !hasPrefix(line, key) {
		return nil, false
	}
	rest := bytes.TrimSpace(line[len(key):])
	if len(rest) > 0 && rest[0] == ':' {
		rest = rest[1:]
	}
	return bytes.TrimSpace(rest), true
}

// headerCount parses a declared count header, rejecting negatives.
func headerCount(num int, key string, v []byte) (int, error) {
	n, err := strconv.Atoi(string(v))
	if err != nil || n < 0 {
		return 0, malf(num, "bad %s %q", key, v)
	}
	return n, nil
}

// capCount bounds a declared record count by the bytes actually available
// (at minBytes per record), so a hostile header cannot force a huge
// allocation. With an unknown stream size a fixed cap applies; a larger
// design then grows its slices and indexes as it loads.
func capCount(declared int, size int64, minBytes int64) int {
	const fallback = 1 << 16
	if declared <= 0 {
		return 0
	}
	limit := int64(fallback)
	if size >= 0 {
		limit = size/minBytes + 1
	}
	if int64(declared) > limit {
		return int(limit)
	}
	return declared
}

// finiteSize reports whether v is a usable cell dimension.
func finiteSize(v float64) bool {
	return v > 0 && !math.IsInf(v, 0)
}

// parseFloat is strconv.ParseFloat on a field, without allocating for the
// short fields numbers are: ParseFloat keeps no reference to its argument.
func parseFloat(f []byte) (float64, error) {
	return strconv.ParseFloat(string(f), 64)
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

var (
	terminalTag = []byte("terminal")
	fixedTag    = []byte("/FIXED")
	numSitesKey = []byte("NumSites")
)

// ReadNodes parses a .nodes stream into nl.
func ReadNodes(r io.Reader, nl *netlist.Netlist) error {
	ls := newLineScanner(r)
	start := nl.NumCells()
	declared := -1
	for ls.next() {
		if v, ok := headerValue(ls.line, "NumNodes"); ok {
			n, err := headerCount(ls.num, "NumNodes", v)
			if err != nil {
				return err
			}
			declared = n
			// "a 1 1\n" is the shortest conceivable node record.
			nl.Reserve(capCount(n, ls.size, 6), 0, 0)
			continue
		}
		if v, ok := headerValue(ls.line, "NumTerminals"); ok {
			if _, err := headerCount(ls.num, "NumTerminals", v); err != nil {
				return err
			}
			continue
		}
		fields := ls.split(ls.line, false)
		if len(fields) < 3 {
			return malf(ls.num, "malformed node %q", ls.line)
		}
		w, err := parseFloat(fields[1])
		if err != nil {
			return malf(ls.num, "bad width %q", fields[1])
		}
		h, err := parseFloat(fields[2])
		if err != nil {
			return malf(ls.num, "bad height %q", fields[2])
		}
		if !finiteSize(w) || !finiteSize(h) {
			return malf(ls.num, "node %q has invalid size %gx%g", fields[0], w, h)
		}
		fixed := len(fields) > 3 && bytes.EqualFold(fields[3], terminalTag)
		typ := "STD"
		if fixed {
			typ = "TERM"
		}
		if _, err := nl.AddCell(string(fields[0]), typ, w, h, fixed); err != nil {
			return malf(ls.num, "%s", err)
		}
	}
	if err := ls.err(); err != nil {
		return err
	}
	if declared >= 0 && nl.NumCells()-start != declared {
		return fmt.Errorf("NumNodes promises %d nodes, stream holds %d (truncated file?): %w",
			declared, nl.NumCells()-start, ErrMalformedInput)
	}
	return nil
}

// pinDir reads a pin line's direction field as strings.ToUpper would see
// it: "I" is an input, "O" an output, anything else inout.
func pinDir(f []byte) netlist.Dir {
	r, size := rune(f[0]), 1
	if r >= utf8.RuneSelf {
		r, size = utf8.DecodeRune(f)
	}
	if size == len(f) {
		switch unicode.ToUpper(r) {
		case 'I':
			return netlist.DirInput
		case 'O':
			return netlist.DirOutput
		}
	}
	return netlist.DirInout
}

// ReadNets parses a .nets stream into nl, which must already hold the cells.
func ReadNets(r io.Reader, nl *netlist.Netlist) error {
	ls := newLineScanner(r)
	startNets, startPins := nl.NumNets(), nl.NumPins()
	declaredNets, declaredPins := -1, -1
	netCount := 0
	var pending []netlist.Endpoint // reused: AddNet keeps no reference to it
	var pendingName string
	var pendingLeft int
	pinNames := make(map[string]string) // one string per distinct pin name

	flush := func() error {
		if pendingName == "" {
			return nil
		}
		if pendingLeft != 0 {
			return fmt.Errorf("net %q: expected %d more pins (truncated file?): %w",
				pendingName, pendingLeft, ErrMalformedInput)
		}
		if _, err := nl.AddNet(pendingName, 1, pending...); err != nil {
			return fmt.Errorf("%w: %w", err, ErrMalformedInput)
		}
		pendingName = ""
		pending = pending[:0]
		return nil
	}

	for ls.next() {
		if v, ok := headerValue(ls.line, "NumNets"); ok {
			n, err := headerCount(ls.num, "NumNets", v)
			if err != nil {
				return err
			}
			declaredNets = n
			// A net costs at least a NetDegree line plus one pin line.
			nl.Reserve(0, capCount(n, ls.size, 16), 0)
			continue
		}
		if v, ok := headerValue(ls.line, "NumPins"); ok {
			n, err := headerCount(ls.num, "NumPins", v)
			if err != nil {
				return err
			}
			declaredPins = n
			nl.Reserve(0, 0, capCount(n, ls.size, 4))
			continue
		}
		if v, ok := headerValue(ls.line, "NetDegree"); ok {
			if err := flush(); err != nil {
				return fmt.Errorf("line %d: %w", ls.num, err)
			}
			fields := ls.split(v, false)
			if len(fields) == 0 {
				return malf(ls.num, "NetDegree missing count")
			}
			deg, err := strconv.Atoi(string(fields[0]))
			if err != nil || deg < 1 {
				return malf(ls.num, "bad NetDegree %q", fields[0])
			}
			pendingLeft = deg
			if len(fields) > 1 {
				pendingName = string(fields[1])
			} else {
				pendingName = "net" + strconv.Itoa(netCount)
			}
			netCount++
			continue
		}
		// Pin line: "cellname I : dx dy" (offsets optional).
		if pendingName == "" {
			return malf(ls.num, "pin line outside a net: %q", ls.line)
		}
		fields := ls.split(ls.line, true)
		if len(fields) < 2 {
			return malf(ls.num, "malformed pin %q", ls.line)
		}
		cid := nl.CellByName(string(fields[0]))
		if cid == netlist.NoCell {
			return malf(ls.num, "unknown cell %q", fields[0])
		}
		var dx, dy float64
		if len(fields) >= 4 {
			var err error
			if dx, err = parseFloat(fields[2]); err != nil {
				return malf(ls.num, "bad pin offset %q", fields[2])
			}
			if dy, err = parseFloat(fields[3]); err != nil {
				return malf(ls.num, "bad pin offset %q", fields[3])
			}
			if !finite(dx) || !finite(dy) {
				return malf(ls.num, "non-finite pin offset (%g,%g)", dx, dy)
			}
		}
		// Optional 5th token: pin name (academic extension). Without it,
		// pins get positional names and structural extraction loses the
		// pin-role signal.
		var pinName string
		if len(fields) >= 5 {
			var ok bool
			if pinName, ok = pinNames[string(fields[4])]; !ok {
				pinName = string(fields[4])
				pinNames[pinName] = pinName
			}
		} else {
			pinName = "p" + strconv.Itoa(len(pending))
		}
		cell := nl.Cell(cid)
		// Convert center-relative Bookshelf offsets to lower-left-relative.
		pending = append(pending, netlist.Endpoint{
			Cell: cid,
			Pin:  pinName,
			Dir:  pinDir(fields[1]),
			DX:   cell.W/2 + dx,
			DY:   cell.H/2 + dy,
		})
		pendingLeft--
	}
	if err := flush(); err != nil {
		return err
	}
	if err := ls.err(); err != nil {
		return err
	}
	if declaredNets >= 0 && nl.NumNets()-startNets != declaredNets {
		return fmt.Errorf("NumNets promises %d nets, stream holds %d (truncated file?): %w",
			declaredNets, nl.NumNets()-startNets, ErrMalformedInput)
	}
	if declaredPins >= 0 && nl.NumPins()-startPins != declaredPins {
		return fmt.Errorf("NumPins promises %d pins, stream holds %d (truncated file?): %w",
			declaredPins, nl.NumPins()-startPins, ErrMalformedInput)
	}
	return nil
}

// ReadPl parses a .pl stream into pl. Cells marked /FIXED become fixed in nl.
func ReadPl(r io.Reader, nl *netlist.Netlist, pl *netlist.Placement) error {
	ls := newLineScanner(r)
	for ls.next() {
		fields := ls.split(ls.line, false)
		if len(fields) < 3 {
			return malf(ls.num, "malformed placement %q", ls.line)
		}
		cid := nl.CellByName(string(fields[0]))
		if cid == netlist.NoCell {
			return malf(ls.num, "unknown cell %q", fields[0])
		}
		x, err := parseFloat(fields[1])
		if err != nil {
			return malf(ls.num, "bad x %q", fields[1])
		}
		y, err := parseFloat(fields[2])
		if err != nil {
			return malf(ls.num, "bad y %q", fields[2])
		}
		if !finite(x) || !finite(y) {
			return malf(ls.num, "non-finite position (%g,%g) for %q", x, y, fields[0])
		}
		pl.X[cid] = x
		pl.Y[cid] = y
		if bytes.Contains(ls.line, fixedTag) {
			nl.Cell(cid).Fixed = true
		}
	}
	return ls.err()
}

// ReadScl parses a .scl stream into a Core. Rows must be uniform in height;
// the core region is the bounding box of all rows.
func ReadScl(r io.Reader) (*geom.Core, error) {
	ls := newLineScanner(r)
	var rows []geom.Row
	var cur geom.Row
	var numSites float64
	inRow := false
	for ls.next() {
		switch {
		case hasPrefix(ls.line, "CoreRow"):
			inRow = true
			cur = geom.Row{SiteW: 1}
			numSites = 0
		case hasPrefix(ls.line, "End"):
			if inRow {
				cur.W = numSites * cur.SiteW
				rows = append(rows, cur)
				inRow = false
			}
		case inRow:
			// Row attribute lines may carry several "Key : value" pairs.
			if v, ok := headerValue(ls.line, "Coordinate"); ok {
				if _, err := fmt.Sscan(string(v), &cur.Y); err != nil {
					return nil, malf(ls.num, "bad Coordinate %q", v)
				}
			} else if v, ok := headerValue(ls.line, "Height"); ok {
				if _, err := fmt.Sscan(string(v), &cur.H); err != nil {
					return nil, malf(ls.num, "bad Height %q", v)
				}
			} else if v, ok := headerValue(ls.line, "Sitewidth"); ok {
				if _, err := fmt.Sscan(string(v), &cur.SiteW); err != nil {
					return nil, malf(ls.num, "bad Sitewidth %q", v)
				}
			} else if v, ok := headerValue(ls.line, "SubrowOrigin"); ok {
				// "SubrowOrigin : x NumSites : n"
				fields := ls.split(v, true)
				if len(fields) >= 1 {
					if _, err := fmt.Sscan(string(fields[0]), &cur.X); err != nil {
						return nil, malf(ls.num, "bad SubrowOrigin %q", v)
					}
				}
				for i := 0; i+1 < len(fields); i++ {
					if bytes.EqualFold(fields[i], numSitesKey) {
						if _, err := fmt.Sscan(string(fields[i+1]), &numSites); err != nil {
							return nil, malf(ls.num, "bad NumSites %q", fields[i+1])
						}
					}
				}
			}
		}
	}
	if err := ls.err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("scl: no rows found: %w", ErrMalformedInput)
	}
	for i := range rows {
		if !finiteSize(rows[i].H) || !finiteSize(rows[i].W) || !finite(rows[i].X) || !finite(rows[i].Y) {
			return nil, fmt.Errorf("scl: row %d has non-finite geometry: %w", i, ErrMalformedInput)
		}
	}
	var bb geom.BBox
	for _, row := range rows {
		bb.ExpandRect(row.Rect())
	}
	return &geom.Core{Region: bb.Rect(), Rows: rows}, nil
}
