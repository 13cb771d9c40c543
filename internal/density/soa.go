package density

import "math"

//docslint:kerneldoc

// This file is the SoA (structure-of-arrays) form of the bell-kernel
// potential: per-cell one-dimensional bell tables filled once per
// evaluation, a branch-free density splat that reads them, and a gradient
// pass over the same tables. The key identity is separability — the 2-D
// bell kernel is px(d_x)·py(d_y), so the per-cell normalization over the raw
// (unclipped) footprint factors into (Σ px)·(Σ py); two 1-D sums replace the
// old O(W·H) double loop, and every later bin visit is a table lookup
// instead of a piecewise-quadratic evaluation.
//
// Buffer ownership follows the compute-then-reduce discipline of package
// par: the table-fill and gradient passes shard by cell and write only
// slots owned by that cell (fixed CSR table ranges, gradient components);
// the splat gives each worker a contiguous band of bin rows and visits the
// cells in ascending order inside it, so every bin receives the serial
// cell-order accumulation bit for bit. Gradient differentiates the last
// Value from its stored tables, so a line-search probe pays for the value
// alone and an accepted iterate for the gradient alone.

// axisTables is the per-axis half of the SoA scratch: the bell constants of
// every movable cell and its current table fill.
type axisTables struct {
	// Immutable per-cell bell constants (effSize already applied):
	// p(d) = 1 − a·d² for |d| ≤ r1, b·(|d|−r2)² for r1 < |d| < r2, else 0.
	a, b, r1, r2 []float64
	// off is the fixed CSR offset of each cell's table slots; cap their
	// count. The capacity covers any raw footprint span of the cell, so a
	// fill never writes outside its own range.
	off []int32
	// Current fill: bin origin of slot 0 (raw, unclamped), the clamped
	// in-grid bin range, the cell center the fill ran at, and the kernel
	// values per bin. dp holds the derivative tables, which only the
	// gradient pass needs — fillDeriv computes them lazily from ctr so
	// value-only probes never pay for them.
	i0, iLo, iHi []int
	ctr          []float64
	p, dp        []float64
}

func (t *axisTables) init(n int) {
	t.a = make([]float64, n)
	t.b = make([]float64, n)
	t.r1 = make([]float64, n)
	t.r2 = make([]float64, n)
	t.off = make([]int32, n+1)
	t.i0 = make([]int, n)
	t.iLo = make([]int, n)
	t.iHi = make([]int, n)
	t.ctr = make([]float64, n)
}

// setConsts fills the bell constants for one cell from its effective kernel
// size w and the bin size wb, and returns the table capacity its raw
// footprint can ever need.
func (t *axisTables) setConsts(mi int, w, wb float64) int {
	t.a[mi] = 4 / ((w + 2*wb) * (w + 4*wb))
	t.b[mi] = 2 / (wb * (w + 4*wb))
	t.r1[mi] = w/2 + wb
	t.r2[mi] = w/2 + 2*wb
	return int(2*t.r2[mi]/wb) + 3
}

// fill evaluates the cell's 1-D bell kernel at every bin center of its raw
// footprint around center x0, writing values into the cell's table slots,
// and returns Σ p over the raw range (the separable normalization factor).
// Derivatives are not filled — value-only probes never read them; fillDeriv
// computes them on demand from the recorded center. lo is the grid's low
// edge, wb the bin size, nBins the clamped axis extent. Degenerate
// footprints (non-finite coordinates, or spans beyond the table capacity)
// yield a zero sum and an empty clamped range — the cell contributes
// nothing, exactly like the pre-SoA code whose loop over a garbage range
// was empty.
//
//placelint:hotpath
func (t *axisTables) fill(mi int, x0, lo, wb float64, nBins int) float64 {
	r2 := t.r2[mi]
	f0 := math.Floor((x0 - r2 - lo) / wb)
	f1 := math.Ceil((x0 + r2 - lo) / wb)
	span := f1 - f0
	capSlots := float64(t.off[mi+1] - t.off[mi])
	if !(span >= 0 && span <= capSlots) {
		t.i0[mi], t.iLo[mi], t.iHi[mi] = 0, 0, 0
		t.ctr[mi] = x0
		return 0
	}
	i0, i1 := int(f0), int(f1)
	t.i0[mi] = i0
	t.iLo[mi] = clampInt(i0, 0, nBins)
	t.iHi[mi] = clampInt(i1, 0, nBins)
	t.ctr[mi] = x0
	a, b, r1 := t.a[mi], t.b[mi], t.r1[mi]
	tp := t.p[t.off[mi] : int(t.off[mi])+i1-i0]
	sum := 0.0
	for k, bi := 0, i0; bi < i1; k, bi = k+1, bi+1 {
		d := x0 - (lo + (float64(bi)+0.5)*wb)
		ad := d
		if ad < 0 {
			ad = -ad
		}
		var pv float64
		if ad < r2 {
			if ad <= r1 {
				pv = 1 - a*ad*ad
			} else {
				u := ad - r2
				pv = b * u * u
			}
		}
		tp[k] = pv
		sum += pv
	}
	return sum
}

// fillDeriv writes the cell's 1-D bell derivative table for the footprint
// the last fill recorded, reproducing bit for bit the values the fused
// kernel used to compute alongside fill. The gradient pass calls it once
// per cell, so probes that never ask for a gradient skip this work
// entirely.
//
//placelint:hotpath
func (t *axisTables) fillDeriv(mi int, lo, wb float64) {
	x0 := t.ctr[mi]
	i0 := t.i0[mi]
	a, b, r1, r2 := t.a[mi], t.b[mi], t.r1[mi], t.r2[mi]
	// Only the clamped in-grid range is ever read back; slots keep fill's
	// raw-origin indexing.
	tdp := t.dp[t.off[mi]:]
	for bi := t.iLo[mi]; bi < t.iHi[mi]; bi++ {
		d := x0 - (lo + (float64(bi)+0.5)*wb)
		ad, sign := d, 1.0
		if ad < 0 {
			ad, sign = -ad, -1
		}
		var dv float64
		if ad < r2 {
			if ad <= r1 {
				dv = -2 * a * ad * sign
			} else {
				u := ad - r2
				dv = 2 * b * u * sign
			}
		}
		tdp[bi-i0] = dv
	}
}

// Value computes the density objective N = Σ_b (D_b − T_b)² at the cell
// centers (cx, cy), refreshing the per-cell bell tables, the density map and
// the per-bin residuals. It returns NaN when the attached context expires
// mid-pass. A Value call is the prerequisite of Gradient at the same
// coordinates.
func (p *Potential) Value(cx, cy []float64) float64 {
	p.ensureScratch()
	g := p.grid
	p.valReady = false

	// Pass 1: per-cell table fill and separable normalization. Each cell
	// owns its fixed table range and norm slot, so cells shard freely.
	nm := len(p.movable)
	if err := p.pool.Run(p.ctx, nm, p.pool.Grain(nm, 64), func(lo, hi int) {
		for mi := lo; mi < hi; mi++ {
			ci := int(p.movable[mi])
			sx := p.tabX.fill(mi, cx[ci], g.Region.Lo.X, g.BinW, g.NX)
			sy := p.tabY.fill(mi, cy[ci], g.Region.Lo.Y, g.BinH, g.NY)
			s := sx * sy
			if s > 0 {
				area := p.nl.Cells[ci].Area()
				if p.areaScale != nil {
					area *= p.areaScale[ci]
				}
				p.norm[mi] = area / s
			} else {
				p.norm[mi] = 0
			}
		}
	}); err != nil {
		return math.NaN()
	}

	// Pass 2: density splat from the tables, one contiguous band of bin rows
	// per worker. Inside its band a worker visits the cells in ascending
	// order, so every bin receives the serial loop's additions in the serial
	// loop's order and the bins are bit-identical at every worker count; the
	// serial path is the one-band case.
	for i := range p.dens {
		p.dens[i] = 0
	}
	if err := p.pool.ForShards(p.ctx, g.NY, p.pool.Workers(), func(_, j0, j1 int) {
		for mi := range p.norm {
			p.splatCell(mi, j0, j1)
		}
	}); err != nil {
		return math.NaN()
	}

	// Pass 3: objective and residuals, serial in bin order.
	n := 0.0
	for i := range p.dens {
		d := p.dens[i] - p.target[i]
		p.diff[i] = d
		n += d * d
	}
	p.valReady = true
	return n
}

// splatCell adds one cell's contribution to the bins of grid rows
// [j0, j1) that its kernel touches; the splat's unit of work. A band of
// rows only ever receives additions from the cells that overlap it, in the
// order the caller visits the cells.
//
//placelint:hotpath
func (p *Potential) splatCell(mi, j0, j1 int) {
	jLo, jHi := p.tabY.iLo[mi], p.tabY.iHi[mi]
	if jLo < j0 {
		jLo = j0
	}
	if jHi > j1 {
		jHi = j1
	}
	if jLo >= jHi {
		return
	}
	nrm := p.norm[mi]
	if nrm == 0 {
		return
	}
	iLo, iHi := p.tabX.iLo[mi], p.tabX.iHi[mi]
	if iLo >= iHi {
		return
	}
	nx := p.grid.NX
	xBase := int(p.tabX.off[mi]) - p.tabX.i0[mi]
	yBase := int(p.tabY.off[mi]) - p.tabY.i0[mi]
	dens, tabY := p.dens, p.tabY.p
	tab := p.tabX.p[xBase+iLo : xBase+iHi]
	for j := jLo; j < jHi; j++ {
		c := nrm * tabY[yBase+j]
		if c == 0 {
			continue
		}
		row := dens[j*nx+iLo : j*nx+iHi]
		for k := range row {
			row[k] += c * tab[k]
		}
	}
}

// Gradient accumulates λ-free density derivatives into gx and gy (indexed by
// cell, added — not overwritten), using the tables and residuals of the last
// Value call, which must have been at the same coordinates. It reports false
// when the attached context expired mid-pass, in which case the
// accumulation is partial and the caller must poison its objective.
func (p *Potential) Gradient(gx, gy []float64) bool {
	if !p.valReady {
		panic("density: Gradient called before Value")
	}
	g := p.grid
	nx := g.NX
	nm := len(p.movable)
	err := p.pool.Run(p.ctx, nm, p.pool.Grain(nm, 64), func(lo, hi int) {
		tabX, tabY := &p.tabX, &p.tabY
		norm, diffAll, movable := p.norm, p.diff, p.movable
		for mi := lo; mi < hi; mi++ {
			nrm := norm[mi]
			if nrm == 0 {
				continue
			}
			iLo, iHi := tabX.iLo[mi], tabX.iHi[mi]
			if iLo >= iHi {
				continue
			}
			tabX.fillDeriv(mi, g.Region.Lo.X, g.BinW)
			tabY.fillDeriv(mi, g.Region.Lo.Y, g.BinH)
			xBase := int(tabX.off[mi]) - tabX.i0[mi]
			yBase := int(tabY.off[mi]) - tabY.i0[mi]
			px := tabX.p[xBase+iLo : xBase+iHi]
			dpx := tabX.dp[xBase+iLo : xBase+iHi]
			var dx, dy float64
			for j := tabY.iLo[mi]; j < tabY.iHi[mi]; j++ {
				py := tabY.p[yBase+j]
				dpy := tabY.dp[yBase+j]
				if py == 0 && dpy == 0 {
					continue
				}
				diff := diffAll[j*nx+iLo : j*nx+iHi]
				for k := range diff {
					d := diff[k]
					dx += 2 * d * nrm * dpx[k] * py
					dy += 2 * d * nrm * px[k] * dpy
				}
			}
			ci := int(movable[mi])
			if gx != nil {
				gx[ci] += dx
			}
			if gy != nil {
				gy[ci] += dy
			}
		}
	})
	return err == nil
}
