// This file is the reference oracle of the package's tests: the smooth
// models written as a self-contained Model interface that owns its scratch,
// in the textbook form of each formula. The SoA kernels in soa.go are
// checked bit for bit against it (soa_test.go), and BenchmarkWAGradSoA uses
// it as the "model" baseline.

package wirelength

import "math"

// Model is a per-net smooth wirelength model. Implementations are reused
// across nets and are not safe for concurrent use (they carry scratch
// buffers); parallel evaluators give each worker its own instance via Clone.
type Model interface {
	// Name identifies the model in reports ("lse", "wa", "hpwl").
	Name() string
	// EvalAxis returns the model's length along one axis for the pin
	// coordinates in xs and, when grad is non-nil, *adds* ∂len/∂xs[i] into
	// grad[i]. len(grad) must equal len(xs).
	EvalAxis(xs []float64, grad []float64) float64
	// SetGamma updates the smoothing parameter (ignored by exact models).
	SetGamma(gamma float64)
	// Clone returns an independent model with the same parameters and fresh
	// scratch state. Because EvalAxis is a pure function of (xs, γ), a clone
	// produces bit-identical results to its original, which is what lets the
	// sharded wirelength evaluator hand one clone to each worker without
	// perturbing placements.
	Clone() Model
}

// Eval evaluates a model over both axes of one net.
func Eval(m Model, xs, ys, gx, gy []float64) float64 {
	return m.EvalAxis(xs, gx) + m.EvalAxis(ys, gy)
}

// HPWL is the exact half-perimeter model. Its gradient is subdifferential
// (±1 on the extreme pins); it is provided for evaluation and testing, not
// for optimization.
type HPWL struct{}

// Name implements Model.
func (HPWL) Name() string { return "hpwl" }

// SetGamma implements Model (no-op).
func (HPWL) SetGamma(float64) {}

// Clone implements Model. HPWL is stateless, so the receiver is its own
// clone.
func (HPWL) Clone() Model { return HPWL{} }

// EvalAxis implements Model.
func (HPWL) EvalAxis(xs []float64, grad []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	iMin, iMax := 0, 0
	for i, v := range xs {
		if v < xs[iMin] {
			iMin = i
		}
		if v > xs[iMax] {
			iMax = i
		}
	}
	if grad != nil && iMin != iMax {
		grad[iMax]++
		grad[iMin]--
	}
	return xs[iMax] - xs[iMin]
}

// LSE is the log-sum-exp smooth wirelength model:
//
//	WL(x) = γ·ln Σ e^{x_i/γ} + γ·ln Σ e^{−x_i/γ}
//
// It over-estimates HPWL by at most 2γ·ln(n).
type LSE struct {
	Gamma float64
	buf   []float64
}

// NewLSE returns an LSE model with smoothing γ.
func NewLSE(gamma float64) *LSE { return &LSE{Gamma: gamma} }

// Name implements Model.
func (m *LSE) Name() string { return "lse" }

// SetGamma implements Model.
func (m *LSE) SetGamma(g float64) { m.Gamma = g }

// Clone implements Model.
func (m *LSE) Clone() Model { return NewLSE(m.Gamma) }

// EvalAxis implements Model.
func (m *LSE) EvalAxis(xs []float64, grad []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	g := m.Gamma
	maxV, minV := xs[0], xs[0]
	for _, v := range xs[1:] {
		if v > maxV {
			maxV = v
		}
		if v < minV {
			minV = v
		}
	}
	if cap(m.buf) < 2*n {
		m.buf = make([]float64, 2*n)
	}
	ep := m.buf[:n]      // e^{(x_i − max)/γ}
	en := m.buf[n : 2*n] // e^{(min − x_i)/γ}
	var sp, sn float64
	for i, v := range xs {
		ep[i] = math.Exp((v - maxV) / g)
		en[i] = math.Exp((minV - v) / g)
		sp += ep[i]
		sn += en[i]
	}
	wl := (maxV + g*math.Log(sp)) + (-minV + g*math.Log(sn))
	if grad != nil {
		for i := range xs {
			grad[i] += ep[i]/sp - en[i]/sn
		}
	}
	return wl
}

// WA is the weighted-average wirelength model:
//
//	WL(x) = Σ x_i·e^{x_i/γ} / Σ e^{x_i/γ}  −  Σ x_i·e^{−x_i/γ} / Σ e^{−x_i/γ}
//
// It under-estimates HPWL, with error bounded by O(γ), and has strictly
// better worst-case error than LSE at equal γ (the model's headline claim).
type WA struct {
	Gamma float64
	buf   []float64
}

// NewWA returns a WA model with smoothing γ.
func NewWA(gamma float64) *WA { return &WA{Gamma: gamma} }

// Name implements Model.
func (m *WA) Name() string { return "wa" }

// SetGamma implements Model.
func (m *WA) SetGamma(g float64) { m.Gamma = g }

// Clone implements Model.
func (m *WA) Clone() Model { return NewWA(m.Gamma) }

// EvalAxis implements Model.
func (m *WA) EvalAxis(xs []float64, grad []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	g := m.Gamma
	maxV, minV := xs[0], xs[0]
	for _, v := range xs[1:] {
		if v > maxV {
			maxV = v
		}
		if v < minV {
			minV = v
		}
	}
	if cap(m.buf) < 2*n {
		m.buf = make([]float64, 2*n)
	}
	ep := m.buf[:n]      // e^{(x_i − max)/γ}, numerically safe
	en := m.buf[n : 2*n] // e^{(min − x_i)/γ}
	var sp, sn, xp, xn float64
	for i, v := range xs {
		ep[i] = math.Exp((v - maxV) / g)
		en[i] = math.Exp((minV - v) / g)
		sp += ep[i]
		sn += en[i]
		xp += v * ep[i]
		xn += v * en[i]
	}
	waMax := xp / sp
	waMin := xn / sn
	if grad != nil {
		for i, v := range xs {
			dMax := ep[i] / sp * (1 + (v-waMax)/g)
			dMin := en[i] / sn * (1 - (v-waMin)/g)
			grad[i] += dMax - dMin
		}
	}
	return waMax - waMin
}
