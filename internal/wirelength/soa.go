// Package wirelength provides the wirelength models used by analytical
// placement: two smooth, differentiable approximations of the
// half-perimeter wirelength (HPWL) — the classic log-sum-exp (LSE) model and
// the weighted-average (WA) model of Hsu, Balabanov and Chang, which this
// paper family introduced and prefers.
//
// Both models are separable per axis and are evaluated one net and one axis
// at a time. Smaller smoothing parameter γ means a tighter approximation but
// a harder optimization landscape; placers anneal γ downward.
//
// The API is a set of flat SoA kernels — WAValueAxis, WAGradAxis,
// LSEValueAxis, LSEGradAxis, with the per-net AxisState summary — that
// write the per-pin exponential terms into caller-owned CSR buffers, so the
// global-placement engine can store them and later produce gradients
// without re-exponentiating. The package tests check every kernel bit for
// bit against a reference implementation of each model.
package wirelength

import "math"

//docslint:kerneldoc

// The SoA kernels below are the flat, allocation-free form of the LSE and WA
// models used by the global-placement engine's incremental evaluator
// (internal/place/global). They write into caller-owned CSR slices so one
// evaluation's exponential terms can be kept and reused by a later
// gradient-only pass:
//
//   - AxisState is the per-net, per-axis summary a value pass produces.
//   - WAValueAxis / LSEValueAxis fill the caller's exp scratch (ep, en) and
//     return the AxisState plus the axis wirelength.
//   - WAGradAxis / LSEGradAxis turn a stored (xs, ep, en, AxisState) back
//     into per-pin gradients without a single math.Exp call.
//
// Every kernel is a pure function of its arguments with a fixed operation
// order, so results are bit-identical to the tests' reference model
// (Model.EvalAxis in oracle_test.go) and independent of worker count (NaN
// payloads aside: a NaN input yields a NaN wherever the model's does). Two
// facts about the extreme pins save exponentials without changing a bit. A
// max pin's positive term and a min pin's negative term have exponent
// argument ±0, and math.Exp(±0) is exactly 1; an infinite extreme makes that
// argument NaN instead, so the kernels use 1+(max−max) and 1+(min−min),
// which are 1 or NaN accordingly. And a min pin's positive term and a max
// pin's negative term share the argument (min−max)/γ, so one math.Exp serves
// both. Two-pin nets with finite pins (the majority in real netlists)
// therefore need a single exponential; the wider loop computes the shared
// one once per net.

// AxisState is the reusable per-net summary of one axis evaluation: the pin
// extrema, the positive/negative exponential sums, and (WA only) the
// coordinate-weighted sums. Together with the per-pin exp scratch written by
// WAValueAxis/LSEValueAxis it is sufficient to reconstruct the axis gradient
// exactly, which is what lets the engine's delta evaluator skip the value
// recomputation for nets whose pins did not move.
type AxisState struct {
	Max, Min   float64 // pin extrema along the axis
	SumP, SumN float64 // Σ e^{(x_i−max)/γ}, Σ e^{(min−x_i)/γ}
	WSumP      float64 // Σ x_i·e^{(x_i−max)/γ} (WA value path only)
	WSumN      float64 // Σ x_i·e^{(min−x_i)/γ} (WA value path only)
}

// WAValueAxis evaluates the weighted-average model along one axis for the
// pin coordinates xs, storing e^{(x_i−max)/γ} into ep[i] and e^{(min−x_i)/γ}
// into en[i] (both must have len(xs) slots). It returns the axis state and
// the axis wirelength, bit-identical to the reference WA model at the same
// γ.
//
//placelint:hotpath
func WAValueAxis(xs, ep, en []float64, gamma float64) (AxisState, float64) {
	n := len(xs)
	if n == 0 {
		return AxisState{}, 0
	}
	maxV, minV := xs[0], xs[0]
	for _, v := range xs[1:] {
		if v > maxV {
			maxV = v
		}
		if v < minV {
			minV = v
		}
	}
	var sp, sn, xp, xn float64
	if n == 2 && math.Abs(xs[0]-xs[1]) <= math.MaxFloat64 {
		// Both pins finite: the exponent arguments are ±0 and (min−max)/γ,
		// so one Exp covers all four slots (equal pins included, where it is
		// exp(0) = 1).
		t := math.Exp((minV - maxV) / gamma)
		var e0p, e0n, e1p, e1n float64
		if xs[0] > xs[1] {
			e0p, e0n, e1p, e1n = 1, t, t, 1
		} else {
			e0p, e0n, e1p, e1n = t, 1, 1, t
		}
		ep[0], en[0] = e0p, e0n
		ep[1], en[1] = e1p, e1n
		sp = e0p + e1p
		sn = e0n + e1n
		xp = xs[0]*e0p + xs[1]*e1p
		xn = xs[0]*e0n + xs[1]*e1n
	} else {
		pMax, nMin, t := extremeExps(maxV, minV, gamma)
		for i, v := range xs {
			//placelint:ignore floateq exact identity with the scan's extrema: an equal pin's exponent arguments are those extremeExps evaluated
			atMax, atMin := v == maxV, v == minV
			e1, e2 := pMax, nMin
			switch {
			case !atMax && !atMin:
				e1 = math.Exp((v - maxV) / gamma)
				e2 = math.Exp((minV - v) / gamma)
			case !atMax:
				e1 = t
			case !atMin:
				e2 = t
			}
			ep[i] = e1
			en[i] = e2
			sp += e1
			sn += e2
			xp += v * e1
			xn += v * e2
		}
	}
	st := AxisState{Max: maxV, Min: minV, SumP: sp, SumN: sn, WSumP: xp, WSumN: xn}
	return st, xp/sp - xn/sn
}

// extremeExps returns the exponentials the extreme pins share: pMax, a max
// pin's positive term e^{(max−max)/γ}; nMin, a min pin's negative term
// e^{(min−min)/γ}; and t, the shared e^{(min−max)/γ} of a min pin's positive
// and a max pin's negative term. pMax and nMin are 1 for a finite extreme
// and NaN for an infinite one, as math.Exp of the model's ±0 or NaN argument
// would give; t is computed only when max ≠ min, since otherwise every pin
// is at both extremes and never reads it.
//
//placelint:hotpath
func extremeExps(maxV, minV, gamma float64) (pMax, nMin, t float64) {
	pMax, nMin = 1+(maxV-maxV), 1+(minV-minV)
	//placelint:ignore floateq max == min means every pin sits at both extremes, so no pin reads t
	if maxV != minV {
		t = math.Exp((minV - maxV) / gamma)
	}
	return pMax, nMin, t
}

// WAGradAxis writes the weighted-average axis gradient for a net previously
// evaluated by WAValueAxis into grad (len(xs) slots, overwritten — not
// accumulated). xs, ep, en and st must be exactly the slices/state of that
// value evaluation; no exponentials are recomputed.
//
//placelint:hotpath
func WAGradAxis(xs, ep, en []float64, st AxisState, gamma float64, grad []float64) {
	waMax := st.WSumP / st.SumP
	waMin := st.WSumN / st.SumN
	for i, v := range xs {
		dMax := ep[i] / st.SumP * (1 + (v-waMax)/gamma)
		dMin := en[i] / st.SumN * (1 - (v-waMin)/gamma)
		grad[i] = dMax - dMin
	}
}

// LSEValueAxis evaluates the log-sum-exp model along one axis, storing the
// per-pin exponentials into ep/en exactly like WAValueAxis. It returns the
// axis state (WSumP/WSumN stay zero — LSE does not need them) and the axis
// wirelength, bit-identical to the reference LSE model at the same γ.
//
//placelint:hotpath
func LSEValueAxis(xs, ep, en []float64, gamma float64) (AxisState, float64) {
	n := len(xs)
	if n == 0 {
		return AxisState{}, 0
	}
	maxV, minV := xs[0], xs[0]
	for _, v := range xs[1:] {
		if v > maxV {
			maxV = v
		}
		if v < minV {
			minV = v
		}
	}
	var sp, sn float64
	if n == 2 && math.Abs(xs[0]-xs[1]) <= math.MaxFloat64 {
		// Same single-exponential shortcut as WAValueAxis.
		t := math.Exp((minV - maxV) / gamma)
		var e0p, e0n, e1p, e1n float64
		if xs[0] > xs[1] {
			e0p, e0n, e1p, e1n = 1, t, t, 1
		} else {
			e0p, e0n, e1p, e1n = t, 1, 1, t
		}
		ep[0], en[0] = e0p, e0n
		ep[1], en[1] = e1p, e1n
		sp = e0p + e1p
		sn = e0n + e1n
	} else {
		pMax, nMin, t := extremeExps(maxV, minV, gamma)
		for i, v := range xs {
			//placelint:ignore floateq exact identity with the scan's extrema: an equal pin's exponent arguments are those extremeExps evaluated
			atMax, atMin := v == maxV, v == minV
			e1, e2 := pMax, nMin
			switch {
			case !atMax && !atMin:
				e1 = math.Exp((v - maxV) / gamma)
				e2 = math.Exp((minV - v) / gamma)
			case !atMax:
				e1 = t
			case !atMin:
				e2 = t
			}
			ep[i] = e1
			en[i] = e2
			sp += e1
			sn += e2
		}
	}
	wl := (maxV + gamma*math.Log(sp)) + (-minV + gamma*math.Log(sn))
	return AxisState{Max: maxV, Min: minV, SumP: sp, SumN: sn}, wl
}

// LSEGradAxis writes the log-sum-exp axis gradient for a net previously
// evaluated by LSEValueAxis into grad (overwritten, not accumulated), using
// only the stored exponentials and sums.
//
//placelint:hotpath
func LSEGradAxis(ep, en []float64, st AxisState, grad []float64) {
	for i := range grad {
		grad[i] = ep[i]/st.SumP - en[i]/st.SumN
	}
}
