// Package opt implements the unconstrained nonlinear optimizer driving
// analytical global placement: Polak–Ribière+ conjugate gradients with a
// Barzilai–Borwein initial step and Armijo backtracking line search. The
// objective is an Objective: a value at a point, then the gradient of the
// last value, so the placer folds wirelength, density and alignment terms
// together and computes their gradients only where the solver uses one.
//
// The solver is resilient: it polls an optional context cooperatively (both
// per iteration and per line-search trial) and runs a numerical-health guard
// that detects NaN/Inf objectives or gradients and pathological line-search
// stalls, recovering by rolling back to the best iterate, damping the step
// and restarting with steepest descent. When no fault occurs the iterate
// sequence is bit-identical to the unguarded solver.
package opt

import (
	"context"
	"math"

	"repro/internal/faultinject"
	"repro/internal/pipeline"
)

// Objective is the function Minimize descends. Value returns the objective
// at x. Gradient fills grad (same length as x) with the gradient at the x
// of the last Value call; Minimize does not modify that x in between. It
// calls Value then Gradient at the start and after each rollback, Value
// alone at each line-search probe (the Armijo test reads just the
// objective), and Gradient alone at each accepted iterate, whose winning
// probe was the last Value. An objective may therefore keep what its last
// Value computed and derive the gradient from it.
type Objective interface {
	Value(x []float64) float64
	Gradient(grad []float64)
}

// maxRecoveries bounds consecutive numerical-health recoveries (NaN/Inf
// rollback, pathological line-search reset) before Minimize gives up and
// reports Diverged.
const maxRecoveries = 3

// Options controls Minimize.
type Options struct {
	MaxIter int     // hard iteration cap; 0 means 100
	GradTol float64 // stop when ||g||/sqrt(n) < GradTol; 0 means 1e-4
	// FirstMove scales the first trial step so the variable with the largest
	// gradient component at the start moves by FirstMove. The step is 1 when
	// FirstMove is 0 or the scaled step is not finite and positive (a zero
	// gradient, an infinite component).
	FirstMove float64
	// Callback, when non-nil, observes every accepted iterate.
	Callback func(iter int, f, gradNorm float64)
	// Ctx, when non-nil, is polled cooperatively at every iteration and
	// every line-search trial; on expiry Minimize stops at the best iterate
	// found so far and sets Result.Stopped.
	Ctx context.Context
	// OnEvent, when non-nil, observes solver health events — rollbacks,
	// line-search resets, CG restarts, divergence. Callback sees only
	// accepted iterates, so without this hook a diverged-then-recovered
	// solve shows up as nothing but a gap in iteration numbers.
	OnEvent func(Event)
}

// Event kinds reported through Options.OnEvent.
const (
	// EventNaNRollback: a non-finite objective or gradient forced a
	// rollback to the best iterate with step damping.
	EventNaNRollback = "nan-rollback"
	// EventLineSearchReset: the Armijo search hit non-finite trial values
	// (or an injected stall) and was reset from the best iterate.
	EventLineSearchReset = "linesearch-reset"
	// EventCGRestart: the conjugate direction stopped being a descent
	// direction and the search restarted with steepest descent.
	EventCGRestart = "cg-restart"
	// EventDiverged: the health guard exhausted its recoveries and gave up.
	EventDiverged = "diverged"
)

// Event describes one solver health event.
type Event struct {
	Kind     string
	Iter     int     // accepted iterations completed when the event fired
	F        float64 // objective at the event (may be non-finite)
	GradNorm float64 // RMS gradient norm at the event (may be non-finite)
	Step     float64 // step scale after any damping
}

// Result reports the optimizer outcome.
type Result struct {
	F          float64 // final objective value
	Iters      int     // accepted iterations
	GradNorm   float64 // final RMS gradient norm
	Converged  bool    // gradient tolerance reached
	FuncEvals  int     // Value calls plus the accepted iterates' Gradient calls
	Stopped    bool    // context expired before convergence or MaxIter
	Diverged   bool    // health guard exhausted its recoveries
	Recoveries int     // rollback/damping events performed by the guard
}

// Minimize runs PR+ nonlinear CG from x, overwriting x with the best iterate
// found.
func Minimize(f Objective, x []float64, opt Options) Result {
	n := len(x)
	if n == 0 {
		return Result{Converged: true}
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 100
	}
	if opt.GradTol <= 0 {
		opt.GradTol = 1e-4
	}

	g := make([]float64, n)     // current gradient
	gPrev := make([]float64, n) // previous gradient
	d := make([]float64, n)     // search direction
	xTrial := make([]float64, n)
	gTrial := make([]float64, n)

	// Best finite iterate seen, for rollback and for the returned x.
	bestX := make([]float64, n)
	bestF := math.Inf(1)

	res := Result{}
	// valueGrad evaluates x and its gradient into g: the start and every
	// rollback need both.
	valueGrad := func(x, g []float64) float64 {
		fx := f.Value(x)
		f.Gradient(g)
		res.FuncEvals++
		return fx
	}
	fx := valueGrad(x, g)
	step := firstStep(g, opt.FirstMove)
	if faultinject.Hit(faultinject.SiteOptNaNGrad) {
		g[0] = math.NaN()
	}
	for i := range d {
		d[i] = -g[i]
	}
	gg := dot(g, g)
	if isFinite(fx) && isFinite(gg) {
		bestF = fx
		copy(bestX, x)
	}

	consecutive := 0 // health recoveries since the last accepted step
	sqrtN := math.Sqrt(float64(n))
	for it := 0; it < opt.MaxIter; it++ {
		if pipeline.Expired(opt.Ctx) {
			res.Stopped = true
			break
		}

		// Numerical health: a non-finite objective or gradient would poison
		// the search direction. Roll back to the best iterate (re-evaluating
		// its gradient), damp the step and restart with steepest descent.
		if !isFinite(fx) || !isFinite(gg) {
			if !isFinite(bestF) || consecutive >= maxRecoveries {
				res.Diverged = true
				if opt.OnEvent != nil {
					opt.OnEvent(Event{Kind: EventDiverged, Iter: res.Iters,
						F: fx, GradNorm: math.Sqrt(gg) / sqrtN, Step: step})
				}
				break
			}
			consecutive++
			res.Recoveries++
			copy(x, bestX)
			fx = valueGrad(x, g)
			if faultinject.Hit(faultinject.SiteOptNaNGrad) {
				g[0] = math.NaN()
			}
			gg = dot(g, g)
			for i := range d {
				d[i] = -g[i]
			}
			step = math.Max(step*0.1, 1e-12)
			if opt.OnEvent != nil {
				opt.OnEvent(Event{Kind: EventNaNRollback, Iter: res.Iters,
					F: fx, GradNorm: math.Sqrt(gg) / sqrtN, Step: step})
			}
			continue
		}

		gnorm := math.Sqrt(gg) / sqrtN
		res.GradNorm = gnorm
		if gnorm < opt.GradTol {
			res.Converged = true
			break
		}

		// Armijo backtracking along d from the adaptive initial step.
		dg := dot(d, g)
		if dg >= 0 {
			// Not a descent direction (CG drift): restart with steepest descent.
			for i := range d {
				d[i] = -g[i]
			}
			dg = -gg
			if opt.OnEvent != nil {
				opt.OnEvent(Event{Kind: EventCGRestart, Iter: res.Iters,
					F: fx, GradNorm: gnorm, Step: step})
			}
		}
		const c1 = 1e-4
		alpha := step
		var fNew float64
		accepted := false
		pathological := false // saw a NaN/Inf trial objective
		stalled := faultinject.Hit(faultinject.SiteOptLineSearchStall)
		for ls := 0; ls < 30; ls++ {
			if pipeline.Expired(opt.Ctx) {
				res.Stopped = true
				break
			}
			for i := range xTrial {
				xTrial[i] = x[i] + alpha*d[i]
			}
			fNew = f.Value(xTrial)
			res.FuncEvals++
			// Reject non-finite trial objectives outright: an Inf (or a NaN
			// compared against a NaN fx) must never be accepted, even when it
			// formally satisfies the Armijo comparison.
			if !math.IsNaN(fNew) && !math.IsInf(fNew, 0) &&
				fNew <= fx+c1*alpha*dg && !stalled {
				accepted = true
				break
			}
			if math.IsNaN(fNew) || math.IsInf(fNew, 0) {
				pathological = true
			}
			alpha *= 0.5
		}
		if res.Stopped {
			break
		}
		if !accepted {
			if pathological || stalled {
				// The model is returning non-finite values at this scale (or
				// a stall was injected): recover instead of silently stopping
				// at a possibly poor iterate.
				if consecutive >= maxRecoveries {
					res.Diverged = pathological
					if opt.OnEvent != nil && pathological {
						opt.OnEvent(Event{Kind: EventDiverged, Iter: res.Iters,
							F: fx, GradNorm: math.Sqrt(gg) / sqrtN, Step: step})
					}
					break
				}
				consecutive++
				res.Recoveries++
				if bestF < fx {
					copy(x, bestX)
					fx = valueGrad(x, g)
					gg = dot(g, g)
				}
				for i := range d {
					d[i] = -g[i]
				}
				step = math.Max(step*0.1, 1e-12)
				if opt.OnEvent != nil {
					opt.OnEvent(Event{Kind: EventLineSearchReset, Iter: res.Iters,
						F: fx, GradNorm: math.Sqrt(gg) / sqrtN, Step: step})
				}
				continue
			}
			// Line search failed on a finite landscape: the gradient is either
			// tiny or the model is at convergence scale. Stop with the current
			// iterate, as the unguarded solver did.
			break
		}
		consecutive = 0

		// The accepted trial was the last point valued; take its gradient.
		f.Gradient(gTrial)
		res.FuncEvals++
		copy(gPrev, g)
		copy(g, gTrial)
		copy(x, xTrial)
		fx = fNew
		res.Iters++
		if isFinite(fx) && fx <= bestF {
			bestF = fx
			copy(bestX, x)
		}
		if faultinject.Hit(faultinject.SiteOptNaNGrad) {
			g[0] = math.NaN()
		}

		ggNew := dot(g, g)
		// Polak–Ribière+ with automatic restart.
		gy := ggNew - dot(g, gPrev)
		beta := gy / gg
		if beta < 0 || it%(n+1) == n {
			beta = 0
		}
		for i := range d {
			d[i] = -g[i] + beta*d[i]
		}
		gg = ggNew

		// Barzilai–Borwein-style initial step for the next iteration:
		// grow on easy acceptance, inherit the backtracked scale otherwise.
		// Exact equality is intended: alpha is initialized to step and only
		// changes when backtracking multiplies it, so == detects "the first
		// trial step was accepted", not numerical coincidence.
		//placelint:ignore floateq alpha is a copy of step unless backtracking rescaled it; == detects acceptance exactly
		if alpha == step {
			step = alpha * 2
		} else {
			step = alpha * 1.25
		}

		if opt.Callback != nil {
			opt.Callback(res.Iters, fx, math.Sqrt(gg)/sqrtN)
		}
	}
	// On an abnormal stop, hand back the best iterate rather than whatever
	// the failure left in x.
	if (res.Stopped || res.Diverged) && isFinite(bestF) && (!isFinite(fx) || bestF < fx) {
		copy(x, bestX)
		fx = bestF
	}
	res.F = fx
	res.GradNorm = math.Sqrt(gg) / sqrtN
	return res
}

// firstStep returns the step that moves the largest gradient component of
// g by move, ignoring NaN components, or 1 when that step is not finite and
// positive.
func firstStep(g []float64, move float64) float64 {
	maxG := 0.0
	for _, gv := range g {
		if a := math.Abs(gv); a > maxG {
			maxG = a
		}
	}
	if s := move / maxG; s > 0 && !math.IsInf(s, 0) {
		return s
	}
	return 1
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
