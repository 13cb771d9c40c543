package global

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestObjectiveGradientMatchesFiniteDifference checks the engine's assembled
// gradient against central differences of its own Value on every variable,
// in hard and soft alignment mode, with the WA and LSE wirelength models,
// density off (λ = 0) and on, and the soft-alignment term on in soft mode.
// The kernels have finite-difference tests of their own; this one covers
// what only the engine does: hard mode's variable substitution (one x per
// column, one base y per group plus bit offsets), the per-cell gather and
// the λ and α weights. The point is initVars' start moved by up to ±3 in
// every variable.
func TestObjectiveGradientMatchesFiniteDifference(t *testing.T) {
	// tol comes from a measurement at h = 1e-4: over twelve problem and
	// perturbation seeds the worst relative error of the eight
	// configurations was 7.5e-6 (4.7e-6 at the seed below), while a dropped
	// λ weight on the density gradient, a dropped α weight on the alignment
	// gradient or a hard group's y gradient summed over its first bit only
	// read between 0.65 and 89.
	const h, tol = 1e-4, 1e-4
	for _, soft := range []bool{false, true} {
		for _, model := range []string{"wa", "lse"} {
			for _, lambda := range []float64{0, 0.6} {
				name := fmt.Sprintf("soft=%v model=%s lambda=%v", soft, model, lambda)
				nl, pl, core, groups := gatherProblem(5)
				o := Options{Workers: 1, WLModel: model, Groups: groups}
				if soft {
					o.AlignMode = AlignSoft
				}
				e := testEngine(nl, pl, core, o)
				e.lambda = lambda
				if soft {
					e.alpha = 0.3
				}
				v := make([]float64, e.nVars)
				e.initVars(v)
				rng := rand.New(rand.NewSource(3))
				for i := range v {
					v[i] += (rng.Float64() - 0.5) * 6
				}
				g := make([]float64, e.nVars)
				e.Value(v)
				e.Gradient(g)
				gMax := 0.0
				for _, gi := range g {
					gMax = max(gMax, math.Abs(gi))
				}
				worst, at := 0.0, -1
				for i := range v {
					x := v[i]
					v[i] = x + h
					fp := e.Value(v)
					v[i] = x - h
					fm := e.Value(v)
					v[i] = x
					fd := (fp - fm) / (2 * h)
					if rel := math.Abs(fd-g[i]) / (math.Abs(fd) + 1e-3*gMax); rel > worst {
						worst, at = rel, i
					}
				}
				t.Logf("%s: %d variables, worst relative error %.3g at variable %d", name, e.nVars, worst, at)
				if worst > tol {
					t.Errorf("%s: gradient of variable %d is off its central difference by %.3g relative (tolerance %g)",
						name, at, worst, tol)
				}
			}
		}
	}
}
