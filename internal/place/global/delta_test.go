package global

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestDeltaMatchesFullRecomputation is the property behind the engine's
// Objective contract: over random sequences of moves, γ and λ changes,
// value-only probes and repeated gradients, every Value, and every Gradient
// after it, returns the bits a fresh engine computes at the same point.
// The gradient pass reuses the exponentials and density tables the value
// pass stored, so this is what makes that reuse exact. It runs at workers
// 1, 2 and 4, plain and with soft-alignment groups, and under -race in CI
// to also exercise the pool passes that fill the stored state.
func TestDeltaMatchesFullRecomputation(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, soft := range []bool{false, true} {
			nl, pl, core := randProblem(21, 140, 190)
			o := Options{Workers: workers}
			if soft {
				nl, pl, core, o.Groups = gatherProblem(21)
				o.AlignMode = AlignSoft
			}
			e := testEngine(nl, pl, core, o)
			e.lambda = 0.6
			if soft {
				e.alpha = 0.3
			}
			v := make([]float64, e.nVars)
			e.initVars(v)

			// fresh evaluates v on a new engine with e's γ, λ and α.
			gRef := make([]float64, e.nVars)
			fresh := func() float64 {
				f := testEngine(nl, pl, core, o)
				f.gamma, f.lambda, f.alpha = e.gamma, e.lambda, e.alpha
				val := f.Value(v)
				f.Gradient(gRef)
				return val
			}
			name := fmt.Sprintf("workers=%d soft=%v", workers, soft)
			rng := rand.New(rand.NewSource(int64(workers)))
			g := make([]float64, e.nVars)
			for step := 0; step < 40; step++ {
				switch op := rng.Intn(10); {
				case op < 5: // perturb a small random subset of variables
					for k := 0; k < 1+rng.Intn(8); k++ {
						v[rng.Intn(e.nVars)] += (rng.Float64() - 0.5) * 3
					}
				case op < 7: // perturb a single variable (line-search-like move)
					v[rng.Intn(e.nVars)] += (rng.Float64() - 0.5) * 0.25
				case op < 8: // γ anneal
					e.gamma *= 0.9
				case op < 9: // next λ stage
					e.lambda *= 2
				default: // no move: value the same point again
				}

				f, fRef := e.Value(v), fresh()
				if f != fRef {
					t.Fatalf("%s step %d: objective %v != fresh engine %v", name, step, f, fRef)
				}
				if rng.Intn(3) == 0 { // a value-only probe
					continue
				}
				for range 1 + rng.Intn(2) { // a gradient, sometimes taken twice
					e.Gradient(g)
					for i := range g {
						if g[i] != gRef[i] {
							t.Fatalf("%s step %d: grad[%d] %v != fresh engine %v",
								name, step, i, g[i], gRef[i])
						}
					}
				}
			}
		}
	}
}

// TestDirtyNetRatio pins the report-facing ratio arithmetic, including the
// zero-evaluation case a skipped global stage produces.
func TestDirtyNetRatio(t *testing.T) {
	if r := (Result{}).DirtyNetRatio(); r != 0 {
		t.Fatalf("empty result ratio = %v, want 0", r)
	}
	res := Result{NetRecomputes: 3, NetReuses: 1}
	if r := res.DirtyNetRatio(); r != 0.75 {
		t.Fatalf("ratio = %v, want 0.75", r)
	}
}
