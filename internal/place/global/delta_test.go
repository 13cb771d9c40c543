package global

import (
	"math/rand"
	"testing"
)

// TestDeltaMatchesFullRecomputation is the property test behind incremental
// evaluation: over randomized move/probe sequences — partial-variable
// perturbations (each a moved point, so every cache drops), repeated probes
// at an unchanged point, value-only probes, gradient evaluations and
// occasional γ changes — the incremental engine must return the
// bit-identical objective and gradient a fresh engine computes from scratch
// at the same point, at every worker count. Runs under -race via `make race`
// to also exercise the pool passes that fill the cached state.
func TestDeltaMatchesFullRecomputation(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		nl, pl, core := randProblem(21, 140, 190)
		e := testEngine(nl, pl, core, Options{Workers: workers})
		e.lambda = 0.6
		v := make([]float64, e.nVars)
		e.initVars(v)
		gamma := 4.0

		// reference evaluates v from scratch on a fresh engine each time.
		reference := func(grad []float64) float64 {
			f := testEngine(nl, pl, core, Options{Workers: workers})
			f.setGamma(gamma)
			f.lambda = 0.6
			f.noReuse = true
			return f.eval(v, grad)
		}

		rng := rand.New(rand.NewSource(int64(workers)))
		gRef := make([]float64, e.nVars)
		gInc := make([]float64, e.nVars)
		for step := 0; step < 40; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // perturb a small random subset of variables
				for k := 0; k < 1+rng.Intn(8); k++ {
					v[rng.Intn(e.nVars)] += (rng.Float64() - 0.5) * 3
				}
			case op < 7: // perturb a single variable (line-search-like move)
				v[rng.Intn(e.nVars)] += (rng.Float64() - 0.5) * 0.25
			case op < 8: // γ anneal: dirties every net
				gamma *= 0.9
				e.setGamma(gamma)
			default: // no move: probe the same point again
			}

			if rng.Intn(3) == 0 { // value-only probe
				fInc := e.eval(v, nil)
				fRef := reference(nil)
				if fInc != fRef {
					t.Fatalf("workers=%d step %d: value-only delta %v != full %v",
						workers, step, fInc, fRef)
				}
				continue
			}
			fInc := e.eval(v, gInc)
			fRef := reference(gRef)
			if fInc != fRef {
				t.Fatalf("workers=%d step %d: delta objective %v != full %v",
					workers, step, fInc, fRef)
			}
			for i := range gInc {
				if gInc[i] != gRef[i] {
					t.Fatalf("workers=%d step %d: delta grad[%d] %v != full %v",
						workers, step, i, gInc[i], gRef[i])
				}
			}
		}
		if e.netReuses == 0 {
			t.Fatalf("workers=%d: sequence exercised no incremental reuse", workers)
		}
		if e.deltaEvals == 0 {
			t.Fatalf("workers=%d: no evaluation was classified as a delta eval", workers)
		}
		if e.fullEvals == 0 {
			t.Fatalf("workers=%d: no evaluation was classified as a full recompute", workers)
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
