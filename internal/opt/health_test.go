package opt

import (
	"context"
	"math"
	"testing"

	"repro/internal/faultinject"
)

// cliffQuadratic is (x-1)² inside |x| ≤ 10 and -Inf outside: a model whose
// smooth region is surrounded by a numerically bottomless cliff. The old
// line search accepted the -Inf trial (it satisfies the Armijo comparison);
// the guarded one must backtrack into the finite region and converge.
func cliffQuadratic(x, g []float64) float64 {
	v := x[0]
	if math.Abs(v) > 10 {
		if g != nil {
			g[0] = 0
		}
		return math.Inf(-1)
	}
	if g != nil {
		g[0] = 2 * (v - 1)
	}
	return (v - 1) * (v - 1)
}

func TestLineSearchRejectsInf(t *testing.T) {
	x := []float64{0}
	// The gradient at x is -2, so the first trial step is 50.
	res := Minimize(fn(cliffQuadratic), x, Options{MaxIter: 200, GradTol: 1e-8, FirstMove: 100})
	if math.IsInf(res.F, 0) || math.IsNaN(res.F) {
		t.Fatalf("accepted a non-finite objective: %+v", res)
	}
	if math.Abs(x[0]-1) > 1e-3 {
		t.Fatalf("x = %g, want 1 (res=%+v)", x[0], res)
	}
}

func TestNaNObjectiveAtStartDiverges(t *testing.T) {
	allNaN := func(x, g []float64) float64 {
		for i := range g {
			g[i] = math.NaN()
		}
		return math.NaN()
	}
	x := []float64{3, 4}
	res := Minimize(fn(allNaN), x, Options{MaxIter: 50})
	if !res.Diverged {
		t.Fatalf("always-NaN objective must report Diverged: %+v", res)
	}
}

func TestNaNGradientRecovery(t *testing.T) {
	faultinject.Enable(7, faultinject.Spec{Site: faultinject.SiteOptNaNGrad, After: 2, Count: 2})
	defer faultinject.Disable()

	c := []float64{1, 3, 0.5}
	tgt := []float64{2, -1, 4}
	x := make([]float64, 3)
	res := Minimize(quadratic(c, tgt), x, Options{MaxIter: 500, GradTol: 1e-8})
	if faultinject.Fired(faultinject.SiteOptNaNGrad) == 0 {
		t.Fatal("fault never injected; test proves nothing")
	}
	if res.Recoveries == 0 {
		t.Fatalf("no recovery recorded: %+v", res)
	}
	if res.Diverged {
		t.Fatalf("recoverable fault reported as divergence: %+v", res)
	}
	for i := range x {
		if math.Abs(x[i]-tgt[i]) > 1e-3 {
			t.Fatalf("x[%d] = %g, want %g (res=%+v)", i, x[i], tgt[i], res)
		}
	}
}

func TestStalledLineSearchRecovery(t *testing.T) {
	faultinject.Enable(7, faultinject.Spec{Site: faultinject.SiteOptLineSearchStall, After: 1, Count: 2})
	defer faultinject.Disable()

	c := []float64{1, 25}
	tgt := []float64{50, -30}
	x := make([]float64, 2)
	res := Minimize(quadratic(c, tgt), x, Options{MaxIter: 500, GradTol: 1e-8})
	if faultinject.Fired(faultinject.SiteOptLineSearchStall) == 0 {
		t.Fatal("fault never injected; test proves nothing")
	}
	if res.Recoveries == 0 {
		t.Fatalf("no recovery recorded: %+v", res)
	}
	for i := range x {
		if math.Abs(x[i]-tgt[i]) > 1e-3 {
			t.Fatalf("x[%d] = %g, want %g (res=%+v)", i, x[i], tgt[i], res)
		}
	}
}

func TestCancelledContextStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := []float64{1, 1}
	tgt := []float64{100, 100}
	x := make([]float64, 2)
	res := Minimize(quadratic(c, tgt), x, Options{MaxIter: 500, Ctx: ctx})
	if !res.Stopped {
		t.Fatalf("cancelled context did not stop the solver: %+v", res)
	}
	if res.Iters != 0 {
		t.Fatalf("took %d iterations under a cancelled context", res.Iters)
	}
}

func TestDeadlineInjectionStops(t *testing.T) {
	// The deadline fault site forces pipeline.Expired mid-run, so the stop
	// lands at a deterministic iteration regardless of machine speed.
	faultinject.Enable(7, faultinject.Spec{Site: faultinject.SiteDeadline, After: 3})
	defer faultinject.Disable()

	c := []float64{1, 25, 4}
	tgt := []float64{50, -30, 7}
	x := make([]float64, 3)
	res := Minimize(quadratic(c, tgt), x, Options{MaxIter: 500, GradTol: 1e-12})
	if !res.Stopped {
		t.Fatalf("injected deadline did not stop the solver: %+v", res)
	}
	if !res.Converged && res.Iters >= 500 {
		t.Fatalf("ran to the iteration cap despite the deadline: %+v", res)
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("best iterate is non-finite: %v", x)
		}
	}
}
