package opt

import (
	"math"
	"testing"

	"repro/internal/faultinject"
)

// TestOnEventNaNRollback asserts that injected NaN gradients surface as
// nan-rollback events through OnEvent — the fix for rollbacks being invisible
// because Callback only sees accepted iterates.
func TestOnEventNaNRollback(t *testing.T) {
	faultinject.Enable(7, faultinject.Spec{Site: faultinject.SiteOptNaNGrad, After: 2, Count: 2})
	defer faultinject.Disable()

	c := []float64{1, 3, 0.5}
	tgt := []float64{2, -1, 4}
	x := make([]float64, 3)
	var events []Event
	res := Minimize(quadratic(c, tgt), x, Options{
		MaxIter: 500, GradTol: 1e-8,
		OnEvent: func(ev Event) { events = append(events, ev) },
	})
	if faultinject.Fired(faultinject.SiteOptNaNGrad) == 0 {
		t.Fatal("fault never injected; test proves nothing")
	}
	rollbacks := 0
	for _, ev := range events {
		if ev.Kind == EventNaNRollback {
			rollbacks++
			if ev.Step <= 0 {
				t.Errorf("nan-rollback event carries non-positive damped step: %+v", ev)
			}
		}
	}
	if rollbacks == 0 {
		t.Fatalf("no nan-rollback events seen (events=%v, res=%+v)", events, res)
	}
	if rollbacks != res.Recoveries {
		t.Errorf("rollback events = %d, Result.Recoveries = %d; they must agree",
			rollbacks, res.Recoveries)
	}
}

// TestOnEventLineSearchReset asserts a stalled line search reports
// linesearch-reset before recovering.
func TestOnEventLineSearchReset(t *testing.T) {
	faultinject.Enable(7, faultinject.Spec{Site: faultinject.SiteOptLineSearchStall, After: 1, Count: 2})
	defer faultinject.Disable()

	c := []float64{1, 25}
	tgt := []float64{50, -30}
	x := make([]float64, 2)
	var kinds []string
	res := Minimize(quadratic(c, tgt), x, Options{
		MaxIter: 500, GradTol: 1e-8,
		OnEvent: func(ev Event) { kinds = append(kinds, ev.Kind) },
	})
	if faultinject.Fired(faultinject.SiteOptLineSearchStall) == 0 {
		t.Fatal("fault never injected; test proves nothing")
	}
	resets := 0
	for _, k := range kinds {
		if k == EventLineSearchReset {
			resets++
		}
	}
	if resets == 0 {
		t.Fatalf("no linesearch-reset events seen (kinds=%v, res=%+v)", kinds, res)
	}
}

// TestOnEventDiverged asserts the terminal give-up is reported as a diverged
// event, so a trace distinguishes "recovered N times" from "gave up".
func TestOnEventDiverged(t *testing.T) {
	allNaN := func(x, g []float64) float64 {
		for i := range g {
			g[i] = math.NaN()
		}
		return math.NaN()
	}
	x := []float64{3, 4}
	var kinds []string
	res := Minimize(fn(allNaN), x, Options{
		MaxIter: 50,
		OnEvent: func(ev Event) { kinds = append(kinds, ev.Kind) },
	})
	if !res.Diverged {
		t.Fatalf("always-NaN objective must report Diverged: %+v", res)
	}
	saw := false
	for _, k := range kinds {
		if k == EventDiverged {
			saw = true
		}
	}
	if !saw {
		t.Fatalf("Diverged result without a diverged event (kinds=%v)", kinds)
	}
}

// TestObserversArePassive pins the bit-identical guarantee at the solver
// level: attaching Callback and OnEvent must not change a single accepted
// iterate, even through an injected-fault recovery sequence.
func TestObserversArePassive(t *testing.T) {
	run := func(observe bool) ([]float64, Result, int) {
		// Re-arm identically per run so both see the same fault sequence.
		faultinject.Enable(7, faultinject.Spec{Site: faultinject.SiteOptNaNGrad, After: 2, Count: 2})
		defer faultinject.Disable()
		c := []float64{1, 25, 4, 0.5}
		tgt := []float64{50, -30, 7, 2}
		x := make([]float64, 4)
		o := Options{MaxIter: 500, GradTol: 1e-8}
		observed := 0
		if observe {
			o.Callback = func(iter int, f float64, gnorm float64) {
				observed++
			}
			o.OnEvent = func(Event) { observed++ }
		}
		res := Minimize(quadratic(c, tgt), x, o)
		return x, res, observed
	}
	xPlain, resPlain, _ := run(false)
	xObs, resObs, observed := run(true)
	if observed == 0 {
		t.Fatal("observers never fired; test proves nothing")
	}
	if resPlain.Iters != resObs.Iters || resPlain.Recoveries != resObs.Recoveries ||
		resPlain.F != resObs.F {
		t.Fatalf("observation changed the solve: plain=%+v observed=%+v", resPlain, resObs)
	}
	for i := range xPlain {
		if xPlain[i] != xObs[i] {
			t.Fatalf("x[%d]: plain %g != observed %g — observers must be passive",
				i, xPlain[i], xObs[i])
		}
	}
}
