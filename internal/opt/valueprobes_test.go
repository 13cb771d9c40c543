package opt

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

// rosenbrockN is a deterministic multi-dimensional test objective whose
// gradient fill is skipped when grad is nil.
func rosenbrockN(x, grad []float64) float64 {
	f := 0.0
	for i := 0; i+1 < len(x); i++ {
		a := 1 - x[i]
		b := x[i+1] - x[i]*x[i]
		f += a*a + 100*b*b
	}
	if grad != nil {
		for i := range grad {
			grad[i] = 0
		}
		for i := 0; i+1 < len(x); i++ {
			a := 1 - x[i]
			b := x[i+1] - x[i]*x[i]
			grad[i] += -2*a - 400*b*x[i]
			grad[i+1] += 200 * b
		}
	}
	return f
}

// fused is an Objective that computes the gradient at every Value call, as
// a one-closure objective would, and hands out the stored one at Gradient.
type fused struct {
	f    func(x, grad []float64) float64
	grad []float64
}

func (o *fused) Value(x []float64) float64 {
	if len(o.grad) != len(x) {
		o.grad = make([]float64, len(x))
	}
	return o.f(x, o.grad)
}

func (o *fused) Gradient(grad []float64) { copy(grad, o.grad) }

// lazy is an Objective that keeps the x of the last Value by reference and
// evaluates the gradient there only when asked, as the Objective contract
// allows: Minimize does not modify that x in between.
type lazy struct {
	f func(x, grad []float64) float64
	x []float64
}

func (o *lazy) Value(x []float64) float64 {
	o.x = x
	return o.f(x, nil)
}

func (o *lazy) Gradient(grad []float64) { o.f(o.x, grad) }

// TestValueOnlyProbesBitIdentical checks that value-only probes leave the
// solve unchanged: the accepted-iterate sequence, final point and objective
// are bit-identical to those of a fused objective, one that computes the
// gradient at every probe. The value-only side reads x by reference at
// Gradient, so it also pins that Minimize leaves the last valued x as it
// was until it asks for the gradient there.
func TestValueOnlyProbesBitIdentical(t *testing.T) {
	run := func(obj Objective) ([]float64, Result, []float64) {
		x := []float64{-1.2, 1, 0.5, -0.7}
		var iterF []float64
		res := Minimize(obj, x, Options{
			MaxIter: 60,
			GradTol: 1e-9,
			Callback: func(iter int, f, gnorm float64) {
				iterF = append(iterF, f)
			},
		})
		return x, res, iterF
	}
	xF, rF, fF := run(&fused{f: rosenbrockN})
	xV, rV, fV := run(&lazy{f: rosenbrockN})
	if rF.F != rV.F || rF.Iters != rV.Iters || rF.Converged != rV.Converged {
		t.Fatalf("results diverge: fused %+v vs value-only %+v", rF, rV)
	}
	for i := range xF {
		if xF[i] != xV[i] {
			t.Fatalf("x[%d] diverges: fused %v vs value-only %v", i, xF[i], xV[i])
		}
	}
	if len(fF) != len(fV) {
		t.Fatalf("iterate counts diverge: %d vs %d", len(fF), len(fV))
	}
	for i := range fF {
		if fF[i] != fV[i] {
			t.Fatalf("objective at iterate %d diverges: %v vs %v", i, fF[i], fV[i])
		}
	}
}

// callLog is an Objective that logs its calls, 'v' for Value and 'g' for
// Gradient, in one string with the solver's observations: 'a' for an
// accepted iterate (Callback), 'n' for a NaN rollback and 'r' for a
// line-search reset (OnEvent).
type callLog struct {
	closure
	log []byte
}

func (c *callLog) Value(x []float64) float64 {
	c.log = append(c.log, 'v')
	return c.closure.Value(x)
}

func (c *callLog) Gradient(grad []float64) {
	c.log = append(c.log, 'g')
	c.closure.Gradient(grad)
}

// callOrder is the language of a solve's log: the start, then per
// iteration either line-search probes and the accepted iterate's gradient,
// a NaN rollback, or rejected probes and a reset, which re-evaluates the
// best iterate when it beats the current one; a solve may stop mid-search.
var callOrder = regexp.MustCompile(`^vg(v+ga|vgn|v+(vg)?r)*v*$`)

// TestValueOnlyProbesSkipsGradients pins the order in which Minimize calls
// its Objective, through a NaN-gradient rollback and a line-search reset:
// the start and each rollback call Value then Gradient, each probe calls
// Value alone, and each accepted iterate calls Gradient once, right after
// its winning probe's Value. FuncEvals counts the Value calls plus the
// accepted iterates' Gradient calls.
func TestValueOnlyProbesSkipsGradients(t *testing.T) {
	faultinject.Enable(7,
		faultinject.Spec{Site: faultinject.SiteOptNaNGrad, After: 3, Count: 1},
		faultinject.Spec{Site: faultinject.SiteOptLineSearchStall, After: 6, Count: 1})
	defer faultinject.Disable()

	obj := &callLog{}
	obj.f = rosenbrockN
	x := []float64{-1.2, 1, 0.5, -0.7}
	res := Minimize(obj, x, Options{
		MaxIter: 60,
		GradTol: 1e-9,
		Callback: func(int, float64, float64) {
			obj.log = append(obj.log, 'a')
		},
		OnEvent: func(ev Event) {
			switch ev.Kind {
			case EventNaNRollback:
				obj.log = append(obj.log, 'n')
			case EventLineSearchReset:
				obj.log = append(obj.log, 'r')
			}
		},
	})
	log := string(obj.log)
	if !strings.Contains(log, "n") || !strings.Contains(log, "r") {
		t.Fatalf("no rollback or no reset happened; test proves nothing: %s", log)
	}
	if !callOrder.MatchString(log) {
		t.Fatalf("calls out of order (v Value, g Gradient, a accepted, n rollback, r reset):\n%s", log)
	}
	accepted := strings.Count(log, "ga")
	if accepted != res.Iters {
		t.Fatalf("%d accepted gradients logged, Result.Iters %d", accepted, res.Iters)
	}
	if want := strings.Count(log, "v") + accepted; res.FuncEvals != want {
		t.Fatalf("FuncEvals %d, want %d Value calls plus accepted gradients", res.FuncEvals, want)
	}
}
