package opt

import (
	"math"
	"testing"
)

// rosenbrockN is a deterministic multi-dimensional test objective whose
// gradient fill is skipped when grad is nil, as Func documents.
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

// TestValueOnlyProbesBitIdentical checks that value-only probes leave the
// solve unchanged: the accepted-iterate sequence, final point and objective
// are bit-identical to those of a fused objective, one that computes the
// gradient at every probe (into a scratch slice when handed nil).
func TestValueOnlyProbesBitIdentical(t *testing.T) {
	run := func(f Func) ([]float64, Result, []float64) {
		x := []float64{-1.2, 1, 0.5, -0.7}
		var iterF []float64
		res := Minimize(f, x, Options{
			MaxIter: 60,
			GradTol: 1e-9,
			Callback: func(iter int, f, gnorm float64) {
				iterF = append(iterF, f)
			},
		})
		return x, res, iterF
	}
	scratch := make([]float64, 4)
	fused := func(x, grad []float64) float64 {
		if grad == nil {
			grad = scratch
		}
		return rosenbrockN(x, grad)
	}
	xF, rF, fF := run(fused)
	xV, rV, fV := run(rosenbrockN)
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

// TestValueOnlyProbesSkipsGradients verifies the line search skips gradient
// fills on trial points and re-evaluates accepted iterates.
func TestValueOnlyProbesSkipsGradients(t *testing.T) {
	var nilProbes, gradEvals int
	f := func(x, grad []float64) float64 {
		if grad == nil {
			nilProbes++
		} else {
			gradEvals++
		}
		return rosenbrockN(x, grad)
	}
	x := []float64{-1.2, 1}
	res := Minimize(f, x, Options{MaxIter: 30, GradTol: 1e-9})
	if nilProbes == 0 {
		t.Fatal("no value-only probes happened")
	}
	if gradEvals < res.Iters {
		t.Fatalf("only %d gradient evaluations for %d accepted iterates", gradEvals, res.Iters)
	}
	if got := nilProbes + gradEvals; got != res.FuncEvals {
		t.Fatalf("FuncEvals %d != observed evaluations %d", res.FuncEvals, got)
	}
	if math.IsNaN(res.F) {
		t.Fatal("solve produced NaN")
	}
}
