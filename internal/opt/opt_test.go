package opt

import (
	"math"
	"math/rand"
	"testing"
)

// closure adapts a one-closure objective, which fills grad when it is
// non-nil, to Objective: Value remembers x, and Gradient evaluates the
// closure there.
type closure struct {
	f func(x, grad []float64) float64
	x []float64
}

func fn(f func(x, grad []float64) float64) *closure { return &closure{f: f} }

func (c *closure) Value(x []float64) float64 {
	c.x = append(c.x[:0], x...)
	return c.f(x, nil)
}

func (c *closure) Gradient(grad []float64) { c.f(c.x, grad) }

// quadratic builds f(x) = sum c_i (x_i - t_i)^2 with analytic gradient.
func quadratic(c, t []float64) *closure {
	return fn(func(x, grad []float64) float64 {
		f := 0.0
		for i := range x {
			d := x[i] - t[i]
			f += c[i] * d * d
			if grad != nil {
				grad[i] = 2 * c[i] * d
			}
		}
		return f
	})
}

func TestMinimizeQuadratic(t *testing.T) {
	n := 20
	c := make([]float64, n)
	tgt := make([]float64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range c {
		c[i] = 0.5 + rng.Float64()*5
		tgt[i] = rng.NormFloat64() * 10
	}
	x := make([]float64, n)
	res := Minimize(quadratic(c, tgt), x, Options{MaxIter: 500, GradTol: 1e-8})
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	for i := range x {
		if math.Abs(x[i]-tgt[i]) > 1e-4 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], tgt[i])
		}
	}
}

func TestMinimizeRosenbrock(t *testing.T) {
	// The classic banana function: hard for steepest descent, fine for CG.
	rosen := func(x, g []float64) float64 {
		a, b := x[0], x[1]
		f := (1-a)*(1-a) + 100*(b-a*a)*(b-a*a)
		if g != nil {
			g[0] = -2*(1-a) - 400*a*(b-a*a)
			g[1] = 200 * (b - a*a)
		}
		return f
	}
	x := []float64{-1.2, 1}
	// The largest gradient component at x is 215.6, so the first trial step
	// is 0.001.
	res := Minimize(fn(rosen), x, Options{MaxIter: 5000, GradTol: 1e-7, FirstMove: 0.2156})
	if math.Abs(x[0]-1) > 1e-2 || math.Abs(x[1]-1) > 1e-2 {
		t.Fatalf("Rosenbrock minimum missed: x=%v res=%+v", x, res)
	}
}

func TestMinimizeRespectsMaxIter(t *testing.T) {
	n := 10
	c := make([]float64, n)
	tgt := make([]float64, n)
	for i := range c {
		c[i] = 1
		tgt[i] = 100
	}
	x := make([]float64, n)
	res := Minimize(quadratic(c, tgt), x, Options{MaxIter: 3, GradTol: 1e-16})
	if res.Iters > 3 {
		t.Errorf("Iters = %d, exceeded MaxIter", res.Iters)
	}
}

func TestMinimizeEmptyInput(t *testing.T) {
	res := Minimize(fn(func(x, g []float64) float64 { return 0 }), nil, Options{})
	if !res.Converged {
		t.Error("empty input should converge trivially")
	}
}

func TestMinimizeAlreadyOptimal(t *testing.T) {
	c := []float64{1, 2}
	tgt := []float64{0, 0}
	x := make([]float64, 2)
	res := Minimize(quadratic(c, tgt), x, Options{MaxIter: 50})
	if res.Iters != 0 || !res.Converged {
		t.Errorf("optimal start should take 0 iterations: %+v", res)
	}
}

func TestMinimizeMonotoneDecrease(t *testing.T) {
	// Track objective values through the callback: Armijo acceptance must
	// yield a non-increasing sequence.
	n := 15
	rng := rand.New(rand.NewSource(11))
	c := make([]float64, n)
	tgt := make([]float64, n)
	for i := range c {
		c[i] = 0.1 + rng.Float64()*3
		tgt[i] = rng.NormFloat64() * 5
	}
	x := make([]float64, n)
	prev := math.Inf(1)
	Minimize(quadratic(c, tgt), x, Options{
		MaxIter: 200,
		Callback: func(iter int, f, g float64) {
			if f > prev+1e-12 {
				t.Fatalf("objective increased: %g -> %g at iter %d", prev, f, iter)
			}
			prev = f
		},
	})
}

// Nonsmooth-ish objective: |x| approximated by sqrt(x^2+eps); the optimizer
// must still make progress (models like LSE/WA wirelength are of this kind).
func TestMinimizeSmoothedAbs(t *testing.T) {
	const eps = 1e-4
	f := func(x, g []float64) float64 {
		total := 0.0
		for i := range x {
			v := math.Sqrt(x[i]*x[i] + eps)
			total += v
			if g != nil {
				g[i] = x[i] / v
			}
		}
		return total
	}
	x := []float64{5, -7, 3}
	// The largest gradient component at x is about 1, so the first trial
	// step is about 1.
	res := Minimize(fn(f), x, Options{MaxIter: 2000, GradTol: 1e-5, FirstMove: 1})
	for i := range x {
		if math.Abs(x[i]) > 0.05 {
			t.Fatalf("x[%d] = %g not near 0 (res=%+v)", i, x[i], res)
		}
	}
}

func BenchmarkMinimizeQuadratic1k(b *testing.B) {
	n := 1000
	rng := rand.New(rand.NewSource(5))
	c := make([]float64, n)
	tgt := make([]float64, n)
	for i := range c {
		c[i] = 0.5 + rng.Float64()
		tgt[i] = rng.NormFloat64()
	}
	f := quadratic(c, tgt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := make([]float64, n)
		Minimize(f, x, Options{MaxIter: 100, GradTol: 1e-6})
	}
}
