package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuilderSumsDuplicates(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 0, 1)
	b.Add(0, 0, 2)
	b.Add(1, 2, -1)
	b.Add(1, 2, 0.5)
	m := b.Build()
	if got := m.At(0, 0); got != 3 {
		t.Errorf("At(0,0) = %g, want 3", got)
	}
	if got := m.At(1, 2); got != -0.5 {
		t.Errorf("At(1,2) = %g, want -0.5", got)
	}
	if got := m.At(2, 2); got != 0 {
		t.Errorf("At(2,2) = %g, want 0", got)
	}
	if len(m.Val) != 2 {
		t.Errorf("%d stored nonzeros, want 2", len(m.Val))
	}
}

func TestBuilderDropsCancellations(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 1, 5)
	b.Add(0, 1, -5)
	m := b.Build()
	if len(m.Val) != 0 {
		t.Errorf("cancelled entry stored: %d nonzeros", len(m.Val))
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewBuilder(2).Add(2, 0, 1)
}

func TestAddSym(t *testing.T) {
	b := NewBuilder(3)
	b.AddSym(0, 2, 4)
	m := b.Build()
	if m.At(0, 0) != 4 || m.At(2, 2) != 4 || m.At(0, 2) != -4 || m.At(2, 0) != -4 {
		t.Errorf("AddSym stencil wrong: %v %v %v %v",
			m.At(0, 0), m.At(2, 2), m.At(0, 2), m.At(2, 0))
	}
}

func TestMulVec(t *testing.T) {
	// [2 -1 0; -1 2 -1; 0 -1 2] * [1 2 3] = [0, 0, 4]
	b := NewBuilder(3)
	b.AddSym(0, 1, 1)
	b.AddSym(1, 2, 1)
	b.AddDiag(0, 1)
	b.AddDiag(2, 1)
	m := b.Build()
	x := []float64{1, 2, 3}
	dst := make([]float64, 3)
	m.MulVec(dst, x)
	want := []float64{0, 0, 4}
	for i := range want {
		if math.Abs(dst[i]-want[i]) > 1e-12 {
			t.Fatalf("MulVec = %v, want %v", dst, want)
		}
	}
}

func TestDiag(t *testing.T) {
	b := NewBuilder(3)
	b.AddDiag(0, 2)
	b.Add(1, 2, 9) // off-diagonal only in row 1
	m := b.Build()
	d := make([]float64, 3)
	m.Diag(d)
	if d[0] != 2 || d[1] != 0 || d[2] != 0 {
		t.Errorf("Diag = %v", d)
	}
}

func TestVectorKernels(t *testing.T) {
	a := []float64{1, 2, 3}
	bb := []float64{4, 5, 6}
	if Dot(a, bb) != 32 {
		t.Errorf("Dot = %g", Dot(a, bb))
	}
	dst := []float64{1, 1, 1}
	Axpy(dst, 2, a)
	if dst[0] != 3 || dst[1] != 5 || dst[2] != 7 {
		t.Errorf("Axpy = %v", dst)
	}
	if math.Abs(Norm2([]float64{3, 4})-5) > 1e-12 {
		t.Errorf("Norm2 = %g", Norm2([]float64{3, 4}))
	}
}

// laplacianSPD builds the standard SPD test matrix: a path-graph Laplacian
// plus anchors at both ends (tridiagonal [-1 2 -1] with strengthened ends).
func laplacianSPD(n int) *CSR {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddSym(i, i+1, 1)
	}
	b.AddDiag(0, 1)
	b.AddDiag(n-1, 1)
	return b.Build()
}

func TestSolveCGExact(t *testing.T) {
	n := 50
	a := laplacianSPD(n)
	rng := rand.New(rand.NewSource(42))
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MulVec(b, want)

	x := make([]float64, n)
	res, err := SolveCG(a, x, b, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatalf("SolveCG: %v (res=%+v)", err, res)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-6 {
			t.Fatalf("x[%d] = %g, want %g (res=%+v)", i, x[i], want[i], res)
		}
	}
	if res.Iters == 0 {
		t.Error("solver claims zero iterations for nontrivial system")
	}
}

func TestSolveCGZeroRHS(t *testing.T) {
	a := laplacianSPD(10)
	x := make([]float64, 10)
	for i := range x {
		x[i] = 5 // nonzero guess must be reset
	}
	res, err := SolveCG(a, x, make([]float64, 10), CGOptions{})
	if err != nil {
		t.Fatalf("SolveCG: %v", err)
	}
	for i := range x {
		if x[i] != 0 {
			t.Fatalf("x[%d] = %g, want 0", i, x[i])
		}
	}
	if res.Residual != 0 {
		t.Errorf("Residual = %g", res.Residual)
	}
}

func TestSolveCGWarmStart(t *testing.T) {
	n := 30
	a := laplacianSPD(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i % 3)
	}
	cold := make([]float64, n)
	resCold, err := SolveCG(a, cold, b, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	// Warm start from the solution: should converge immediately.
	warm := make([]float64, n)
	copy(warm, cold)
	resWarm, err := SolveCG(a, warm, b, CGOptions{Tol: 1e-8})
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	if resWarm.Iters > resCold.Iters/2 {
		t.Errorf("warm start did not help: warm=%d cold=%d iters", resWarm.Iters, resCold.Iters)
	}
}

func TestSolveCGIterationBudget(t *testing.T) {
	n := 200
	a := laplacianSPD(n)
	b := make([]float64, n)
	b[n/2] = 1
	x := make([]float64, n)
	_, err := SolveCG(a, x, b, CGOptions{MaxIter: 2, Tol: 1e-14})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("expected ErrNotConverged, got %v", err)
	}
}

func TestSolveCGBreakdownOnIndefinite(t *testing.T) {
	// Indefinite matrix: diag(1, -1).
	bld := NewBuilder(2)
	bld.AddDiag(0, 1)
	bld.Add(1, 1, -1)
	a := bld.Build()
	x := make([]float64, 2)
	_, err := SolveCG(a, x, []float64{0, 1}, CGOptions{})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("expected breakdown error, got %v", err)
	}
}

// Property: for random SPD systems (Laplacian + random positive diagonal),
// CG reproduces A*x = b to tolerance.
func TestSolveCGProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		b := NewBuilder(n)
		for i := 0; i+1 < n; i++ {
			b.AddSym(i, i+1, 0.5+rng.Float64())
		}
		// Random extra springs keep it interesting.
		for k := 0; k < n/2; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				b.AddSym(i, j, rng.Float64())
			}
		}
		for i := 0; i < n; i++ {
			b.AddDiag(i, 0.1+rng.Float64())
		}
		a := b.Build()
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64() * 10
		}
		rhs := make([]float64, n)
		a.MulVec(rhs, want)
		x := make([]float64, n)
		if _, err := SolveCG(a, x, rhs, CGOptions{Tol: 1e-10}); err != nil {
			return false
		}
		for i := range want {
			if math.Abs(x[i]-want[i]) > 1e-5*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: MulVec is linear: A(x+y) = Ax + Ay.
func TestMulVecLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 20
	a := laplacianSPD(n)
	for trial := 0; trial < 20; trial++ {
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		ax := make([]float64, n)
		ay := make([]float64, n)
		axy := make([]float64, n)
		sum := make([]float64, n)
		a.MulVec(ax, x)
		a.MulVec(ay, y)
		for i := range sum {
			sum[i] = x[i] + y[i]
		}
		a.MulVec(axy, sum)
		for i := range axy {
			if math.Abs(axy[i]-(ax[i]+ay[i])) > 1e-9 {
				t.Fatalf("linearity violated at %d", i)
			}
		}
	}
}

func BenchmarkSolveCG(b *testing.B) {
	n := 5000
	a := laplacianSPD(n)
	rhs := make([]float64, n)
	rhs[n/3] = 1
	rhs[2*n/3] = -1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := make([]float64, n)
		_, _ = SolveCG(a, x, rhs, CGOptions{Tol: 1e-6})
	}
}
