package wirelength

import (
	"math"
	"math/rand"
	"testing"
)

// randPins returns n pin coordinates drawn from a few distributions that
// stress the kernels: wide spreads, near-coincident clusters, and exact ties.
func randPins(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch rng.Intn(3) {
		case 0:
			xs[i] = rng.Float64() * 1000
		case 1:
			xs[i] = 500 + rng.Float64()*1e-6
		default:
			xs[i] = float64(rng.Intn(8)) * 10
		}
	}
	return xs
}

// TestSoAKernelsMatchModels is the bit-identity contract between the SoA
// kernels and the Model implementations: at every degree (the 2-pin fast
// path included) and several γ, value and gradient must match WA.EvalAxis /
// LSE.EvalAxis exactly.
func TestSoAKernelsMatchModels(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, gamma := range []float64{0.5, 4, 64} {
		wa := NewWA(gamma)
		lse := NewLSE(gamma)
		for _, n := range []int{2, 3, 4, 7, 16, 33} {
			for rep := 0; rep < 20; rep++ {
				xs := randPins(rng, n)
				ep := make([]float64, n)
				en := make([]float64, n)
				kGrad := make([]float64, n)
				mGrad := make([]float64, n)

				st, kv := WAValueAxis(xs, ep, en, gamma)
				WAGradAxis(xs, ep, en, st, gamma, kGrad)
				mv := wa.EvalAxis(xs, mGrad)
				if kv != mv {
					t.Fatalf("WA n=%d γ=%g: kernel value %v != model %v", n, gamma, kv, mv)
				}
				for i := range kGrad {
					if kGrad[i] != mGrad[i] {
						t.Fatalf("WA n=%d γ=%g: grad[%d] %v != model %v", n, gamma, i, kGrad[i], mGrad[i])
					}
				}

				for i := range mGrad {
					mGrad[i] = 0
				}
				st, kv = LSEValueAxis(xs, ep, en, gamma)
				LSEGradAxis(ep, en, st, kGrad)
				mv = lse.EvalAxis(xs, mGrad)
				if kv != mv {
					t.Fatalf("LSE n=%d γ=%g: kernel value %v != model %v", n, gamma, kv, mv)
				}
				for i := range kGrad {
					if kGrad[i] != mGrad[i] {
						t.Fatalf("LSE n=%d γ=%g: grad[%d] %v != model %v", n, gamma, i, kGrad[i], mGrad[i])
					}
				}
			}
		}
	}
}

// TestSoAKernelsTwoPinTies pins down the fast path's edge cases explicitly:
// equal pins, reversed order, and zero-width nets must match the models.
func TestSoAKernelsTwoPinTies(t *testing.T) {
	cases := [][2]float64{{5, 5}, {5, 7}, {7, 5}, {0, 0}, {-3, -3.0000001}}
	for _, gamma := range []float64{1, 8} {
		wa := NewWA(gamma)
		for _, c := range cases {
			xs := []float64{c[0], c[1]}
			ep := make([]float64, 2)
			en := make([]float64, 2)
			kGrad := make([]float64, 2)
			mGrad := make([]float64, 2)
			st, kv := WAValueAxis(xs, ep, en, gamma)
			WAGradAxis(xs, ep, en, st, gamma, kGrad)
			mv := wa.EvalAxis(xs, mGrad)
			if kv != mv || kGrad[0] != mGrad[0] || kGrad[1] != mGrad[1] {
				t.Fatalf("WA 2-pin %v γ=%g: kernel (%v,%v) != model (%v,%v)",
					c, gamma, kv, kGrad, mv, mGrad)
			}
		}
	}
}

// sameFloat is the kernels' equality contract: identical bits, or NaN on
// both sides (IEEE 754 leaves NaN payloads to the hardware).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestSoAKernelsExtremePins pins the extreme-pin shortcuts to the models on
// the inputs where they could go wrong: pins tied at the min and at the
// max, all pins equal, ±0 at an extreme, infinite pins, and NaN at a
// position the extrema scan skips. Two-pin nets take the fast path when
// finite and must agree as well.
func TestSoAKernelsExtremePins(t *testing.T) {
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	cases := [][]float64{
		{3, 1, 1, 7, 7, 4},   // ties at both extremes
		{2, 9, 2, 2},         // ties at the min only
		{5, 5, 5},            // all equal
		{0, negZero, 3, 1},   // ±0 tied at the min
		{negZero, 0, -3, -2}, // ±0 tied at the max
		{negZero, 4, 0, 2},   // ±0 at the min, -0 first
		{0, negZero},         // two-pin ±0
		{negZero, 6},         // two-pin -0 at the min
		{1, inf, 3},          // +Inf max
		{1, -inf, 3},         // -Inf min
		{inf, -inf, 3},       // both extremes infinite
		{inf, inf, 3},        // +Inf tied at the max
		{-inf, -inf, -inf},   // all -Inf
		{inf, 2},             // two-pin +Inf
		{2, -inf},            // two-pin -Inf
		{1, 2, nan, 4},       // NaN inside
		{1, 2, 4, nan},       // NaN last
		{1, nan},             // two-pin NaN second
		{nan, 1, 2},          // NaN first
	}
	for _, gamma := range []float64{0.5, 8} {
		wa, lse := NewWA(gamma), NewLSE(gamma)
		for _, xs := range cases {
			n := len(xs)
			ep, en := make([]float64, n), make([]float64, n)
			kGrad, mGrad := make([]float64, n), make([]float64, n)
			check := func(model string, kv, mv float64) {
				t.Helper()
				if !sameFloat(kv, mv) {
					t.Fatalf("%s %v γ=%g: kernel value %v != model %v", model, xs, gamma, kv, mv)
				}
				for i := range kGrad {
					if !sameFloat(kGrad[i], mGrad[i]) {
						t.Fatalf("%s %v γ=%g: grad[%d] %v != model %v", model, xs, gamma, i, kGrad[i], mGrad[i])
					}
				}
				hasNaN := false
				for _, x := range xs {
					hasNaN = hasNaN || math.IsNaN(x)
				}
				if hasNaN && !math.IsNaN(kv) {
					t.Fatalf("%s %v: NaN pin gave value %v, want NaN", model, xs, kv)
				}
			}

			st, kv := WAValueAxis(xs, ep, en, gamma)
			WAGradAxis(xs, ep, en, st, gamma, kGrad)
			check("WA", kv, wa.EvalAxis(xs, mGrad))

			for i := range mGrad {
				mGrad[i] = 0
			}
			st, kv = LSEValueAxis(xs, ep, en, gamma)
			LSEGradAxis(ep, en, st, kGrad)
			check("LSE", kv, lse.EvalAxis(xs, mGrad))
		}
	}
}

// TestSoAKernelsEmptyNet checks the degenerate degree-0 contract.
func TestSoAKernelsEmptyNet(t *testing.T) {
	if st, v := WAValueAxis(nil, nil, nil, 4); v != 0 || st != (AxisState{}) {
		t.Fatalf("WAValueAxis(nil) = %v, %v; want zero", st, v)
	}
	if st, v := LSEValueAxis(nil, nil, nil, 4); v != 0 || st != (AxisState{}) {
		t.Fatalf("LSEValueAxis(nil) = %v, %v; want zero", st, v)
	}
}

// TestSoAKernelsPoisonPropagates documents the NaN contract: non-finite
// inputs must never produce a finite value, so the optimizer's health guard
// sees the poison.
func TestSoAKernelsPoisonPropagates(t *testing.T) {
	for _, xs := range [][]float64{
		{math.NaN(), 3},
		{1, math.NaN(), 5},
	} {
		ep := make([]float64, len(xs))
		en := make([]float64, len(xs))
		if _, v := WAValueAxis(xs, ep, en, 4); !math.IsNaN(v) {
			t.Fatalf("WAValueAxis(%v) = %v, want NaN", xs, v)
		}
		if _, v := LSEValueAxis(xs, ep, en, 4); !math.IsNaN(v) {
			t.Fatalf("LSEValueAxis(%v) = %v, want NaN", xs, v)
		}
	}
}

// BenchmarkWAGradSoA measures the SoA value+gradient kernel over a CSR pin
// layout shaped like a real netlist (mostly 2-pin nets, a tail of wider
// ones), against the Model-interface path doing the same work. The "reuse"
// variant is the delta evaluator's accepted-iterate pattern: gradients from
// stored exponentials, no value recomputation.
func BenchmarkWAGradSoA(b *testing.B) {
	const nNets = 2048
	rng := rand.New(rand.NewSource(7))
	off := make([]int32, nNets+1)
	for ni := 0; ni < nNets; ni++ {
		deg := 2
		if ni%8 == 0 {
			deg = 3 + rng.Intn(14)
		}
		off[ni+1] = off[ni] + int32(deg)
	}
	total := int(off[nNets])
	xs := make([]float64, total)
	for i := range xs {
		xs[i] = rng.Float64() * 1000
	}
	ep := make([]float64, total)
	en := make([]float64, total)
	grad := make([]float64, total)
	st := make([]AxisState, nNets)
	const gamma = 8.0

	b.Run("soa", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for ni := 0; ni < nNets; ni++ {
				lo, hi := off[ni], off[ni+1]
				s, _ := WAValueAxis(xs[lo:hi], ep[lo:hi], en[lo:hi], gamma)
				st[ni] = s
				WAGradAxis(xs[lo:hi], ep[lo:hi], en[lo:hi], s, gamma, grad[lo:hi])
			}
		}
	})
	b.Run("soa-grad-reuse", func(b *testing.B) {
		for ni := 0; ni < nNets; ni++ {
			lo, hi := off[ni], off[ni+1]
			s, _ := WAValueAxis(xs[lo:hi], ep[lo:hi], en[lo:hi], gamma)
			st[ni] = s
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for ni := 0; ni < nNets; ni++ {
				lo, hi := off[ni], off[ni+1]
				WAGradAxis(xs[lo:hi], ep[lo:hi], en[lo:hi], st[ni], gamma, grad[lo:hi])
			}
		}
	})
	b.Run("model", func(b *testing.B) {
		m := NewWA(gamma)
		for i := 0; i < b.N; i++ {
			for ni := 0; ni < nNets; ni++ {
				lo, hi := off[ni], off[ni+1]
				g := grad[lo:hi]
				for k := range g {
					g[k] = 0
				}
				m.EvalAxis(xs[lo:hi], g)
			}
		}
	})
}
