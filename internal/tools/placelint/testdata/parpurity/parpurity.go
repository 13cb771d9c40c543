// Package parpurity seeds the callee half of the par-worker contract: every
// function invoked by static call from a closure handed to the internal/par
// pool must be transitively free of writes to package-level state and of
// clock/rand reads. pardiscipline flags a callee that writes package-level
// state at its call site; writes through the callee's own parameters stay
// legal (that is how workers fill their owned slots), so scale is exempt.
// The clock and rand reads are walltime's: it flags the root reads and the
// worker calls that reach them.
package parpurity

import (
	"context"
	"math/rand" // want "import of math/rand outside the randomness owners"
	"time"

	"repro/internal/par"
)

var total float64

// impureWrite hides a shared accumulator behind a call frame.
func impureWrite(dst []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		total += dst[i]
	}
}

// timestamp reaches the wall clock two frames below the worker closure.
func timestamp(dst []float64, lo, hi int) {
	mark(dst, lo, hi) // want "timestamp transitively reads the wall clock: time.Now at .*via parpurity.mark"
}

func mark(dst []float64, lo, hi int) {
	t0 := time.Now() // want "time.Now outside internal/obs"
	for i := lo; i < hi; i++ {
		dst[i] += float64(t0.Nanosecond())
	}
}

// jitter consumes unseeded randomness.
func jitter(dst []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] += rand.Float64()
	}
}

// scale writes only through its parameters: pure for the contract's purposes.
func scale(dst []float64, lo, hi int, k float64) {
	for i := lo; i < hi; i++ {
		dst[i] *= k
	}
}

// Reduce drives the pool; only the impure callees inside the closure are
// flagged, at their call sites.
func Reduce(pool *par.Pool, dst []float64) float64 {
	_ = pool.Run(context.Background(), len(dst), 0, func(lo, hi int) {
		impureWrite(dst, lo, hi) // want "parpurity.impureWrite is called from a par worker closure but transitively writes non-worker-owned state: write to package-level variable total"
		timestamp(dst, lo, hi)   // want "Reduce transitively reads the wall clock: time.Now at .*via parpurity.timestamp"
		jitter(dst, lo, hi)      // want "Reduce transitively consumes math/rand: math/rand.Float64 at .*via parpurity.jitter"
		scale(dst, lo, hi, 2)    // exempt: writes through its own parameters only
	})
	s := 0.0
	for _, v := range dst {
		s += v
	}
	return s
}
