// Package pardiscipline seeds the pardiscipline check: inside a closure
// handed to the internal/par pool, writes must land in worker-owned slots.
// Shared accumulators, map writes, and fixed-index slice writes are flagged;
// slots indexed by the closure's own range (or the shard index) are exempt,
// as is the serial reduction after the pool call returns. The rule follows
// static calls (testdata/parpurity seeds that half); an ignore at a callee's
// write clears the callee's fact, so its call site stays clean.
package pardiscipline

import (
	"context"

	"repro/internal/par"
)

var warmed bool

// warm stores one flag every worker sets to the same value.
func warm() {
	warmed = true //placelint:ignore pardiscipline idempotent same-value store; every worker writes true
}

func violations(ctx context.Context, pool *par.Pool, xs []float64) float64 {
	total := 0.0
	out := make([]float64, len(xs))
	counts := make(map[int]int)
	_ = pool.Run(ctx, len(xs), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			total += xs[i]    // want "write to captured variable total"
			out[0] = xs[i]    // want "write into captured out at an index not derived"
			counts[i]++       // want "write into captured map counts"
			delete(counts, i) // want "delete on captured map counts"
		}
		copy(out, xs) // want "copy into captured out inside a par closure"
		warm()        // exempt: the ignore clears warm's write fact at its source
	})
	return total
}

func computeThenReduce(ctx context.Context, pool *par.Pool, xs []float64) float64 {
	out := make([]float64, len(xs))
	_ = pool.Run(ctx, len(xs), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = 2 * xs[i] // exempt: slot indexed by the closure's own range
		}
		copy(out[lo:hi], xs[lo:hi]) // exempt: destination sliced by closure-local bounds
	})
	total := 0.0
	for _, v := range out { // serial reduction in index order — the sanctioned shape
		total += v
	}
	return total
}

func perShardPartials(ctx context.Context, pool *par.Pool, xs []float64) float64 {
	const shards = 4
	partial := make([]float64, shards)
	_ = pool.ForShards(ctx, len(xs), shards, func(s, lo, hi int) {
		for i := lo; i < hi; i++ {
			partial[s] += xs[i] // exempt: the shard owns slot s
		}
	})
	total := 0.0
	for _, v := range partial {
		total += v
	}
	return total
}

func annotated(ctx context.Context, pool *par.Pool, done []bool) {
	_ = pool.Run(ctx, len(done), 1, func(lo, hi int) {
		//placelint:ignore pardiscipline idempotent same-value store; every worker writes true
		done[0] = true
	})
}
