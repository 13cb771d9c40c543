// Package par provides the bounded worker pool that drives the placer's
// parallel hot paths (wirelength, density, routing estimates). It is built
// around one non-negotiable contract: determinism. A computation run through
// the pool must produce bit-identical results for every worker count,
// including one — otherwise placements would stop being reproducible and the
// golden tests of this repository would be meaningless.
//
// The pool achieves that by separating *computation* from *reduction*:
//
//   - Run distributes disjoint index chunks to workers dynamically (an atomic
//     cursor) for load balance. Workers must only write to per-index slots —
//     never to shared accumulators — so the schedule cannot influence the
//     result.
//   - ForShards splits the index space into a fixed number of contiguous
//     shards, independent of worker count, so per-shard accumulators can be
//     merged afterwards in shard order when a caller does need accumulation
//     inside the parallel section.
//
// Floating-point reductions that must match a serial loop bit-for-bit are
// done by the caller, serially, in index order, over the per-index results
// the parallel phase produced — or as a gather, where each output slot
// visits its inputs in the serial loop's order.
//
// The calling goroutine always works on a call's chunks; the other
// Workers()−1 are helper goroutines. Hold keeps a set of helpers alive
// across calls for a scope (the global engine holds one for a whole
// solve): between jobs they spin briefly, yielding the processor
// periodically, then park on a channel, so back-to-back Run calls skip the
// thread wake-up a fresh goroutine costs.
// Outside a held scope each Run starts helpers for that one call and stops
// them before returning; the dispatch protocol is the same.
//
// Cancellation is cooperative and conservative: Run and ForShards check the
// context before dispatching work and between chunks, stop handing out new
// chunks once it expires, and return the context error. Chunks that already
// started always run to completion, so a non-nil error is the only signal
// that the output is incomplete; callers must discard it. A nil or
// single-worker pool executes inline on the calling goroutine with no
// goroutines and no synchronization — the exact serial code path.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded worker pool. The zero value and the nil pool are valid
// and execute everything inline on the calling goroutine (worker count 1).
// A Pool is safe for concurrent use: Run calls from several goroutines are
// all correct, and while one of them owns the held helpers the others start
// helpers of their own.
type Pool struct {
	workers int

	mu    sync.Mutex // guards holds and the held team's lifecycle
	holds int
	team  atomic.Pointer[team] // helpers of the held scope; nil outside one
}

// New returns a pool with the given worker count. Zero or negative means
// GOMAXPROCS(0), the number of OS threads Go will actually run in parallel.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's worker count (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// Hold starts the pool's Workers()−1 helper goroutines and keeps them for
// every Run until the returned stop function is called; stop returns only
// after every helper has exited. Holds nest: helpers start with the first
// and stop with the last. A nil or single-worker pool holds nothing.
// Calling stop more than once is harmless; never calling it leaks the
// helpers.
func (p *Pool) Hold() (stop func()) {
	if p.Workers() == 1 {
		return func() {}
	}
	p.mu.Lock()
	p.holds++
	if p.holds == 1 {
		p.team.Store(startTeam(p.Workers() - 1))
	}
	p.mu.Unlock()
	var once sync.Once
	return func() { once.Do(p.release) }
}

// release drops one hold and stops the helpers with the last.
func (p *Pool) release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.holds--
	if p.holds == 0 {
		p.team.Swap(nil).stop()
	}
}

// Grain returns a chunk size for n items: about four chunks per worker, for
// load balance, rounded up to a multiple of align. Chunk boundaries then
// fall on multiples of align, so with align ≥ 64 two workers writing
// adjacent chunks of a []bool or []float64 share at most the one cache line
// at the boundary.
func (p *Pool) Grain(n, align int) int {
	per := 4 * p.Workers()
	g := (n + per - 1) / per
	g = (g + align - 1) / align * align
	if g < align {
		g = align
	}
	return g
}

// minGrain is the smallest chunk Run hands to a worker when the caller
// passes grain <= 0; it bounds scheduling overhead for tiny items.
const minGrain = 16

// Run executes fn over the half-open ranges that partition [0, n), handing
// chunks of about `grain` indices to workers dynamically. fn must confine
// its writes to the slots of its own range. Returns ctx.Err() when the
// context expired before all chunks were dispatched — the caller must then
// treat the output as incomplete. A nil ctx is treated as background.
func (p *Pool) Run(ctx context.Context, n, grain int, fn func(lo, hi int)) error {
	if n <= 0 {
		return nil
	}
	if grain <= 0 {
		grain = minGrain
	}
	if err := ctxErr(ctx); err != nil {
		return err
	}
	w := p.Workers()
	if w == 1 || n <= grain {
		fn(0, n)
		return nil
	}
	d := &dispatch{ctx: ctx, n: n, grain: grain, fn: fn}
	if t := p.team.Load(); t != nil && t.busy.CompareAndSwap(false, true) {
		t.run(d)
		t.busy.Store(false)
	} else {
		// No held scope, or another goroutine's Run owns its helpers: the
		// same protocol with helpers started for this call alone.
		t := startTeam(w - 1)
		t.run(d)
		t.stop()
	}
	if d.stopped.Load() {
		return ctx.Err()
	}
	return nil
}

// dispatch is the shared state of one Run invocation: the chunk
// cursor the workers race on, the cooperative stop flag, the kernel closure
// they all execute, and the count of helpers inside it.
type dispatch struct {
	ctx      context.Context
	n, grain int
	fn       func(lo, hi int)
	cursor   atomic.Int64
	stopped  atomic.Bool
	inflight atomic.Int32
}

// runChunks is the per-worker dispatch loop: claim a chunk from the shared
// cursor, check cancellation, run the kernel over it, repeat. It sits
// between every pair of kernel chunks on every parallel hot path, so the
// DESIGN.md §14 zero-allocation contract applies to the loop itself —
// only atomics, the context poll, and the kernel call.
//
// It returns once the cursor is exhausted or the stop flag is set. Both are
// monotonic, so a helper that reaches a finished dispatch late runs no
// kernel at all.
//
//placelint:hotpath
func (d *dispatch) runChunks() {
	for {
		if d.stopped.Load() {
			return
		}
		lo := int(d.cursor.Add(int64(d.grain))) - d.grain
		if lo >= d.n {
			return
		}
		if err := ctxErr(d.ctx); err != nil {
			d.stopped.Store(true)
			return
		}
		hi := lo + d.grain
		if hi > d.n {
			hi = d.n
		}
		//placelint:ignore hotalloc the kernel closure is the caller's to keep allocation-free; the §14 kernels it wraps carry their own hotpath contracts
		d.fn(lo, hi)
	}
}

// spinRounds is how many times an idle helper polls for the next job before
// it parks. It is sized from the gaps between consecutive Run calls of the
// global engine — the serial code between two parallel passes — measured
// over the gen.Suite designs dp01–dp05 (0.5k–1.3k cells) placed in both
// modes at two workers on a 2-vCPU Xeon VM: 50k gaps, median 3.9 µs, 90th
// percentile 46 µs, 99th 77 µs. 2^14 polls, yields included, take ~86 µs
// there, so about 99% of gaps end while the helper still spins; the rest
// (outer-loop bookkeeping, overflow measurement, congestion snapshots) park
// and pay one wake-up each.
const spinRounds = 1 << 14

// yieldEvery is how many polls pass between runtime.Gosched calls, both in
// an idle helper's spin and in the caller's wait for helpers to leave a job.
// Yielding lets an oversubscribed pool (Workers > GOMAXPROCS, or -cpu 1)
// make progress: the goroutine being waited for gets the processor instead
// of waiting out a preemption tick.
const yieldEvery = 64

// team is one set of helper goroutines and the protocol they serve. A Run
// that owns the team publishes its dispatch by storing it and bumping seq;
// helpers notice the bump (spinning, or woken from a park), join the
// dispatch, and return to waiting. stop sets quit and bumps seq once more,
// and every helper exits.
type team struct {
	busy   atomic.Bool              // a Run owns the team
	seq    atomic.Uint64            // bumped by every publish and by stop
	job    atomic.Pointer[dispatch] // the most recently published dispatch
	quit   atomic.Bool              // set by stop before its bump
	parked atomic.Int32             // park registrations not yet matched by a wake token
	wake   chan struct{}            // wake tokens; capacity = helpers, so sends never block
	exited sync.WaitGroup
}

// startTeam starts a team of the given number of helpers.
func startTeam(helpers int) *team {
	t := &team{wake: make(chan struct{}, helpers)}
	t.exited.Add(helpers)
	for i := 0; i < helpers; i++ {
		go t.helper()
	}
	return t
}

// helper is one helper goroutine's body.
func (t *team) helper() {
	defer t.exited.Done()
	t.serve()
}

// serve is the helper loop: wait for a publish, join the published dispatch
// until its chunks run out, repeat until stop. A helper that loads a
// dispatch whose caller already returned finds it exhausted or stopped and
// runs nothing (runChunks).
//
//placelint:hotpath
func (t *team) serve() {
	var seen uint64
	for {
		seen = t.await(seen)
		if t.quit.Load() {
			return
		}
		d := t.job.Load()
		d.inflight.Add(1)
		d.runChunks()
		d.inflight.Add(-1)
	}
}

// await returns the first publish sequence number different from seen:
// spinning for spinRounds polls, then parking on the wake channel.
//
// Parking pairs with wakeParked without lost wake-ups: a helper registers
// in parked before it re-reads seq, and a publisher bumps seq before it
// reads parked, so at least one of them sees the other (all operations are
// sequentially consistent atomics). Registrations and tokens are fungible:
// a helper that registered but then saw the bump withdraws one
// registration, or takes a token if every registration was already turned
// into one. A token taken without a bump is a spurious wake-up, and the
// helper simply parks again.
//
//placelint:hotpath
func (t *team) await(seen uint64) uint64 {
	for i := 1; i <= spinRounds; i++ {
		if s := t.seq.Load(); s != seen {
			return s
		}
		if i%yieldEvery == 0 {
			//placelint:ignore hotalloc runtime.Gosched only yields the processor; it allocates nothing
			runtime.Gosched()
		}
	}
	for {
		t.parked.Add(1)
		if s := t.seq.Load(); s != seen {
			if !t.withdraw() {
				<-t.wake
			}
			return s
		}
		<-t.wake
		if s := t.seq.Load(); s != seen {
			return s
		}
	}
}

// withdraw removes one park registration, reporting false when none is left
// (a publisher already turned each into a wake token).
func (t *team) withdraw() bool {
	for {
		n := t.parked.Load()
		if n == 0 {
			return false
		}
		if t.parked.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// wakeParked turns every park registration into a wake token.
func (t *team) wakeParked() {
	for t.withdraw() {
		t.wake <- struct{}{}
	}
}

// run publishes d, works on its chunks on the calling goroutine, and
// returns once every helper that joined it has left.
func (t *team) run(d *dispatch) {
	t.job.Store(d)
	t.seq.Add(1)
	t.wakeParked()
	d.runChunks()
	for i := 1; d.inflight.Load() != 0; i++ {
		if i%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
}

// stop makes every helper exit and returns once they all have.
func (t *team) stop() {
	t.quit.Store(true)
	t.seq.Add(1)
	t.wakeParked()
	t.exited.Wait()
}

// ForShards splits [0, n) into exactly `shards` contiguous ranges (the last
// ones may be empty when shards > n) and runs fn(shard, lo, hi) for each,
// concurrently across the pool's workers. The shard boundaries depend only
// on n and shards — never on the worker count — so per-shard accumulators
// merged in shard order yield the same result at every parallelism level.
// Like Run, it stops dispatching when ctx expires and returns the context
// error; started shards complete.
func (p *Pool) ForShards(ctx context.Context, n, shards int, fn func(shard, lo, hi int)) error {
	if n <= 0 || shards <= 0 {
		return nil
	}
	// Balanced contiguous partition: the first n%shards shards get one extra.
	q, r := n/shards, n%shards
	bounds := make([]int, shards+1)
	for s := 0; s < shards; s++ {
		sz := q
		if s < r {
			sz++
		}
		bounds[s+1] = bounds[s] + sz
	}
	return p.Run(ctx, shards, 1, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			if bounds[s] < bounds[s+1] {
				fn(s, bounds[s], bounds[s+1])
			}
		}
	})
}

// ctxErr is ctx.Err() with nil-context tolerance.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}
