package par

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunCoversRange verifies every index is visited exactly once at several
// worker counts and grain sizes.
func TestRunCoversRange(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8} {
		for _, n := range []int{0, 1, 5, 100, 1000} {
			for _, grain := range []int{0, 1, 7, 64} {
				p := New(workers)
				seen := make([]int32, n)
				err := p.Run(context.Background(), n, grain, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&seen[i], 1)
					}
				})
				if err != nil {
					t.Fatalf("workers=%d n=%d grain=%d: %v", workers, n, grain, err)
				}
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d visited %d times",
							workers, n, grain, i, c)
					}
				}
			}
		}
	}
}

// TestForShardsDeterministicBoundaries verifies shard boundaries depend only
// on (n, shards): every worker count sees identical partitions, shards are
// contiguous, disjoint and cover the range.
func TestForShardsDeterministicBoundaries(t *testing.T) {
	const n, shards = 103, 8
	var want [][2]int
	for _, workers := range []int{1, 2, 4} {
		p := New(workers)
		got := make([][2]int, shards)
		for i := range got {
			got[i] = [2]int{-1, -1}
		}
		var mu atomic.Int32
		err := p.ForShards(context.Background(), n, shards, func(s, lo, hi int) {
			got[s] = [2]int{lo, hi}
			mu.Add(int32(hi - lo))
		})
		if err != nil {
			t.Fatal(err)
		}
		if int(mu.Load()) != n {
			t.Fatalf("workers=%d: covered %d of %d indices", workers, mu.Load(), n)
		}
		prev := 0
		for s, b := range got {
			if b[0] != prev {
				t.Fatalf("workers=%d: shard %d starts at %d, want %d", workers, s, b[0], prev)
			}
			prev = b[1]
		}
		if prev != n {
			t.Fatalf("workers=%d: shards end at %d, want %d", workers, prev, n)
		}
		if want == nil {
			want = got
		} else {
			for s := range got {
				if got[s] != want[s] {
					t.Fatalf("shard %d boundaries differ across worker counts: %v vs %v",
						s, got[s], want[s])
				}
			}
		}
	}
}

// TestRunDeterministicFloatReduction is the contract test behind the
// placer's bit-identity guarantee: a parallel per-index compute phase
// followed by a serial in-order reduce must match the plain serial loop
// exactly, at every worker count.
func TestRunDeterministicFloatReduction(t *testing.T) {
	const n = 4096
	vals := make([]float64, n)
	for i := range vals {
		// Spread magnitudes so summation order actually matters.
		vals[i] = float64((i*2654435761)%1000) * 1e-3 * float64(1+i%17)
	}
	serial := 0.0
	for _, v := range vals {
		serial += v * v
	}
	for _, workers := range []int{1, 2, 4, 8} {
		p := New(workers)
		sq := make([]float64, n)
		if err := p.Run(context.Background(), n, 33, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				sq[i] = vals[i] * vals[i]
			}
		}); err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, v := range sq {
			sum += v
		}
		if sum != serial {
			t.Fatalf("workers=%d: parallel-compute + serial-reduce %v != serial %v", workers, sum, serial)
		}
	}
}

// TestRunCancellation verifies an expired context is reported and that a
// pre-cancelled context runs nothing.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := New(4)
	ran := atomic.Int32{}
	err := p.Run(ctx, 1000, 1, func(lo, hi int) { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("pre-cancelled context still ran %d chunks", ran.Load())
	}
	// Nil context is background.
	if err := (*Pool)(nil).Run(nil, 10, 0, func(lo, hi int) {}); err != nil { //nolint:staticcheck
		t.Fatalf("nil ctx: %v", err)
	}
}

// TestNilPoolInline verifies the nil pool runs inline with one worker.
func TestNilPoolInline(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool workers = %d, want 1", p.Workers())
	}
	count := 0
	if err := p.Run(context.Background(), 50, 0, func(lo, hi int) {
		count += hi - lo // no atomics: must be single-goroutine
	}); err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Fatalf("covered %d, want 50", count)
	}
}

// TestNewDefaults verifies New(0) picks up GOMAXPROCS.
func TestNewDefaults(t *testing.T) {
	if w := New(0).Workers(); w < 1 {
		t.Fatalf("New(0).Workers() = %d", w)
	}
	if w := New(3).Workers(); w != 3 {
		t.Fatalf("New(3).Workers() = %d", w)
	}
}

// settleGoroutines waits, yielding, until runtime.NumGoroutine drops to
// want. A helper that has signalled its exit is still counted until its
// last deferred call returns, so the count may lag a stop by a few
// instructions; it never needs a sleep.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		if runtime.NumGoroutine() <= want {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("%d goroutines after stop, want %d", runtime.NumGoroutine(), want)
}

// coverOnce runs one Run of n items and fails unless every index was
// visited exactly once.
func coverOnce(t testing.TB, ctx context.Context, p *Pool, n, grain int) {
	seen := make([]int32, n)
	if err := p.Run(ctx, n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	}); err != nil {
		t.Errorf("Run: %v", err)
		return
	}
	for i, c := range seen {
		if c != 1 {
			t.Errorf("index %d visited %d times", i, c)
			return
		}
	}
}

// TestHoldHelpersLifetime checks that a held scope keeps at most
// Workers()−1 helpers alive however many Runs it serves, that nested holds
// share them, and that the goroutine count returns to its starting value
// once the last stop returns — also after a context cancelled in the
// middle of a Run. (Counts are compared as upper bounds: a goroutine left
// over from an earlier test can only exit, never appear.)
func TestHoldHelpersLifetime(t *testing.T) {
	base := runtime.NumGoroutine()
	p := New(4)
	stop := p.Hold()
	held := p.team.Load()
	inner := p.Hold()
	for i := 0; i < 20; i++ {
		coverOnce(t, context.Background(), p, 1000, 7)
	}
	if got := runtime.NumGoroutine(); got > base+3 {
		t.Fatalf("%d goroutines inside the hold, want at most %d", got, base+3)
	}
	inner()
	inner() // a second stop is a no-op
	if p.team.Load() != held {
		t.Fatal("the inner stop replaced or stopped the outer hold's helpers")
	}

	ctx, cancel := context.WithCancel(context.Background())
	var chunks atomic.Int32
	err := p.Run(ctx, 10000, 1, func(lo, hi int) {
		if chunks.Add(1) == 50 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run returned %v", err)
	}
	if n := chunks.Load(); n >= 10000 {
		t.Fatalf("cancelled Run still ran all %d chunks", n)
	}
	stop()
	if p.team.Load() != nil {
		t.Fatal("team still installed after the last stop")
	}
	settleGoroutines(t, base)

	// Unheld Runs start and stop their helpers inside the call.
	coverOnce(t, context.Background(), p, 1000, 7)
	settleGoroutines(t, base)
}

// TestParkedHelpersWake lets the held helpers exhaust their spin and park,
// then requires a Run whose two chunks each wait for the other: it can only
// finish if a parked helper wakes and takes the second chunk concurrently.
func TestParkedHelpersWake(t *testing.T) {
	p := New(2)
	stop := p.Hold()
	defer stop()
	tm := p.team.Load()
	for i := 0; tm.parked.Load() != 1; i++ {
		if i > 10_000_000 {
			t.Fatal("idle helper never parked")
		}
		runtime.Gosched()
	}
	for round := 0; round < 3; round++ {
		var arrived atomic.Int32
		deadline := time.Now().Add(10 * time.Second)
		var timedOut atomic.Bool
		err := p.Run(context.Background(), 2, 1, func(lo, hi int) {
			arrived.Add(1)
			for arrived.Load() < 2 {
				if time.Now().After(deadline) {
					timedOut.Store(true)
					return
				}
				runtime.Gosched()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if timedOut.Load() {
			t.Fatalf("round %d: no second worker joined the Run", round)
		}
		// Park again before the next round.
		for tm.parked.Load() != 1 {
			runtime.Gosched()
		}
	}
}

// TestConcurrentRunsOnOnePool runs Run from several goroutines on one held
// pool: one of them owns the held helpers at a time, the others start their
// own, and every Run still covers its range exactly once. Run it under
// -race -count=10.
func TestConcurrentRunsOnOnePool(t *testing.T) {
	p := New(3)
	stop := p.Hold()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				coverOnce(t, context.Background(), p, 200+g*37+i, 1+(g+i)%9)
			}
		}(g)
	}
	wg.Wait()
	stop()
}

// TestOversubscribedPoolFinishes runs a four-worker held pool on a single
// processor: the spinning helpers and the waiting caller must yield to
// each other instead of starving.
func TestOversubscribedPoolFinishes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := New(4)
	stop := p.Hold()
	for i := 0; i < 200; i++ {
		coverOnce(t, context.Background(), p, 4096, 64)
	}
	stop()
	coverOnce(t, context.Background(), p, 4096, 64) // unheld, same protocol
}

// BenchmarkRunDispatch measures the fork-join cost of one Run the way the
// global engine pays it: a short parallel pass (1024 items of light work)
// followed by a serial gap of ~10 µs before the next Run. w1 is the inline
// baseline; w2 holds the pool across iterations as the engine holds it for
// a solve; w2-unheld starts helpers per Run.
func BenchmarkRunDispatch(b *testing.B) {
	const n = 1024
	out := make([]float64, n)
	gap := make([]float64, 8192)
	for i := range gap {
		gap[i] = float64(i%97) * 0.5
	}
	kernel := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x, y := float64(i), 0.0
			for k := 0; k < 8; k++ {
				y = y*x*1e-3 + x*0.5 + float64(k)
			}
			out[i] = y
		}
	}
	serialGap := func() float64 {
		s := 0.0
		for _, v := range gap {
			s += v * v
		}
		return s
	}
	for _, c := range []struct {
		name    string
		workers int
		hold    bool
	}{{"w1", 1, false}, {"w2", 2, true}, {"w2-unheld", 2, false}} {
		b.Run(c.name, func(b *testing.B) {
			p := New(c.workers)
			if c.hold {
				defer p.Hold()()
			}
			sink := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Run(context.Background(), n, p.Grain(n, 64), kernel); err != nil {
					b.Fatal(err)
				}
				sink += serialGap()
			}
			if sink < 0 {
				b.Fatal("unreachable")
			}
		})
	}
}
