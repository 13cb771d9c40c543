package par

import (
	"context"
	"runtime"
	"sync"
)

// Budget is a machine-wide worker allowance shared by concurrent placements.
// Each job acquires a grant before building its par.Pool and releases it when
// the job ends, so the sum of all live pools' workers never exceeds the
// budget — running four placements on an eight-core box means four pools
// whose worker counts add up to at most eight, not four pools of eight
// workers each thrashing the scheduler.
//
// Acquire is deliberately elastic: a caller asking for more workers than are
// free is granted what is free (at least one) rather than blocking until its
// full request fits. Placements are bit-identical at every worker count, so
// shrinking a grant only trades wall clock — it can never change a result —
// and the elastic policy keeps the queue draining under load instead of
// convoying behind wide jobs.
type Budget struct {
	mu        sync.Mutex
	total     int
	used      int
	highWater int           // max of used ever observed, for tests and stats
	waiters   chan struct{} // capacity 1; signaled on every Release
}

// NewBudget returns a budget of the given size. Zero or negative means
// GOMAXPROCS(0), matching par.New's meaning of "all cores".
func NewBudget(total int) *Budget {
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	return &Budget{total: total, waiters: make(chan struct{}, 1)}
}

// Total returns the budget size.
func (b *Budget) Total() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}

// InUse returns the number of workers currently granted.
func (b *Budget) InUse() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// HighWater returns the largest InUse value ever observed — the witness the
// budget tests assert never exceeds Total.
func (b *Budget) HighWater() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.highWater
}

// Acquire grants between 1 and want workers, blocking while the budget is
// exhausted. want <= 0 asks for the whole budget. Returns the granted count,
// or 0 and ctx.Err() when the context expires first. Every successful
// Acquire must be paired with a Release of the same count.
func (b *Budget) Acquire(ctx context.Context, want int) (int, error) {
	if want <= 0 {
		want = b.Total()
	}
	for {
		b.mu.Lock()
		if free := b.total - b.used; free > 0 {
			n := want
			if n > free {
				n = free
			}
			b.used += n
			if b.used > b.highWater {
				b.highWater = b.used
			}
			leftover := b.total - b.used
			b.mu.Unlock()
			if leftover > 0 {
				// Cascade the wake-up: the channel holds at most one signal,
				// so a waiter that doesn't consume all freed capacity must
				// pass the signal on or a sibling waiter could sleep through
				// available workers.
				select {
				case b.waiters <- struct{}{}:
				default:
				}
			}
			return n, nil
		}
		b.mu.Unlock()
		select {
		case <-b.waiters:
			// A Release freed capacity; retry. Other waiters that lose the
			// race simply loop again on the next signal.
		case <-ctxDone(ctx):
			return 0, ctx.Err()
		}
	}
}

// Release returns n workers to the budget. Releasing more than was acquired
// panics: it means a bookkeeping bug that would silently over-admit jobs.
func (b *Budget) Release(n int) {
	if n <= 0 {
		return
	}
	b.mu.Lock()
	if n > b.used {
		b.mu.Unlock()
		panic("par: Budget.Release of more workers than acquired")
	}
	b.used -= n
	b.mu.Unlock()
	select {
	case b.waiters <- struct{}{}:
	default: // a wake-up is already pending; one is enough
	}
}

// ctxDone returns ctx.Done() with nil-context tolerance (a nil channel
// blocks forever, matching "background context never expires").
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}
