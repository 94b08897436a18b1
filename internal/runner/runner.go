// Package runner provides the bounded-concurrency execution pool shared by
// everything that fans independent simulations out across host CPUs: the
// experiment grids (policy × benchmark × repetition), the fuzzer's
// governor cells and the service's worker fleet all run through one Pool
// instead of each maintaining a private goroutine pool.
package runner

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool executes independent jobs with bounded concurrency. The zero value
// is ready to use and sizes itself to GOMAXPROCS.
type Pool struct {
	// Workers bounds concurrent jobs; <= 0 means GOMAXPROCS.
	Workers int
}

// ForEach runs fn(ctx, i) for every index in [0, n), at most Workers at a
// time. Unlike a first-error-wins pool, every error that occurs is kept and
// returned joined in index order — no failure is silently dropped. The
// first failure cancels the derived context and stops dispatching new
// jobs (jobs never started contribute no error); jobs already running may
// observe the cancellation through ctx and finish early. If the caller's
// context is cancelled, its error is included in the result.
func (p Pool) ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	inner, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for inner.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(inner, i); err != nil {
					errs[i] = err // index-owned slot: no lock needed
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	var all []error
	for _, err := range errs {
		if err != nil {
			all = append(all, err)
		}
	}
	if err := ctx.Err(); err != nil {
		all = append(all, err)
	}
	return errors.Join(all...)
}

// Go runs every function in fns concurrently on the pool, aggregating
// errors the same way ForEach does.
func (p Pool) Go(ctx context.Context, fns ...func(ctx context.Context) error) error {
	return p.ForEach(ctx, len(fns), func(ctx context.Context, i int) error {
		return fns[i](ctx)
	})
}
