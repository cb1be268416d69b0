package scenario

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"selfishnet/internal/core"
)

// splitBudget resolves a requested top-level parallelism against a task
// count into (workers, inner): `workers` concurrent tasks, each allowed
// an internal fan-out of `inner`. requested ≤ 0 selects all cores. A
// single task keeps the whole budget (so one experiment fans its
// replicas at full width); many concurrent tasks on few cores each run
// their replicas sequentially. An explicit caller-set inner width
// (explicitInner > 0) is respected as-is. inner does not bound an auto
// batch pool (batch_workers 0): that pool draws on the process-wide
// core budget instead, so it widens as soon as other tasks finish.
func splitBudget(requested, tasks, explicitInner int) (workers, inner int) {
	if tasks <= 0 {
		return 0, 1
	}
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	workers = requested
	if workers > tasks {
		workers = tasks
	}
	inner = explicitInner
	if inner == 0 {
		inner = requested / workers
		if inner < 1 {
			inner = 1
		}
	}
	return workers, inner
}

// forEachIndex runs fn(i) for every i in [0, n) across `workers`
// goroutines claiming indices from a shared counter. workers ≤ 1 runs
// the plain sequential loop. Callers write results into slices indexed
// by i and reduce in index order, which is what keeps every scenario
// table bit-identical at any width.
func forEachIndex(n, workers int, fn func(int)) {
	forEachIndexCtx(context.Background(), n, workers, fn)
}

// forEachIndexCtx is forEachIndex with cooperative cancellation: ctx is
// polled before each index is claimed, so a cancelled context stops new
// work while indices already claimed run to completion (the "drain
// in-flight" convention the serve layer's job cancellation relies on).
// It reports whether every index ran.
//
// Every worker — the caller itself when workers ≤ 1 — takes a slot of
// the core budget (core.TryAcquireCore) if one is free, and starts
// without one otherwise, so the width keeps its meaning. A worker
// returns its slot when it finds no index left: the cores of finished
// workers then go to the budgeted batch pools of the tasks still
// running.
func forEachIndexCtx(ctx context.Context, n, workers int, fn func(int)) bool {
	if workers <= 1 {
		if core.TryAcquireCore() {
			defer core.ReleaseCore()
		}
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return false
			}
			fn(i)
		}
		return true
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if core.TryAcquireCore() {
				defer core.ReleaseCore()
			}
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	// next ≥ n means every index was claimed (and, after Wait, ran to
	// completion) before cancellation stopped the workers — a cancel
	// that lands after the last claim must not report an aborted run.
	return int(next.Load()) >= n
}
