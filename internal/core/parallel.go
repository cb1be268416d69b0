package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a fixed set of evaluator clones that an Evaluator fans its
// row settles across once attached (AttachPool): the all-pairs folds,
// the estimators and the deviation-batch rest rows all split into
// chunks of sources that the workers claim from a shared counter. Each
// worker prepares its own adjacency for the pass, and every row lands in
// the slot indexed by its source, so results are bit-identical to the
// unpooled evaluator at any width.
//
// A Pool serves one fan-out at a time (like an Evaluator); the
// concurrency is internal. The profile must not be mutated while a
// fan-out runs.
type Pool struct {
	// job and workers back fanRows: the job state, and one pre-built
	// closure per evaluator clone so starting a worker allocates no
	// closure.
	job     rowJob
	workers []func()
}

// NewPool creates a pool of `workers` evaluators over the instance.
// workers <= 0 selects runtime.GOMAXPROCS(0).
func NewPool(inst *Instance, workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n := inst.N(); workers > n {
		workers = n
	}
	pl := &Pool{workers: make([]func(), workers)}
	for i := range pl.workers {
		ev := NewEvaluator(inst)
		pl.workers[i] = func() { pl.rowWorker(ev) }
	}
	return pl
}

// Workers returns the pool's concurrency width.
func (pl *Pool) Workers() int { return len(pl.workers) }

// rowJob is the in-flight fan-out of Evaluator.settlePass. It lives in
// the pool, and the workers start through closures built once by
// NewPool, so a fan-out allocates nothing in steady state.
type rowJob struct {
	pass   rowPass
	srcs   []int32
	dst    [][]float64
	chunk  int
	chunks int
	next   atomic.Int64
	wg     sync.WaitGroup
}

// fanRows settles the rows of srcs into dst across the pool: each
// started worker prepares the pass's graph once and claims chunks of
// srcs from a shared counter. No more workers start than there are
// chunks.
func (pl *Pool) fanRows(rp *rowPass, srcs []int32, dst [][]float64, chunk, chunks int) {
	j := &pl.job
	j.pass, j.srcs, j.dst = *rp, srcs, dst
	j.chunk, j.chunks = chunk, chunks
	j.next.Store(0)
	workers := min(len(pl.workers), chunks)
	j.wg.Add(workers)
	for _, run := range pl.workers[:workers] {
		go run()
	}
	j.wg.Wait()
	j.pass, j.srcs, j.dst = rowPass{}, nil, nil
}

// rowWorker is one worker's loop of fanRows on evaluator ev.
func (pl *Pool) rowWorker(ev *Evaluator) {
	j := &pl.job
	defer j.wg.Done()
	for {
		c := int(j.next.Add(1)) - 1
		if c >= j.chunks {
			return
		}
		ev.preparePass(&j.pass)
		lo := c * j.chunk
		ev.settleChunk(j.srcs[lo:min(lo+j.chunk, len(j.srcs))], j.dst, j.pass.multi)
	}
}
