package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// coresBusy counts the taken slots of the process-wide core budget:
// GOMAXPROCS slots shared by every fan-out that sizes itself to the
// machine (budgeted pools, the scenario engine's point and experiment
// workers). A budgeted fan-out starts a helper only for a slot it takes
// without blocking, so concurrent callers share the cores instead of
// multiplying goroutines, and cores a finished caller leaves idle go to
// the ones still running.
var coresBusy atomic.Int64

// TryAcquireCore takes one slot of the core budget if one is free,
// without blocking, and reports whether it did. A true return must be
// paired with one ReleaseCore.
func TryAcquireCore() bool {
	limit := int64(runtime.GOMAXPROCS(0))
	for {
		busy := coresBusy.Load()
		if busy >= limit {
			return false
		}
		if coresBusy.CompareAndSwap(busy, busy+1) {
			return true
		}
	}
}

// ReleaseCore returns a slot taken by TryAcquireCore.
func ReleaseCore() { coresBusy.Add(-1) }

// Pool is a fixed set of evaluator clones that an Evaluator fans its
// chunked work across once attached (AttachPool): the row settles of
// the all-pairs folds, the estimators and the deviation-batch rest rows,
// and the move scoring of DeviationBatch.LocalStep. The chunks are
// claimed from a shared counter by the calling evaluator and the
// helpers alike, and every result lands in a slot indexed by its chunk
// (or source), so results are bit-identical to the unpooled evaluator
// at any width.
//
// A Pool serves one fan-out at a time (like an Evaluator); the
// concurrency is internal. The profile must not be mutated while a
// fan-out runs.
type Pool struct {
	// width is the fan-out concurrency, the caller included: width−1
	// helper clones.
	width int
	// budgeted pools (NewPool with workers ≤ 0) start a helper only for
	// a core slot taken without blocking; explicit widths start all of
	// theirs.
	budgeted bool
	helpers  []*Evaluator
	// job and run back fan: the job state, and one pre-built closure per
	// helper so starting a helper allocates no closure.
	job fanJob
	run []func()
	// rows is the task of the row-settle fan-out (settlePass).
	rows rowTask
}

// NewPool creates a pool of fan-out width `workers` over the instance.
// workers <= 0 selects runtime.GOMAXPROCS(0) under the process-wide
// core budget: a fan-out then starts only the helpers it finds free
// core slots for. An explicit width starts every helper regardless.
func NewPool(inst *Instance, workers int) *Pool {
	budgeted := workers <= 0
	if budgeted {
		workers = runtime.GOMAXPROCS(0)
	}
	if n := inst.N(); workers > n {
		workers = n
	}
	pl := &Pool{width: workers, budgeted: budgeted}
	for range workers - 1 {
		ev := NewEvaluator(inst)
		pl.helpers = append(pl.helpers, ev)
		pl.run = append(pl.run, func() { pl.helper(ev) })
	}
	return pl
}

// Workers returns the pool's concurrency width.
func (pl *Pool) Workers() int { return pl.width }

// fanTask is one kind of chunked pool work: prepare sizes evaluator
// ev's scratch for any chunk of the task, and runChunk does chunk c on
// ev (the caller's or a helper's).
type fanTask interface {
	prepare(ev *Evaluator)
	runChunk(ev *Evaluator, c int)
}

// fanJob is the in-flight fan-out. It lives in the pool, so a fan-out
// allocates nothing in steady state.
type fanJob struct {
	task   fanTask
	chunks int
	next   atomic.Int64
	wg     sync.WaitGroup
}

// fan runs chunks [0, chunks) of t across the caller's evaluator and
// the pool's helpers, each claiming chunks from a shared counter. The
// caller works its own share and then waits for its helpers in a defer,
// so a panic in the caller's share never leaves helpers running on a
// pool that gets reused. No more helpers start than there are chunks
// beyond the caller's first.
//
// Which evaluator claims which chunk varies from call to call, so
// every started evaluator prepares for the task before it claims
// (whether or not a chunk is left for it), and the drain levels the
// scratch that grows with the source settled (see levelScratch). A
// repeat of a fan-out then allocates nothing on any evaluator.
func (pl *Pool) fan(caller *Evaluator, t fanTask, chunks int) {
	j := &pl.job
	j.task, j.chunks = t, chunks
	j.next.Store(0)
	defer pl.drain(caller)
	for _, run := range pl.run[:min(len(pl.run), chunks-1)] {
		if pl.budgeted && !TryAcquireCore() {
			break
		}
		j.wg.Add(1)
		go run()
	}
	pl.work(caller)
}

// drain stops further claims (a no-op after a normal return, where
// every chunk is claimed), waits for the helpers and levels their
// scratch with the caller's.
func (pl *Pool) drain(caller *Evaluator) {
	j := &pl.job
	j.next.Store(int64(j.chunks))
	j.wg.Wait()
	j.task = nil
	for _, h := range pl.helpers {
		caller.levelScratch(h)
	}
	for _, h := range pl.helpers {
		h.levelScratch(caller)
	}
}

// levelScratch grows ev's per-source SSSP scratch — the Dial buckets,
// whose peak lengths depend on the source — to at least o's capacities.
// Leveling every evaluator of a fan-out to the largest makes each one
// fit any source the fan-out settled, whichever evaluator claims it
// next time.
func (ev *Evaluator) levelScratch(o *Evaluator) {
	if len(ev.dial.buckets) < len(o.dial.buckets) {
		ev.dial.ensure(len(o.dial.buckets) - 1)
	}
	for b, ob := range o.dial.buckets {
		if cap(ev.dial.buckets[b]) < cap(ob) {
			ev.dial.buckets[b] = make([]int32, 0, cap(ob))
		}
	}
}

// helper is one helper's run of the current fan-out on evaluator ev. A
// budgeted helper returns its core slot on exit, before it signals the
// caller.
func (pl *Pool) helper(ev *Evaluator) {
	defer pl.job.wg.Done()
	if pl.budgeted {
		defer ReleaseCore()
	}
	pl.work(ev)
}

// work prepares ev for the current fan-out, then claims and runs its
// chunks until none is left.
func (pl *Pool) work(ev *Evaluator) {
	j := &pl.job
	j.task.prepare(ev)
	for {
		c := int(j.next.Add(1)) - 1
		if c >= j.chunks {
			return
		}
		j.task.runChunk(ev, c)
	}
}

// rowTask is the row-settle fan-out of Evaluator.settlePass: each
// evaluator prepares the pass's graph once and settles its claimed
// chunks of srcs into dst.
type rowTask struct {
	pass  rowPass
	srcs  []int32
	dst   [][]float64
	chunk int
}

func (t *rowTask) prepare(ev *Evaluator) { ev.preparePass(&t.pass) }

func (t *rowTask) runChunk(ev *Evaluator, c int) {
	lo := c * t.chunk
	ev.settleChunk(t.srcs[lo:min(lo+t.chunk, len(t.srcs))], t.dst, t.pass.multi)
}

// fanRows settles the rows of srcs into dst across the caller and the
// pool.
func (pl *Pool) fanRows(caller *Evaluator, rp *rowPass, srcs []int32, dst [][]float64, chunk, chunks int) {
	t := &pl.rows
	t.pass, t.srcs, t.dst, t.chunk = *rp, srcs, dst, chunk
	pl.fan(caller, t, chunks)
	*t = rowTask{}
}
