package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool fans all-pairs evaluations (social cost, term matrices, max
// stretch, connectivity) out across a fixed set of per-goroutine
// evaluator clones. Each worker prepares its own adjacency for the
// profile and claims sources from a shared counter; per-source results
// land in slices indexed by source and are reduced in index order, so
// every result is bit-identical to the sequential Evaluator methods.
//
// A Pool is safe for use from one goroutine at a time (like an
// Evaluator); the concurrency is internal. The profile must not be
// mutated while a Pool method runs.
type Pool struct {
	evs []*Evaluator
	// rest and restWorkers back fanRestRows: the job state, and one
	// pre-built closure per evaluator so starting a worker allocates no
	// closure.
	rest        restJob
	restWorkers []func()
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
	pl := &Pool{evs: make([]*Evaluator, workers), restWorkers: make([]func(), workers)}
	for i := range pl.evs {
		ev := NewEvaluator(inst)
		pl.evs[i] = ev
		pl.restWorkers[i] = func() { pl.restWorker(ev) }
	}
	return pl
}

// Workers returns the pool's concurrency width.
func (pl *Pool) Workers() int { return len(pl.evs) }

// Instance returns the bound instance.
func (pl *Pool) Instance() *Instance { return pl.evs[0].inst }

// forEachSource runs fn for every source peer, fanning across the
// workers. fn receives the worker's evaluator (with the profile already
// prepared) and the SSSP distances from src, which it must not retain.
// A non-nil stop is polled before each source; once it returns true the
// remaining sources are skipped (early exit for short-circuit queries).
func (pl *Pool) forEachSource(p Profile, stop func() bool, fn func(ev *Evaluator, src int, d []float64)) {
	n := pl.Instance().N()
	if len(pl.evs) == 1 {
		ev := pl.evs[0]
		ev.prepare(p, -1, Strategy{})
		for i := 0; i < n; i++ {
			if stop != nil && stop() {
				return
			}
			fn(ev, i, ev.ssspFrom(i))
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, ev := range pl.evs {
		wg.Add(1)
		go func(ev *Evaluator) {
			defer wg.Done()
			prepared := false
			for {
				if stop != nil && stop() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if !prepared {
					ev.prepare(p, -1, Strategy{})
					prepared = true
				}
				fn(ev, i, ev.ssspFrom(i))
			}
		}(ev)
	}
	wg.Wait()
}

// restJob is the in-flight fan-out of Evaluator.settleRestRows. It
// lives in the pool, and the workers start through closures built once
// by NewPool, so a fan-out allocates nothing in steady state.
type restJob struct {
	p      Profile
	skip   int
	srcs   []int32
	dst    [][]float64
	multi  bool
	chunk  int
	chunks int
	next   atomic.Int64
	wg     sync.WaitGroup
}

// fanRestRows settles the rest rows of srcs into dst across the pool:
// each started worker prepares G−skip once and claims chunks of srcs
// from a shared counter. No more workers start than there are chunks.
func (pl *Pool) fanRestRows(p Profile, skip int, srcs []int32, dst [][]float64, multi bool, chunk, chunks int) {
	j := &pl.rest
	j.p, j.skip, j.srcs, j.dst = p, skip, srcs, dst
	j.multi, j.chunk, j.chunks = multi, chunk, chunks
	j.next.Store(0)
	workers := min(len(pl.restWorkers), chunks)
	j.wg.Add(workers)
	for _, run := range pl.restWorkers[:workers] {
		go run()
	}
	j.wg.Wait()
	j.p, j.srcs, j.dst = Profile{}, nil, nil
}

// restWorker is one worker's loop of fanRestRows on evaluator ev.
func (pl *Pool) restWorker(ev *Evaluator) {
	j := &pl.rest
	defer j.wg.Done()
	prepared := false
	for {
		c := int(j.next.Add(1)) - 1
		if c >= j.chunks {
			return
		}
		if !prepared {
			ev.prepareRest(j.p, j.skip, j.multi)
			prepared = true
		}
		lo := c * j.chunk
		ev.settleChunk(j.srcs[lo:min(lo+j.chunk, len(j.srcs))], j.dst, j.multi)
	}
}

// PeerEvals returns every peer's enriched cost under p, in peer order.
func (pl *Pool) PeerEvals(p Profile) []Eval {
	out := make([]Eval, pl.Instance().N())
	pl.forEachSource(p, nil, func(ev *Evaluator, src int, d []float64) {
		out[src] = ev.peerEvalFrom(d, src, p.OutDegree(src))
	})
	return out
}

// SocialCost returns the decomposed social cost C(G) = α|E| + Σ terms,
// bit-identical to Evaluator.SocialCost (per-source costs are summed in
// source order).
func (pl *Pool) SocialCost(p Profile) Cost {
	total := Cost{}
	for _, e := range pl.PeerEvals(p) {
		total.Link += e.Cost.Link
		total.Term += e.Cost.Term
	}
	return total
}

// MaxTerm returns the largest pairwise term, as Evaluator.MaxTerm.
func (pl *Pool) MaxTerm(p Profile) float64 {
	n := pl.Instance().N()
	perSource := make([]float64, n)
	pl.forEachSource(p, nil, func(ev *Evaluator, src int, d []float64) {
		inst := ev.inst
		maxT := 0.0
		direct := inst.distRow(src)
		for j := 0; j < n; j++ {
			if j == src {
				continue
			}
			if t := inst.model.Term(d[j], direct[j]); t > maxT {
				maxT = t
			}
		}
		perSource[src] = maxT
	})
	maxT := 0.0
	for _, t := range perSource {
		if t > maxT {
			maxT = t
		}
	}
	return maxT
}

// Connected reports whether every peer reaches every other along the
// directed overlay, as Evaluator.Connected.
func (pl *Pool) Connected(p Profile) bool {
	n := pl.Instance().N()
	var disconnected atomic.Bool
	pl.forEachSource(p, disconnected.Load, func(_ *Evaluator, src int, d []float64) {
		for j := 0; j < n; j++ {
			if j != src && math.IsInf(d[j], 1) {
				disconnected.Store(true)
				return
			}
		}
	})
	return !disconnected.Load()
}

// TermMatrix returns the per-pair cost terms, as Evaluator.TermMatrix.
func (pl *Pool) TermMatrix(p Profile) [][]float64 {
	n := pl.Instance().N()
	out := make([][]float64, n)
	pl.forEachSource(p, nil, func(ev *Evaluator, src int, d []float64) {
		inst := ev.inst
		row := make([]float64, n)
		direct := inst.distRow(src)
		for j := 0; j < n; j++ {
			if j != src {
				row[j] = inst.model.Term(d[j], direct[j])
			}
		}
		out[src] = row
	})
	return out
}
