package core

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// This file holds the one row-settle path of the core and the passes
// built on it. settleRows fills SSSP rows for any source list over any
// (possibly overridden) profile; every multi-row SSSP in the package —
// the all-pairs folds, the sampled estimators, the streamed
// single-source evals and the deviation-batch rest rows — goes through
// it, so the kernel choice and the pool fan-out live in one place.
//
// On uniform metrics (kernelBFS) over sparse graphs the rows come from
// msbfsChunk, a word-parallel BFS over *sources*: where bfsUnitSSSP
// packs 64 candidate arcs per word, msbfsChunk packs 64 concurrent
// sources per word — each vertex carries one uint64 mask whose bit s
// means "source s has reached me", and one wave sweep advances all ≤64
// BFS trees at once over the shared CSR adjacency. Per source the
// reached level sets are exactly the single-source BFS level sets, and
// distances are assigned from the same hopDist left-fold replay table,
// so every row is bit-identical to bfsUnitSSSP — and hence to heap
// Dijkstra. Dense graphs and the other kernels settle one source at a
// time.
//
// The banded store (ssspBands) keeps only B source rows resident and
// streams them to a fold in source order, so social cost and the
// large-n statistics never materialize the n×n matrix.
//
// Determinism conventions (shared with the rest of the core):
//   - every row lands in the slot indexed by its source, whichever
//     kernel or pool worker settled it;
//   - folds read rows in the given source order, the same left-fold at
//     every band width and pool width;
//   - per-row values replay hopDist[h] (kernelBFS) or the kernel's own
//     fixpoint (other kernels), never a re-derived expression;
//   - therefore SocialCostBanded == SocialCost bit for bit, for any
//     band ≥ 1, any kernel, directed or undirected.

// msScratch is the reusable row-pass scratch of an Evaluator: the
// per-vertex source masks and frontier lists of msbfsChunk plus the
// band row storage, so steady-state passes allocate nothing.
type msScratch struct {
	front, next, reached []uint64
	frontier, wave       []int32
	// bandBuf backs the band rows; rowOf maps a source to its row (the
	// dst of ssspBands and ssspStreamed); srcs is their source list.
	bandBuf []float64
	rowOf   [][]float64
	srcs    []int32
	// chunkRows holds the row pointers of one msbfsChunk call, in chunk
	// order (settleChunk).
	chunkRows [64][]float64
}

// ensure sizes the per-vertex scratch for n peers. front, next and
// reached are returned all-zero only on first allocation; msbfsChunk
// re-zeroes what it used, preserving the all-zero invariant between
// calls.
func (st *msScratch) ensure(n int) {
	if len(st.front) < n {
		st.front = make([]uint64, n)
		st.next = make([]uint64, n)
		st.reached = make([]uint64, n)
		st.frontier = make([]int32, 0, n)
		st.wave = make([]int32, 0, n)
	}
}

// msbfsChunk runs the word-parallel multi-source unit-weight BFS for
// the ≤64 sources srcs over the prepared CSR adjacency, writing the
// full distance row of srcs[s] into rows[s]. fwd holds the strategy
// arcs; rev (consulted when undirected) is the maintained reverse
// index, the same arc set bfsUnitSSSP pre-ORs into its bitset rows.
// hopDist is the instance's IEEE left-fold replay table, so row values
// are bit-identical to the single-source kernels. st.front/next/reached
// must be all-zero on entry (ensure + the re-zeroing on exit keep that
// invariant).
func msbfsChunk(rows [][]float64, srcs []int32, hopDist []float64, fwd, rev *csr, undirected bool, st *msScratch) {
	front, next, reached := st.front, st.next, st.reached
	inf := math.Inf(1)
	for s, src := range srcs {
		row := rows[s]
		for v := range row {
			row[v] = inf
		}
		row[src] = 0
	}
	frontier := st.frontier[:0]
	for s, src := range srcs {
		bit := uint64(1) << uint(s)
		if reached[src] == 0 {
			frontier = append(frontier, src)
		}
		front[src] |= bit
		reached[src] |= bit
	}
	wave := st.wave[:0]
	for hop := 1; len(frontier) > 0; hop++ {
		hd := hopDist[hop]
		wave = wave[:0]
		// Advance every source tree one level: each arc u→v carries the
		// whole 64-source mask in one OR, minus the sources that already
		// reached v.
		for _, u := range frontier {
			fu := front[u]
			for k := fwd.head[u]; k < fwd.head[u+1]; k++ {
				v := fwd.to[k]
				if nw := fu &^ reached[v]; nw != 0 {
					if next[v] == 0 {
						wave = append(wave, v)
					}
					next[v] |= nw
				}
			}
			if undirected {
				for k := rev.head[u]; k < rev.head[u+1]; k++ {
					v := rev.to[k]
					if nw := fu &^ reached[v]; nw != 0 {
						if next[v] == 0 {
							wave = append(wave, v)
						}
						next[v] |= nw
					}
				}
			}
		}
		// Commit the wave: clear the old frontier's masks, then assign the
		// hop-h distance to each newly reached (source, vertex) pair. The
		// clear runs first so a vertex in both waves keeps its new mask.
		for _, u := range frontier {
			front[u] = 0
		}
		for _, v := range wave {
			nw := next[v] &^ reached[v]
			next[v] = 0
			reached[v] |= nw
			front[v] = nw
			for m := nw; m != 0; m &= m - 1 {
				rows[bits.TrailingZeros64(m)][v] = hd
			}
		}
		frontier, wave = wave, frontier
	}
	// Restore the all-zero invariant for the next chunk: front and next
	// are already zero (cleared per wave), reached is not. The final
	// frontier is empty, so its masks were never set.
	for i := range reached {
		reached[i] = 0
	}
	st.frontier, st.wave = frontier[:0], wave[:0]
}

// multiSourceRows reports whether the rows of a kernelBFS instance with
// n peers and m prepared arcs settle 64 sources per word (msbfsChunk
// over the CSR) instead of one bitset BFS per source. A multi-source
// wave costs O(n+m) word operations per level for 64 sources, a bitset
// sweep O(n·⌈n/64⌉) per source, so the multi-source kernel wins on
// sparse graphs and loses on dense ones; the crossover table behind the
// constant is in PERFORMANCE.md.
func multiSourceRows(n, m int) bool { return 20*m <= n*n }

// rowPass is one row-settle pass: the graph (p with peer override's
// strategy replaced by alt; override = −1 leaves p as is) and the
// kernel its rows settle on. Every evaluator that settles rows of the
// pass — the caller, or each pool worker — prepares the graph once per
// pass, keyed by epoch.
type rowPass struct {
	p        Profile
	override int
	alt      Strategy
	multi    bool
	epoch    uint64
}

// passEpochs numbers row passes process-wide, so an evaluator can tell
// whether its prepared adjacency already belongs to a pass.
var passEpochs atomic.Uint64

// newRowPass opens a pass over p with the override applied, choosing
// the kernel by the one measured rule (multiSourceRows).
func (ev *Evaluator) newRowPass(p Profile, override int, alt Strategy) rowPass {
	m := p.LinkCount()
	if override >= 0 {
		m += alt.Count() - p.OutDegree(override)
	}
	return rowPass{
		p: p, override: override, alt: alt,
		multi: ev.inst.kernel == kernelBFS && multiSourceRows(ev.inst.N(), m),
		epoch: passEpochs.Add(1),
	}
}

// preparePass builds the pass's adjacency on ev unless ev already holds
// it: the CSR only when multi (msbfsChunk never reads the bitset slab),
// the full per-kernel adjacency otherwise.
func (ev *Evaluator) preparePass(rp *rowPass) {
	if ev.passEpoch == rp.epoch {
		return
	}
	ev.prepareWith(rp.p, rp.override, rp.alt, !rp.multi)
	if rp.multi {
		ev.ms.ensure(ev.inst.N())
	}
	ev.passEpoch = rp.epoch
}

// settleRows is the one row-settle path: it fills dst[k], for every k
// in srcs, with the SSSP row from k over p with peer override's
// strategy replaced by alt (override = −1: p itself; (skip,
// Strategy{}): the rest rows of G−skip).
func (ev *Evaluator) settleRows(p Profile, override int, alt Strategy, srcs []int32, dst [][]float64) {
	rp := ev.newRowPass(p, override, alt)
	ev.settlePass(&rp, srcs, dst)
}

// settlePass settles the rows of srcs into dst within pass rp. On the
// multi-source kernel the sources go 64 per msbfsChunk call and the
// bitset adjacency slab is never built; dense graphs and the heap/dial
// kernels run their per-source kernel. With an attached pool of width
// ≥ 2 the chunks (64 sources, or one on the per-source kernels) fan
// across ev and the pool's helper clones. Every row lands in the slot
// indexed by its source and carries the same bits on either kernel, so
// dst is byte-identical at any pool width.
func (ev *Evaluator) settlePass(rp *rowPass, srcs []int32, dst [][]float64) {
	chunk := 1
	if rp.multi {
		chunk = 64
	}
	chunks := (len(srcs) + chunk - 1) / chunk
	if pl := ev.pool; pl != nil && pl.Workers() > 1 && chunks > 1 {
		pl.fanRows(ev, rp, srcs, dst, chunk, chunks)
		return
	}
	ev.preparePass(rp)
	for lo := 0; lo < len(srcs); lo += chunk {
		ev.settleChunk(srcs[lo:min(lo+chunk, len(srcs))], dst, rp.multi)
	}
}

// settleChunk writes the rows of srcs into dst over the adjacency the
// last preparePass built: one msbfsChunk call for ≤ 64 sources when
// multi, one per-source SSSP each otherwise.
func (ev *Evaluator) settleChunk(srcs []int32, dst [][]float64, multi bool) {
	if !multi {
		for _, k := range srcs {
			ev.ssspFrom(dst[k], int(k))
		}
		return
	}
	rows := ev.ms.chunkRows[:len(srcs)]
	for s, k := range srcs {
		rows[s] = dst[k]
	}
	msbfsChunk(rows, srcs, ev.inst.hopDist, &ev.fwd, &ev.rev, ev.inst.undirected, &ev.ms)
	clear(rows) // hold no row of dst past the call
}

// ssspBands streams the SSSP rows over p of the distinct sources srcs
// (nil: every peer 0..n−1) to visit, in the given order, with at most
// band rows resident. Every band settles through settlePass within one
// pass, so each evaluator prepares p once and an attached pool fans the
// band's chunks out. The multi-source kernel skips the bitset adjacency
// slab, so a sparse pass is O(band·n + m) memory; a dense uniform-metric
// pass adds the n²/8-byte slab, which its ≈12·m-byte CSR already
// exceeds. Rows are valid only inside visit; a non-nil error from visit
// aborts the stream and is returned.
func (ev *Evaluator) ssspBands(p Profile, srcs []int32, band int, visit func(src int, d []float64) error) error {
	n := ev.inst.N()
	if band < 1 {
		return fmt.Errorf("core: band width %d, want ≥ 1", band)
	}
	count := n
	if srcs != nil {
		count = len(srcs)
	}
	band = min(band, count)
	if cap(ev.ms.bandBuf) < band*n {
		ev.ms.bandBuf = make([]float64, band*n)
	}
	if len(ev.ms.rowOf) < n {
		ev.ms.rowOf = make([][]float64, n)
	}
	buf, rows := ev.ms.bandBuf, ev.ms.rowOf
	rp := ev.newRowPass(p, -1, Strategy{})
	for lo := 0; lo < count; lo += band {
		chunk := ev.ms.srcs[:0]
		for s := lo; s < min(lo+band, count); s++ {
			src := int32(s)
			if srcs != nil {
				src = srcs[s]
			}
			r := s - lo
			rows[src] = buf[r*n : (r+1)*n]
			chunk = append(chunk, src)
		}
		ev.ms.srcs = chunk
		ev.settlePass(&rp, chunk, rows)
		for _, src := range chunk {
			if err := visit(int(src), rows[src]); err != nil {
				return err
			}
		}
	}
	return nil
}

// SocialCostBanded computes SocialCost with at most band SSSP rows
// resident, bit-identical to SocialCost at every band width: the rows
// carry the same kernel-computed values and the fold runs in source
// order, so the float64 left-fold is the same sequence of additions.
// This is the social-cost entry point past the O(n²) wall — at n =
// 65536 with band 64 it touches ~34 MB where the matrix needs 34 GB.
func (ev *Evaluator) SocialCostBanded(p Profile, band int) (Cost, error) {
	total := Cost{}
	err := ev.ssspBands(p, nil, band, func(src int, d []float64) error {
		c := ev.peerEvalFrom(d, src, p.OutDegree(src)).Cost
		total.Link += c.Link
		total.Term += c.Term
		return nil
	})
	if err != nil {
		return Cost{}, err
	}
	return total, nil
}

// ssspStreamed computes the single-source distances from src through
// settleRows: on a sparse kernelBFS graph a one-source msbfsChunk over
// the CSR (bit-identical to bfsUnitSSSP), without the bitset adjacency
// slab. The result shares ev.d and stays valid until the next SSSP or
// prepare call.
func (ev *Evaluator) ssspStreamed(p Profile, src, override int, alt Strategy) []float64 {
	if n := ev.inst.N(); len(ev.ms.rowOf) < n {
		ev.ms.rowOf = make([][]float64, n)
	}
	ev.ms.rowOf[src] = ev.d
	ev.ms.srcs = append(ev.ms.srcs[:0], int32(src))
	ev.settleRows(p, override, alt, ev.ms.srcs, ev.ms.rowOf)
	return ev.d
}

// PeerEvalStreamed is PeerEval without the O(n·⌈n/64⌉)-word bitset
// adjacency slab on sparse graphs: identical bits, O(n + m) memory, the
// per-peer evaluation primitive for best-response steps at internet
// scale.
func (ev *Evaluator) PeerEvalStreamed(p Profile, i int) Eval {
	d := ev.ssspStreamed(p, i, -1, Strategy{})
	return ev.peerEvalFrom(d, i, p.OutDegree(i))
}

// DeviationEvalStreamed is DeviationEval without the bitset adjacency
// slab on sparse graphs: peer i's enriched cost if it unilaterally
// switches to alt, identical bits, O(n + m) memory.
func (ev *Evaluator) DeviationEvalStreamed(p Profile, i int, alt Strategy) Eval {
	d := ev.ssspStreamed(p, i, i, alt)
	return ev.peerEvalFrom(d, i, alt.Count())
}
