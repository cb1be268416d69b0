package core

import (
	"fmt"
	"math"
	"math/bits"
)

// This file holds the banded distance store and the multi-source bitset
// BFS kernel behind it. The slab world (evaluate.go) materializes all n
// SSSP rows at once; at internet scale that is the O(n²) wall — n=65536
// is a 34 GB matrix. The banded store keeps only B source rows resident
// and streams them to the caller in source order, so social cost and
// the large-n statistics run in O(B·n) memory at any n.
//
// On uniform metrics (kernelBFS) the bands are fed by msbfsChunk, a
// word-parallel BFS over *sources*: where bfsUnitSSSP packs 64
// candidate arcs per word, msbfsChunk packs 64 concurrent sources per
// word — each vertex carries one uint64 mask whose bit s means "source
// s has reached me", and one wave sweep advances all ≤64 BFS trees at
// once over the shared CSR adjacency. Per source the reached level sets
// are exactly the single-source BFS level sets, and distances are
// assigned from the same hopDist left-fold replay table, so every row
// is bit-identical to bfsUnitSSSP — and hence to heap Dijkstra.
//
// Besides the bands, msbfsChunk feeds the streamed single-source evals
// and the deviation-batch rest rows of sparse overlays
// (settleRestRows in deviation.go picks it over the per-source bitset
// BFS by arc count, 64 sources per call).
//
// Determinism conventions (shared with the rest of the core):
//   - rows are produced and folded in global source order 0..n-1, the
//     same left-fold the slab path uses, at every band width;
//   - per-row values replay hopDist[h] (kernelBFS) or the kernel's own
//     fixpoint (other kernels), never a re-derived expression;
//   - therefore SocialCostBanded == SocialCost bit for bit, for any
//     band ≥ 1, any kernel, directed or undirected.

// msScratch is the reusable scratch of msbfsChunk's callers: the
// per-vertex source masks and frontier lists of msbfsChunk plus the
// band row storage. Owned by an Evaluator, so steady-state banded
// evaluation allocates nothing.
type msScratch struct {
	front, next, reached []uint64
	frontier, wave       []int32
	bandBuf              []float64
	bandRows             [][]float64
	srcs                 []int32
	oneRow               [][]float64
	// chunkRows holds the row pointers of one rest-row chunk
	// (settleChunk). It is its own array, not a view of bandRows, which
	// SSSPBands re-slices only when it grows bandBuf.
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

// SSSPBands prepares p once and streams every SSSP row to visit in
// source order 0..n-1 with at most band rows resident, never
// materializing the n×n matrix. On kernelBFS instances the rows are
// produced by the multi-source bitset BFS (64 sources per word) over
// the CSR adjacency — the bitset adjacency slab is skipped too, so the
// whole pass is O(band·n) memory. Other kernels fill bands with their
// single-source SSSP. Rows are valid only inside the visit callback; a
// non-nil error from visit aborts the stream.
func (ev *Evaluator) SSSPBands(p Profile, band int, visit func(src int, d []float64) error) error {
	n := ev.inst.N()
	if band < 1 {
		return fmt.Errorf("core: band width %d, want ≥ 1", band)
	}
	if band > n {
		band = n
	}
	ev.prepareWith(p, -1, Strategy{}, false)
	useMS := ev.inst.kernel == kernelBFS
	if useMS {
		ev.ms.ensure(n)
	}
	if cap(ev.ms.bandBuf) < band*n {
		ev.ms.bandBuf = make([]float64, band*n)
		ev.ms.bandRows = make([][]float64, band)
	}
	buf := ev.ms.bandBuf[:band*n]
	rows := ev.ms.bandRows[:band]
	for r := 0; r < band; r++ {
		rows[r] = buf[r*n : (r+1)*n]
	}
	for lo := 0; lo < n; lo += band {
		hi := min(lo+band, n)
		if useMS {
			// Fill the band in word-sized chunks: ≤64 sources share one
			// mask word per vertex.
			for cs := lo; cs < hi; cs += 64 {
				ce := min(cs+64, hi)
				srcs := ev.ms.srcs[:0]
				for s := cs; s < ce; s++ {
					srcs = append(srcs, int32(s))
				}
				ev.ms.srcs = srcs
				msbfsChunk(rows[cs-lo:ce-lo], srcs, ev.inst.hopDist, &ev.fwd, &ev.rev, ev.inst.undirected, &ev.ms)
			}
		} else {
			for s := lo; s < hi; s++ {
				copy(rows[s-lo], ev.ssspFrom(s))
			}
		}
		for s := lo; s < hi; s++ {
			if err := visit(s, rows[s-lo]); err != nil {
				return err
			}
		}
	}
	return nil
}

// SocialCostBanded computes SocialCost with at most band SSSP rows
// resident, bit-identical to the slab path at every band width: the
// rows carry the same kernel-computed values and the fold runs in the
// same source order, so the float64 left-fold is the same sequence of
// additions. This is the social-cost entry point past the O(n²) wall —
// at n = 65536 with band 64 it touches ~34 MB where the slab needs
// 34 GB.
func (ev *Evaluator) SocialCostBanded(p Profile, band int) (Cost, error) {
	total := Cost{}
	err := ev.SSSPBands(p, band, func(src int, d []float64) error {
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

// ssspStreamed computes the single-source distances from src without
// the bitset adjacency slab: kernelBFS instances run a one-source
// msbfsChunk over the CSR (bit-identical to bfsUnitSSSP), everything
// else uses its regular kernel. The result shares ev.d and stays valid
// until the next SSSP or prepare call.
func (ev *Evaluator) ssspStreamed(p Profile, src, override int, alt Strategy) []float64 {
	ev.prepareWith(p, override, alt, false)
	if ev.inst.kernel != kernelBFS {
		return ev.ssspFrom(src)
	}
	ev.ms.ensure(ev.inst.N())
	if ev.ms.oneRow == nil {
		ev.ms.oneRow = make([][]float64, 1)
		ev.ms.srcs = make([]int32, 0, 64)
	}
	ev.ms.oneRow[0] = ev.d
	srcs := append(ev.ms.srcs[:0], int32(src))
	ev.ms.srcs = srcs
	msbfsChunk(ev.ms.oneRow, srcs, ev.inst.hopDist, &ev.fwd, &ev.rev, ev.inst.undirected, &ev.ms)
	return ev.d
}

// PeerEvalStreamed is PeerEval without the O(n·⌈n/64⌉)-word bitset
// adjacency slab: identical bits, O(n) memory, the per-peer evaluation
// primitive for best-response steps at internet scale.
func (ev *Evaluator) PeerEvalStreamed(p Profile, i int) Eval {
	d := ev.ssspStreamed(p, i, -1, Strategy{})
	return ev.peerEvalFrom(d, i, p.OutDegree(i))
}

// DeviationEvalStreamed is DeviationEval without the bitset adjacency
// slab: peer i's enriched cost if it unilaterally switches to alt,
// identical bits, O(n) memory.
func (ev *Evaluator) DeviationEvalStreamed(p Profile, i int, alt Strategy) Eval {
	d := ev.ssspStreamed(p, i, i, alt)
	return ev.peerEvalFrom(d, i, alt.Count())
}
