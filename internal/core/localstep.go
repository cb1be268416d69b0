package core

import (
	"cmp"
	"math"
	"slices"
)

// LocalMove is one move of the local-search oracle: Drop is the link
// removed and Add the link added, −1 where the move has none (an add
// drops nothing, a drop adds nothing, a swap does both).
type LocalMove struct{ Drop, Add int }

// Apply performs the move on s.
func (m LocalMove) Apply(s *Strategy) {
	if m.Drop >= 0 {
		s.Remove(m.Drop)
	}
	if m.Add >= 0 {
		s.Add(m.Add)
	}
}

// Local-search fan-out sizing. A step's work is its candidate count
// times n (each candidate is one fused pass over n columns). Below
// localFanMinWork the caller scores alone; above it the candidates go
// to the attached pool in chunks of about localChunkWork column visits.
// The crossover table is in PERFORMANCE.md. (Variables only so the
// differential tests can force tiny chunks through small instances.)
var (
	localFanMinWork = 1 << 16
	localChunkWork  = 1 << 14
)

// LocalStep runs one round of the local-search oracle for the batch
// peer i: it scores every single move of cur — for each j ≠ i in
// ascending order, dropping j and then swapping j for each absent k in
// ascending order when j ∈ cur, adding j otherwise — and returns the
// move the running rule "replace the best when Better(best, tol)",
// started from curEval, ends on. improved is false when no move beats
// curEval; the move is then zero and the Eval is curEval.
//
// curEval must be cur's Eval under the batch (as Eval returns it).
// Every move is scored in one fused pass over n columns, from one
// O(|cur|·n) table per call: m1[x], the fold of cur at x, its argmin
// and the second minimum m2[x]. Dropping j leaves the row
// drop_j[x] = (argmin[x] == j ? m2[x] : m1[x]); swapping j for k scores
// min(drop_j, d(i,k)+rest[k]); adding j scores min(m1, d(i,j)+rest[j]).
// min over non-NaN floats is exact and independent of order, so every
// candidate row carries the bits of Eval's fold, and the fused sum keeps
// peerEvalFrom's column order and per-model expressions (a custom model
// gets the row materialized and peerEvalFrom itself): every candidate's
// Eval is bit-identical to Eval on the moved strategy.
//
// Only candidates Better than curEval are kept for the reduction. That
// is exact: Better is transitive (a < fl(b−tol) ≤ b < fl(c−tol)), so
// the running best is curEval or Better than it, and a candidate the
// rule accepts is Better than curEval. It also lets a connected
// incumbent abandon a candidate once its partial key reaches
// curEval's threshold, as the exact search's leaves do. With an attached
// pool and enough work, the candidates fan across the pool in chunks
// and the survivors are reduced in scan order, so the result is the
// same at any width. The step allocates nothing in steady state.
func (b *DeviationBatch) LocalStep(cur Strategy, curEval Eval, tol float64) (move LocalMove, best Eval, improved bool) {
	ev := b.ev
	inst := ev.inst
	n := len(b.d)
	ls := &ev.local
	ls.ensure(n)
	t := &ls.task
	*t = localTask{
		b:       b,
		cur:     cur,
		curEval: curEval,
		tol:     tol,
		m1:      ls.m1[:n],
		m2:      ls.m2[:n],
		arg:     ls.arg[:n],
		off:     ls.off[:n],
		custom:  !ev.builtinMonotoneModel(),
		den:     inst.distRow(b.i),
		alpha:   inst.alpha,
	}
	if inst.modelKind == modelDistance {
		t.den = ls.ones(n)
	}
	t.bounded = !t.custom && curEval.Unreachable == 0
	t.threshold = curEval.Key() - tol

	// The fold table of cur: minimum, its argmin and the runner-up.
	inf := math.Inf(1)
	for x := 0; x < n; x++ {
		t.m1[x], t.m2[x], t.arg[x] = inf, inf, -1
	}
	row := inst.distRow(b.i)
	absent := ls.absent[:0]
	for k := 0; k < n; k++ {
		if k == b.i {
			continue
		}
		if !cur.Contains(k) {
			absent = append(absent, int32(k))
			continue
		}
		t.deg++
		rk, wk := b.rest[k], row[k]
		m1, m2, arg := t.m1, t.m2, t.arg
		for x := 0; x < n; x++ {
			v := wk + rk[x]
			if v < m1[x] {
				m2[x], m1[x], arg[x] = m1[x], v, int32(k)
			} else if v < m2[x] {
				m2[x] = v
			}
		}
	}
	ls.absent = absent
	t.absent = absent

	// off[p] is the index of the first candidate of scan position p (the
	// p-th peer other than i): a present j has its drop and one swap per
	// absent peer, an absent j its add.
	t.off[0] = 0
	for p := 0; p < n-1; p++ {
		span := 1
		if cur.Contains(t.peerAt(p)) {
			span += len(absent)
		}
		t.off[p+1] = t.off[p] + span
	}
	total := t.off[n-1]

	ls.surv = ls.surv[:0]
	if pl := ev.pool; pl != nil && pl.Workers() > 1 && total*n >= localFanMinWork {
		t.chunk = max(1, localChunkWork/n)
		for _, h := range pl.helpers {
			h.local.surv = h.local.surv[:0]
		}
		pl.fan(ev, t, (total+t.chunk-1)/t.chunk)
		for _, h := range pl.helpers {
			ls.surv = append(ls.surv, h.local.surv...)
		}
		slices.SortFunc(ls.surv, func(a, b localCand) int { return cmp.Compare(a.idx, b.idx) })
		// Any one helper may score every survivor of a repeat of this
		// step: size each list for that now, so the repeat allocates
		// nothing.
		for _, h := range pl.helpers {
			if cap(h.local.surv) < len(ls.surv) {
				h.local.surv = make([]localCand, 0, len(ls.surv))
			}
		}
	} else {
		t.score(ls, 0, total)
	}

	best, bestIdx := curEval, -1
	for _, c := range ls.surv {
		if c.e.Better(best, tol) {
			best, bestIdx = c.e, c.idx
		}
	}
	if bestIdx >= 0 {
		move, improved = t.moveAt(bestIdx), true
	}
	*t = localTask{}
	return move, best, improved
}

// localCand is a scored candidate kept for the reduction: its index in
// scan order and its Eval.
type localCand struct {
	idx int
	e   Eval
}

// localScratch is an evaluator's LocalStep arena. The calling
// evaluator's holds the step's shared tables (task, m1, m2, arg, absent,
// off); every evaluator that scores candidates — the caller or a pool
// helper — uses its own drop row, custom-model row and survivor list.
type localScratch struct {
	task    localTask
	m1, m2  []float64
	arg     []int32
	absent  []int32
	off     []int
	drop    []float64
	dropFor int
	row     []float64
	inf     []float64
	one     []float64
	surv    []localCand
}

// ensure sizes the arena for n peers.
func (ls *localScratch) ensure(n int) {
	if cap(ls.m1) >= n {
		return
	}
	ls.m1 = make([]float64, n)
	ls.m2 = make([]float64, n)
	ls.arg = make([]int32, n)
	ls.absent = make([]int32, 0, n)
	ls.off = make([]int, n)
	ls.drop = make([]float64, n)
	ls.row = make([]float64, n)
	ls.inf = make([]float64, n)
	for x := range ls.inf {
		ls.inf[x] = math.Inf(1)
	}
	ls.one = nil
}

// ones returns n ones: the distance model's divisor row (v/1 == v
// exactly, +Inf included), so both built-in models share one loop
// without a per-column branch.
func (ls *localScratch) ones(n int) []float64 {
	if len(ls.one) < n {
		ls.one = make([]float64, n)
		for x := range ls.one {
			ls.one[x] = 1
		}
	}
	return ls.one[:n]
}

// localTask is one LocalStep call's shared, read-only state while its
// candidates are scored.
type localTask struct {
	b         *DeviationBatch
	cur       Strategy
	curEval   Eval
	tol       float64
	threshold float64 // curEval.Key() − tol
	bounded   bool    // candidates may abandon at threshold
	custom    bool    // custom cost model: materialize + peerEvalFrom
	den       []float64
	alpha     float64
	deg       int
	m1, m2    []float64
	arg       []int32
	absent    []int32
	off       []int
	chunk     int
}

func (t *localTask) prepare(ev *Evaluator) { ev.local.ensure(len(t.m1)) }

func (t *localTask) runChunk(ev *Evaluator, c int) {
	lo := c * t.chunk
	t.score(&ev.local, lo, min(lo+t.chunk, t.off[len(t.off)-1]))
}

// peerAt returns the peer at scan position p: the p-th peer other than i.
func (t *localTask) peerAt(p int) int {
	if p >= t.b.i {
		return p + 1
	}
	return p
}

// positionOf returns the scan position p holding candidate idx, the
// largest p with off[p] ≤ idx.
func (t *localTask) positionOf(idx int) int {
	lo, hi := 0, len(t.off)-1
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; t.off[mid] <= idx {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// moveAt returns the move of candidate idx.
func (t *localTask) moveAt(idx int) LocalMove {
	p := t.positionOf(idx)
	j := t.peerAt(p)
	switch q := idx - t.off[p]; {
	case !t.cur.Contains(j):
		return LocalMove{Drop: -1, Add: j}
	case q == 0:
		return LocalMove{Drop: j, Add: -1}
	default:
		return LocalMove{Drop: j, Add: int(t.absent[q-1])}
	}
}

// score scores candidates [lo, hi) on worker scratch ws, keeping the
// ones Better than curEval.
func (t *localTask) score(ws *localScratch, lo, hi int) {
	rest := t.b.rest
	row := t.b.ev.inst.distRow(t.b.i)
	n := len(t.m1)
	ws.dropFor = -1
	for idx, p := lo, t.positionOf(lo); idx < hi; p++ {
		j := t.peerAt(p)
		if !t.cur.Contains(j) {
			t.try(ws, idx, t.m1, row[j], rest[j], t.deg+1)
			idx++
			continue
		}
		if ws.dropFor != j {
			drop := ws.drop[:n]
			for x, a := range t.arg {
				if int(a) == j {
					drop[x] = t.m2[x]
				} else {
					drop[x] = t.m1[x]
				}
			}
			ws.dropFor = j
		}
		for end := min(hi, t.off[p+1]); idx < end; idx++ {
			if q := idx - t.off[p]; q == 0 {
				t.try(ws, idx, ws.drop[:n], 0, ws.inf[:n], t.deg-1)
			} else {
				k := t.absent[q-1]
				t.try(ws, idx, ws.drop[:n], row[k], rest[k], t.deg)
			}
		}
	}
}

// try scores the candidate whose deviation row is min(base, wk+rk) with
// degree links, and keeps it in ws.surv when it is Better than curEval.
func (t *localTask) try(ws *localScratch, idx int, base []float64, wk float64, rk []float64, degree int) {
	i := t.b.i
	e := Eval{Cost: Cost{Link: t.alpha * float64(degree)}}
	switch {
	case t.custom:
		d := ws.row[:len(base)]
		for x, v := range base {
			if w := wk + rk[x]; w < v {
				v = w
			}
			d[x] = v
		}
		e = t.b.ev.peerEvalFrom(d, i, degree)
		if !e.Better(t.curEval, t.tol) {
			return
		}
	case t.bounded:
		// A connected incumbent: a survivor reaches every peer, and
		// +Inf terms trip the threshold exit, so no separate unreachable
		// count is needed (see exactSearch.leaf); Term and FiniteTerm
		// then take the same additions, so one accumulator serves both.
		rk, den := rk[:len(base)], t.den[:len(base)]
		link, threshold, sum := e.Cost.Link, t.threshold, 0.0
		for x, v := range base {
			if x == i {
				continue
			}
			if w := wk + rk[x]; w < v {
				v = w
			}
			sum += v / den[x]
			if link+sum >= threshold {
				return
			}
		}
		e.Cost.Term, e.FiniteTerm = sum, sum
	default:
		rk, den := rk[:len(base)], t.den[:len(base)]
		for x, v := range base {
			if x == i {
				continue
			}
			if w := wk + rk[x]; w < v {
				v = w
			}
			tt := v / den[x]
			e.Cost.Term += tt
			if math.IsInf(tt, 1) {
				e.Unreachable++
			} else {
				e.FiniteTerm += tt
			}
		}
		if !e.Better(t.curEval, t.tol) {
			return
		}
	}
	ws.surv = append(ws.surv, localCand{idx: idx, e: e})
}
