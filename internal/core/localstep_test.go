package core

import (
	"fmt"
	"math"
	"testing"

	"selfishnet/internal/metric"
	"selfishnet/internal/rng"
)

// sqrtStretch is a custom (non-built-in) cost model: LocalStep must
// materialize its rows and score them through peerEvalFrom.
type sqrtStretch struct{}

func (sqrtStretch) Term(dG, dDirect float64) float64 { return math.Sqrt(dG / dDirect) }
func (sqrtStretch) LowerBound(float64) float64       { return 1 }
func (sqrtStretch) Name() string                     { return "sqrt-stretch" }

// refLocalRound is the per-candidate reference of one LocalStep round:
// every move of cur scored through b.Eval in the oracle's scan order,
// reduced with the running Better rule. nearTies counts the candidates
// the rule rejected although they were cheaper than the running best
// (by no more than tol).
func refLocalRound(b *DeviationBatch, n int, cur Strategy, curEval Eval, tol float64) (move LocalMove, best Eval, improved bool, nearTies int) {
	i := b.Peer()
	s := cur.Clone()
	best = curEval
	try := func(m LocalMove) {
		m.Apply(&s)
		if e := b.Eval(s); e.Better(best, tol) {
			best, move, improved = e, m, true
		} else if e.Unreachable == best.Unreachable && e.Key() < best.Key() {
			nearTies++
		}
		if m.Add >= 0 {
			s.Remove(m.Add)
		}
		if m.Drop >= 0 {
			s.Add(m.Drop)
		}
	}
	for j := 0; j < n; j++ {
		if j == i {
			continue
		}
		if !cur.Contains(j) {
			try(LocalMove{Drop: -1, Add: j})
			continue
		}
		try(LocalMove{Drop: j, Add: -1})
		for k := 0; k < n; k++ {
			if k != i && !cur.Contains(k) {
				try(LocalMove{Drop: j, Add: k})
			}
		}
	}
	return move, best, improved, nearTies
}

// sameEvalBits reports whether two Evals carry identical bits.
func sameEvalBits(a, b Eval) bool {
	return math.Float64bits(a.Cost.Link) == math.Float64bits(b.Cost.Link) &&
		math.Float64bits(a.Cost.Term) == math.Float64bits(b.Cost.Term) &&
		math.Float64bits(a.FiniteTerm) == math.Float64bits(b.FiniteTerm) &&
		a.Unreachable == b.Unreachable
}

// localStepCase is one instance/profile of the LocalStep differential.
type localStepCase struct {
	name    string
	inst    *Instance
	p       Profile
	tol     float64
	rounds  int // rounds compared (the climb may stop earlier); 0 = all
	wantTie bool
}

// localStepCases covers the kernels (unit/bfs, int/dial, points/heap),
// the cost models (stretch, distance, custom), star, sparse
// disconnected and dense q=0.3 profiles at n ∈ {63, 64, 65, 130}, plus
// near-tie instances where candidates differ by less than the tolerance.
func localStepCases(t *testing.T) []localStepCase {
	r := rng.New(91)
	var cases []localStepCase
	models := []struct {
		name string
		opt  Option
	}{
		{"stretch", WithModel(StretchModel{})},
		{"distance", WithModel(DistanceModel{})},
		{"custom", WithModel(sqrtStretch{})},
	}
	k := 0
	for _, space := range []string{"unit", "int", "points"} {
		for _, m := range models {
			for _, prof := range []string{"star", "sparse", "dense"} {
				n := 63 + k%3
				k++
				inst := buildDiffInstance(t, r, diffCase{n: n, space: space}, m.opt)
				cases = append(cases, localStepCase{
					name: fmt.Sprintf("%s/%s/%s/n%d", space, m.name, prof, n),
					inst: inst, p: localStepProfile(t, r, n, prof), tol: 1e-9, rounds: 6,
				})
			}
		}
	}
	inst := buildDiffInstance(t, r, diffCase{n: 130, space: "unit"})
	for _, prof := range []string{"star", "sparse", "dense"} {
		// The per-candidate reference costs O(|cur|²·n²) a round here.
		cases = append(cases, localStepCase{
			name: "unit/stretch/" + prof + "/n130", inst: inst,
			p: localStepProfile(t, r, 130, prof), tol: 1e-9, rounds: 3,
		})
	}
	// Near ties: peers come in twins 1e-12 apart on a line, so linking
	// either twin costs the same up to far less than the tolerance, and
	// the running rule must keep the first in scan order.
	pos := make([]float64, 64)
	for j := 0; j < len(pos); j += 2 {
		pos[j] = r.Float64()
		pos[j+1] = pos[j] + 1e-12
	}
	line, err := metric.Line(pos)
	if err != nil {
		t.Fatal(err)
	}
	twins, err := NewInstance(line, 0.3, WithModel(DistanceModel{}))
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		localStepCase{name: "twins/distance/empty", inst: twins, p: NewProfile(64), tol: 1e-9, wantTie: true},
		localStepCase{name: "twins/distance/sparse", inst: twins, p: localStepProfile(t, r, 64, "sparse"), tol: 1e-9, wantTie: true},
	)
	// A coarse tolerance on an integer metric makes many candidates tie.
	coarse := buildDiffInstance(t, r, diffCase{n: 65, space: "int"})
	cases = append(cases, localStepCase{name: "int/stretch/dense/tol0.4", inst: coarse, p: localStepProfile(t, r, 65, "dense"), tol: 0.4})
	return cases
}

func localStepProfile(t *testing.T, r *rng.RNG, n int, kind string) Profile {
	switch kind {
	case "star":
		p, err := StarProfile(n)
		if err != nil {
			t.Fatal(err)
		}
		return p
	case "sparse":
		return randomDiffProfile(r, n, 0.01)
	default:
		return randomDiffProfile(r, n, 0.3)
	}
}

// TestLocalStepMatchesPerCandidateScan is the differential test of the
// fused local-search step: at pool widths 1, 2 and 7, with chunks of
// three candidates so chunk boundaries fall inside a peer's swaps, every
// round's move, Eval bits and improved flag must equal the
// per-candidate b.Eval reference, for the first, a middle and the last
// peer, until the climb stops (or for the case's round cap).
func TestLocalStepMatchesPerCandidateScan(t *testing.T) {
	defer func(minWork, chunk int) { localFanMinWork, localChunkWork = minWork, chunk }(localFanMinWork, localChunkWork)
	localFanMinWork = 0
	unreachable, ties := 0, 0
	for _, c := range localStepCases(t) {
		n := c.inst.N()
		localChunkWork = 3 * n
		t.Run(c.name, func(t *testing.T) {
			for _, i := range []int{0, n / 2, n - 1} {
				// The reference trajectory.
				type round struct {
					move     LocalMove
					e        Eval
					improved bool
				}
				ref := NewEvaluator(c.inst)
				rb := ref.NewDeviationBatch(c.p, i)
				if rb == nil {
					t.Fatal("batch unsupported")
				}
				start := c.p.Strategy(i).Clone()
				startEval := rb.Eval(start)
				if startEval.Unreachable > 0 {
					unreachable++
				}
				var rounds []round
				cur, e := start.Clone(), startEval
				for len(rounds) < n*n+n+1 && (c.rounds == 0 || len(rounds) < c.rounds) {
					mv, next, ok, near := refLocalRound(rb, n, cur, e, c.tol)
					if c.wantTie {
						ties += near
					}
					rounds = append(rounds, round{mv, next, ok})
					if !ok {
						break
					}
					mv.Apply(&cur)
					e = next
				}
				for _, w := range []int{1, 2, 7} {
					ev := NewEvaluator(c.inst)
					ev.AttachPool(NewPool(c.inst, w))
					b := ev.NewDeviationBatch(c.p, i)
					cur, e := start.Clone(), b.Eval(start)
					if !sameEvalBits(e, startEval) {
						t.Fatalf("peer %d w%d: start eval %+v, want %+v", i, w, e, startEval)
					}
					refCur := start.Clone()
					for it, want := range rounds {
						mv, next, ok := b.LocalStep(cur, e, c.tol)
						if mv != want.move || ok != want.improved || !sameEvalBits(next, want.e) {
							t.Fatalf("peer %d w%d round %d: (%+v, %+v, %v), want (%+v, %+v, %v)",
								i, w, it, mv, next, ok, want.move, want.e, want.improved)
						}
						if !ok {
							break
						}
						mv.Apply(&cur)
						want.move.Apply(&refCur)
						if !cur.Equal(refCur) || !sameEvalBits(b.Eval(cur), next) {
							t.Fatalf("peer %d w%d round %d: strategy %v (eval %+v), want %v (eval %+v)",
								i, w, it, cur, b.Eval(cur), refCur, next)
						}
						e = next
					}
				}
			}
		})
	}
	if unreachable == 0 {
		t.Error("no case started from a disconnected incumbent")
	}
	if ties == 0 {
		t.Error("no near-tie case rejected a cheaper candidate within the tolerance")
	}
}
