package core

import (
	"math"
	"testing"

	"selfishnet/internal/bitset"
	"selfishnet/internal/metric"
	"selfishnet/internal/rng"
)

// randomActiveMask returns an online mask over n peers: subject is
// always active, every other peer independently with probability q,
// topped up to at least three active peers so the subgame is not
// degenerate.
func randomActiveMask(r *rng.RNG, n, subject int, q float64) []bool {
	active := make([]bool, n)
	active[subject] = true
	count := 1
	for j := 0; j < n; j++ {
		if j != subject && r.Bool(q) {
			active[j] = true
			count++
		}
	}
	for j := 0; count < 3 && j < n; j++ {
		if !active[j] {
			active[j] = true
			count++
		}
	}
	return active
}

// maskProfile restricts p to the active set in place: inactive peers
// lose their strategies and active peers drop links to inactive
// targets — the churn engine's live-profile invariant.
func maskProfile(t *testing.T, p *Profile, active []bool) {
	t.Helper()
	n := p.N()
	for i := 0; i < n; i++ {
		if !active[i] {
			if err := p.SetStrategy(i, bitset.New(n)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		s := p.Strategy(i).Clone()
		for j := 0; j < n; j++ {
			if !active[j] {
				s.Remove(j)
			}
		}
		if err := p.SetStrategy(i, s); err != nil {
			t.Fatal(err)
		}
	}
}

// allTrue returns the everyone-online mask.
func allTrue(n int) []bool {
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	return active
}

// maskedEvalRef is the reference masked accumulation: peer i's Eval
// from its distance row d with the terms of inactive partners skipped
// outright, so Unreachable counts active peers only. Arithmetic per
// included pair is peerEvalFrom's, in the same column order.
func maskedEvalRef(inst *Instance, d []float64, i, degree int, active []bool) Eval {
	e := Eval{Cost: Cost{Link: inst.Alpha() * float64(degree)}}
	for j := 0; j < inst.N(); j++ {
		if j == i || (active != nil && !active[j]) {
			continue
		}
		t := inst.Model().Term(d[j], inst.Distance(i, j))
		e.Cost.Term += t
		if math.IsInf(t, 1) {
			e.Unreachable++
		} else {
			e.FiniteTerm += t
		}
	}
	return e
}

// countOffline returns how many peers the mask leaves out (nil: none).
func countOffline(active []bool) int {
	off := 0
	for _, on := range active {
		if !on {
			off++
		}
	}
	return off
}

// onlineTargets restricts s to the active peers (nil: all of them).
func onlineTargets(s Strategy, active []bool) Strategy {
	out := s.Clone()
	for j, on := range active {
		if !on {
			out.Remove(j)
		}
	}
	return out
}

// checkOnlineEvals compares, for every active peer of the live profile
// p, the Eval.Online map of each unmasked scorer — PeerEval,
// DeviationEval, the batch Eval and DynEval.PeerEval — against the
// reference masked accumulation over the same distance row, exactly.
func checkOnlineEvals(t *testing.T, r *rng.RNG, inst *Instance, p Profile, active []bool) {
	t.Helper()
	n := inst.N()
	offline := countOffline(active)
	ev := NewEvaluator(inst)
	dy, err := NewDynEval(NewEvaluator(inst), p)
	if err != nil {
		t.Fatal(err)
	}
	defer dy.Close()
	for i := 0; i < n; i++ {
		if active != nil && !active[i] {
			continue
		}
		want := maskedEvalRef(inst, ev.sssp(p, i, -1, Strategy{}), i, p.OutDegree(i), active)
		if got := ev.PeerEval(p, i).Online(offline); got != want {
			t.Fatalf("peer %d: PeerEval.Online = %+v, masked reference %+v", i, got, want)
		}
		if got := dy.PeerEval(i).Online(offline); got != want {
			t.Fatalf("peer %d: DynEval.PeerEval.Online = %+v, masked reference %+v", i, got, want)
		}
		alt := onlineTargets(mutateStrategy(r, p.Strategy(i), n, i), active)
		wantDev := maskedEvalRef(inst, ev.sssp(p, i, i, alt), i, alt.Count(), active)
		if got := ev.DeviationEval(p, i, alt).Online(offline); got != wantDev {
			t.Fatalf("peer %d: DeviationEval.Online = %+v, masked reference %+v", i, got, wantDev)
		}
		if b := ev.NewDeviationBatch(p, i); b != nil {
			want := maskedEvalRef(inst, b.fold(alt), i, alt.Count(), active)
			if got := b.Eval(alt).Online(offline); got != want {
				t.Fatalf("peer %d: batch Eval.Online = %+v, masked reference %+v", i, got, want)
			}
		}
	}
}

// TestMaskedEvalNilAndFullMaskMatchUnmasked pins the everyone-online
// end of the map: with no offline partner, Eval.Online is the identity
// on every scorer, and the masked reference with a nil or all-true
// mask equals it, in every regime (directed, undirected, congested,
// all kernels).
func TestMaskedEvalNilAndFullMaskMatchUnmasked(t *testing.T) {
	r := rng.New(61)
	for _, c := range diffCases() {
		t.Run(c.name, func(t *testing.T) {
			inst := buildDiffInstance(t, r, c)
			p := randomDiffProfile(r, c.n, c.linkProb)
			checkOnlineEvals(t, r, inst, p, nil)
			checkOnlineEvals(t, r, inst, p, allTrue(c.n))
			ev := NewEvaluator(inst)
			for i := 0; i < c.n; i++ {
				if e := ev.PeerEval(p, i); e.Online(0) != e {
					t.Fatalf("peer %d: Online(0) = %+v, unmasked %+v", i, e.Online(0), e)
				}
			}
		})
	}
}

// TestOnlineEvalMatchesMaskedAccumulation is the soundness check of
// the O(1) map on live profiles (no link touches an offline peer):
// PeerEval, DeviationEval over online targets, the batch Eval and
// DynEval.PeerEval, each mapped through Eval.Online, equal the masked
// accumulation bit for bit, in every regime.
func TestOnlineEvalMatchesMaskedAccumulation(t *testing.T) {
	r := rng.New(63)
	for _, c := range diffCases() {
		t.Run(c.name, func(t *testing.T) {
			inst := buildDiffInstance(t, r, c)
			for trial := 0; trial < 3; trial++ {
				active := randomActiveMask(r, c.n, r.Intn(c.n), 0.3+0.2*float64(trial))
				p := randomDiffProfile(r, c.n, c.linkProb)
				maskProfile(t, &p, active)
				checkOnlineEvals(t, r, inst, p, active)
			}
		})
	}
}

// maskedModels are the cost models the masked search runs under: the
// two built-ins, which take the bounded passes over 0-started offline
// columns, and a custom model, which keeps +Inf columns and the map.
var maskedModels = []struct {
	name  string
	model CostModel
}{
	{"stretch", StretchModel{}},
	{"distance", DistanceModel{}},
	{"sqrt-stretch", sqrtStretch{}},
}

// TestExactSearchActiveAllTrueMatchesUnmasked runs the search with the
// everyone-online mask against the nil mask and demands the identical
// outcome — strategy, eval and the Resolved count, so every pruning
// device fires at exactly the same nodes.
func TestExactSearchActiveAllTrueMatchesUnmasked(t *testing.T) {
	r := rng.New(67)
	for trial := 0; trial < 6; trial++ {
		c := diffCase{n: 8 + r.Intn(6), linkProb: 0.15 + 0.3*r.Float64()}
		inst := buildDiffInstance(t, r, c)
		ev := NewEvaluator(inst)
		ev2 := NewEvaluator(inst)
		p := randomDiffProfile(r, c.n, c.linkProb)
		i := r.Intn(c.n)
		masked := ev.NewDeviationBatch(p, i).ExactSearch(p.Strategy(i), allTrue(c.n), 1e-9, 0)
		plain := ev2.NewDeviationBatch(p, i).ExactSearch(p.Strategy(i), nil, 1e-9, 0)
		if !masked.Strategy.Equal(plain.Strategy) {
			t.Fatalf("trial %d: all-true mask changed the best response: %v vs %v",
				trial, masked.Strategy, plain.Strategy)
		}
		if masked.Eval != plain.Eval {
			t.Fatalf("trial %d: all-true mask changed the eval: %+v vs %+v",
				trial, masked.Eval, plain.Eval)
		}
		if masked.Resolved != plain.Resolved {
			t.Fatalf("trial %d: all-true mask changed pruning: resolved %d vs %d",
				trial, masked.Resolved, plain.Resolved)
		}
	}
}

// TestExactSearchActiveMatchesInducedSubInstance is the main soundness
// proof for the masked search: on a live profile (no links touching
// inactive peers) the masked search over the full instance must agree
// — strategy, eval, Resolved — with the unmasked search run from
// scratch on the sub-instance induced on the active peers, under each
// of maskedModels. Index compaction preserves candidate order, so even
// tie-breaking matches.
func TestExactSearchActiveMatchesInducedSubInstance(t *testing.T) {
	for _, mm := range maskedModels {
		t.Run(mm.name, func(t *testing.T) {
			r := rng.New(71)
			for trial := 0; trial < 8; trial++ {
				checkInducedSubInstance(t, r, trial, mm.model)
			}
		})
	}
}

func checkInducedSubInstance(t *testing.T, r *rng.RNG, trial int, model CostModel) {
	t.Helper()
	n := 10 + r.Intn(5)
	space, err := metric.UniformPoints(r, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(space, 2.5, WithModel(model))
	if err != nil {
		t.Fatal(err)
	}
	subject := r.Intn(n)
	active := randomActiveMask(r, n, subject, 0.7)
	p := randomDiffProfile(r, n, 0.3)
	maskProfile(t, &p, active)

	ev := NewEvaluator(inst)
	out := ev.NewDeviationBatch(p, subject).ExactSearch(p.Strategy(subject), active, 1e-9, 0)

	// Build the induced sub-instance: active peers, compacted indices.
	var actIdx []int
	inv := make([]int, n)
	for j := 0; j < n; j++ {
		if active[j] {
			inv[j] = len(actIdx)
			actIdx = append(actIdx, j)
		}
	}
	na := len(actIdx)
	d := make([][]float64, na)
	for a := range d {
		d[a] = make([]float64, na)
		for b := range d[a] {
			d[a][b] = inst.Distance(actIdx[a], actIdx[b])
		}
	}
	subSpace, err := metric.NewMatrixUnchecked(d)
	if err != nil {
		t.Fatal(err)
	}
	subInst, err := NewInstance(subSpace, 2.5, WithModel(model))
	if err != nil {
		t.Fatal(err)
	}
	subP := NewProfile(na)
	for a, j := range actIdx {
		s := bitset.New(na)
		p.Strategy(j).ForEach(func(k int) bool {
			s.Add(inv[k])
			return true
		})
		if err := subP.SetStrategy(a, s); err != nil {
			t.Fatal(err)
		}
	}
	subEv := NewEvaluator(subInst)
	ai := inv[subject]
	subOut := subEv.NewDeviationBatch(subP, ai).ExactSearch(subP.Strategy(ai), nil, 1e-9, 0)

	if out.Eval != subOut.Eval {
		t.Fatalf("trial %d (n=%d, active=%d): masked eval %+v, sub-instance %+v",
			trial, n, na, out.Eval, subOut.Eval)
	}
	if out.Resolved != subOut.Resolved {
		t.Fatalf("trial %d: masked resolved %d, sub-instance %d",
			trial, out.Resolved, subOut.Resolved)
	}
	for j := 0; j < n; j++ {
		if !active[j] {
			if out.Strategy.Contains(j) {
				t.Fatalf("trial %d: masked best response links to offline peer %d", trial, j)
			}
			continue
		}
		if j == subject {
			continue
		}
		if out.Strategy.Contains(j) != subOut.Strategy.Contains(inv[j]) {
			t.Fatalf("trial %d: strategies disagree on peer %d (sub index %d): %v vs %v",
				trial, j, inv[j], out.Strategy, subOut.Strategy)
		}
	}
}

// TestExactSearchActiveOptimalByBruteForce checks global optimality of
// the masked search against a plain enumeration of every subset of the
// active candidates, scored by the reference masked accumulation over
// the batch fold, under each of maskedModels: nothing may beat the
// returned eval by more than the tolerance, and the returned strategy
// must actually score the returned eval.
func TestExactSearchActiveOptimalByBruteForce(t *testing.T) {
	for _, mm := range maskedModels {
		t.Run(mm.name, func(t *testing.T) {
			r := rng.New(73)
			for trial := 0; trial < 5; trial++ {
				n := 9
				space, err := metric.UniformPoints(r, n, 2)
				if err != nil {
					t.Fatal(err)
				}
				inst, err := NewInstance(space, 1.0+2.0*r.Float64(), WithModel(mm.model))
				if err != nil {
					t.Fatal(err)
				}
				subject := r.Intn(n)
				active := randomActiveMask(r, n, subject, 0.8)
				p := randomDiffProfile(r, n, 0.25)
				maskProfile(t, &p, active)

				ev := NewEvaluator(inst)
				b := ev.NewDeviationBatch(p, subject)
				score := func(s Strategy) Eval {
					return maskedEvalRef(inst, b.fold(s), subject, s.Count(), active)
				}
				out := b.ExactSearch(p.Strategy(subject), active, 1e-9, 0)
				if got := score(out.Strategy); got != out.Eval {
					t.Fatalf("trial %d: outcome eval %+v but strategy scores %+v", trial, out.Eval, got)
				}
				var cands []int
				for j := 0; j < n; j++ {
					if j != subject && active[j] {
						cands = append(cands, j)
					}
				}
				for mask := 0; mask < 1<<len(cands); mask++ {
					s := bitset.New(n)
					for bi, j := range cands {
						if mask&(1<<bi) != 0 {
							s.Add(j)
						}
					}
					if se := score(s); se.Better(out.Eval, 1e-9) {
						t.Fatalf("trial %d: subset %v scores %+v, beats search result %+v",
							trial, s, se, out.Eval)
					}
				}
			}
		})
	}
}
