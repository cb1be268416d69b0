package selfishnet_test

import (
	"math"
	"testing"

	"selfishnet"
)

// TestSessionMatchesFacade pins the Session contract: every Session
// method must return exactly what the one-shot facade function returns
// (the cached evaluator may not change results, only reuse buffers).
func TestSessionMatchesFacade(t *testing.T) {
	r := selfishnet.NewRNG(11)
	space, err := selfishnet.UniformPeers(r, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	game, err := selfishnet.NewGame(space, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := selfishnet.NewSession(game)
	if s.Game() != game {
		t.Fatal("Session.Game() must return the bound game")
	}
	p := selfishnet.RandomProfile(selfishnet.NewRNG(5), 8, 0.3)

	// Repeated calls on the same session must agree with the one-shot
	// functions (buffer reuse across calls must not leak state).
	for iter := 0; iter < 3; iter++ {
		if got, want := s.SocialCost(p), selfishnet.SocialCost(game, p); got != want {
			t.Fatalf("iter %d: SocialCost %v != facade %v", iter, got, want)
		}
		if got, want := s.MaxStretch(p), selfishnet.MaxStretch(game, p); got != want {
			t.Fatalf("iter %d: MaxStretch %v != facade %v", iter, got, want)
		}
		for i := 0; i < 8; i++ {
			if got, want := s.PeerCost(p, i), selfishnet.PeerCost(game, p, i); got != want {
				t.Fatalf("iter %d: PeerCost(%d) %v != facade %v", iter, i, got, want)
			}
		}
	}

	sNash, err := s.IsNash(p)
	if err != nil {
		t.Fatal(err)
	}
	fNash, err := selfishnet.IsNash(game, p)
	if err != nil {
		t.Fatal(err)
	}
	if sNash != fNash {
		t.Fatalf("IsNash: session %v, facade %v", sNash, fNash)
	}

	str, ev, err := s.BestResponse(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	fstr, fev, err := selfishnet.BestResponse(game, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !str.Equal(fstr) || ev != fev {
		t.Fatal("BestResponse: session and facade disagree")
	}

	res, err := s.RunDynamics(selfishnet.EmptyProfile(8), selfishnet.DynamicsConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fres, err := selfishnet.RunDynamics(game, selfishnet.EmptyProfile(8), selfishnet.DynamicsConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged != fres.Converged || res.Steps != fres.Steps || !res.Final.Equal(fres.Final) {
		t.Fatal("RunDynamics: session and facade disagree")
	}

	lo, hi, err := s.PoABounds(res.Final, selfishnet.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	flo, fhi, err := selfishnet.PoABounds(game, fres.Final, selfishnet.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if lo != flo || hi != fhi {
		t.Fatalf("PoABounds: session (%v, %v), facade (%v, %v)", lo, hi, flo, fhi)
	}

	st, err := s.AnalyzeTopology(res.Final)
	if err != nil {
		t.Fatal(err)
	}
	fst, err := selfishnet.AnalyzeTopology(game, fres.Final)
	if err != nil {
		t.Fatal(err)
	}
	if st.Links != fst.Links || st.DegreeGini != fst.DegreeGini {
		t.Fatal("AnalyzeTopology: session and facade disagree")
	}

	rep, err := s.CheckNash(res.Final)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Stable {
		t.Fatal("converged dynamics result should be Nash-stable")
	}
	if math.IsNaN(rep.MaxGain) {
		t.Fatal("CheckNash returned NaN gain")
	}
}

// TestSessionAllPairsMatchFacade pins the session's all-pairs folds
// against the one-shot facade on a 12-peer game, across profiles on
// one session (the band scratch is reused from call to call).
func TestSessionAllPairsMatchFacade(t *testing.T) {
	r := selfishnet.NewRNG(21)
	space, err := selfishnet.UniformPeers(r, 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	game, err := selfishnet.NewGame(space, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := selfishnet.NewSession(game)
	for _, q := range []float64{0.25, 0.05, 0.6} {
		p := selfishnet.RandomProfile(selfishnet.NewRNG(2), 12, q)
		if got, want := s.SocialCost(p), selfishnet.SocialCost(game, p); got != want {
			t.Fatalf("q=%v: session SocialCost %v != facade %v", q, got, want)
		}
		if got, want := s.MaxStretch(p), selfishnet.MaxStretch(game, p); got != want {
			t.Fatalf("q=%v: session MaxStretch %v != facade %v", q, got, want)
		}
	}
}

// TestSessionEnumerate pins EnumerateEquilibria against the facade on a
// tiny instance.
func TestSessionEnumerate(t *testing.T) {
	space, err := selfishnet.Line([]float64{0, 1, 2.5})
	if err != nil {
		t.Fatal(err)
	}
	game, err := selfishnet.NewGame(space, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := selfishnet.NewSession(game).EnumerateEquilibria(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := selfishnet.EnumerateEquilibria(game, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("session found %d equilibria, facade %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("equilibrium %d differs", i)
		}
	}
}
