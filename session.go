package selfishnet

import (
	"selfishnet/internal/analysis"
	"selfishnet/internal/bestresponse"
	"selfishnet/internal/core"
	"selfishnet/internal/dynamics"
	"selfishnet/internal/nash"
	"selfishnet/internal/opt"
)

// Session is a stateful handle on one game: it owns a cached evaluator
// (CSR/heap/band scratch buffers), so a sequence of operations on the
// same game reuses those buffers instead of reallocating them per call,
// the dominant cost of the one-shot facade functions (see
// BenchmarkSessionReuse).
//
// A Session is not safe for concurrent use; create one per goroutine,
// or use the internal fan-outs (DynamicsConfig.Parallelism and
// DynamicsConfig.BatchWorkers), which parallelize safely under a single
// Session. The one-shot package functions (SocialCost, RunDynamics, ...)
// remain as thin wrappers that construct an ephemeral Session per call.
type Session struct {
	g  *Game
	ev *core.Evaluator
}

// NewSession creates a session over the game.
func NewSession(g *Game) *Session {
	return &Session{g: g, ev: core.NewEvaluator(g)}
}

// Game returns the bound game.
func (s *Session) Game() *Game { return s.g }

// PeerCost returns peer i's decomposed cost under profile p.
func (s *Session) PeerCost(p Profile, i int) Cost { return s.ev.PeerCost(p, i) }

// SocialCost returns the decomposed social cost C(G[p]).
func (s *Session) SocialCost(p Profile) Cost { return s.ev.SocialCost(p) }

// MaxStretch returns the largest pairwise stretch in the overlay (+Inf
// when some peer cannot reach another).
func (s *Session) MaxStretch(p Profile) float64 { return s.ev.MaxTerm(p) }

// IsNash reports whether p is an exact pure Nash equilibrium.
func (s *Session) IsNash(p Profile) (bool, error) { return nash.IsNash(s.ev, p) }

// CheckNash reports every peer's best deviation under the exact oracle.
func (s *Session) CheckNash(p Profile) (NashReport, error) {
	return nash.Check(s.ev, p, &bestresponse.Exact{}, bestresponse.Tolerance)
}

// BestResponse returns peer i's exact best response to p.
func (s *Session) BestResponse(p Profile, i int) (Strategy, Eval, error) {
	res, err := (&bestresponse.Exact{}).BestResponse(s.ev, p, i)
	if err != nil {
		return Strategy{}, Eval{}, err
	}
	return res.Strategy, res.Eval, nil
}

// RunDynamics executes best-response dynamics from start (see
// DynamicsConfig for oracles, activation policies, cycle detection).
func (s *Session) RunDynamics(start Profile, cfg DynamicsConfig) (DynamicsResult, error) {
	return dynamics.Run(s.ev, start, cfg)
}

// EnumerateEquilibria exhaustively lists every pure Nash equilibrium
// (exponential; n ≤ 5). maxProfiles caps the search (0 = 2^22).
func (s *Session) EnumerateEquilibria(maxProfiles int) ([]Profile, error) {
	return nash.EnumerateEquilibria(s.ev, maxProfiles)
}

// PoABounds sandwiches the Price of Anarchy contribution of profile p:
// the ratio of C(G[p]) to an upper bound on OPT (portfolio + annealing)
// and to the universal lower bound αn + Σ lower-bound terms.
func (s *Session) PoABounds(p Profile, r *RNG) (lower, upper float64, err error) {
	cost := s.ev.SocialCost(p).Total()
	_, best, err := opt.BestKnown(s.ev, r)
	if err != nil {
		return 0, 0, err
	}
	return cost / best.Total(), cost / opt.LowerBound(s.g), nil
}

// AnalyzeTopology computes the structural summary of p.
func (s *Session) AnalyzeTopology(p Profile) (TopologyStats, error) {
	return analysis.Analyze(s.ev, p)
}
