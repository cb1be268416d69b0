package main

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"selfishnet/internal/scenario"
)

// The serve-zipf request mix. Keys are small declarative specs; the
// universe is four times the daemon's default 256-entry result cache,
// so the Zipf tail keeps evicting and re-missing. Size caps keep each
// miss between a fraction of a millisecond and about a hundred
// milliseconds: the exact oracle's search space doubles per peer, so it
// stays at n ≤ exactMaxN; local search is polynomial and runs up to
// localMaxN (unit metric: unitMaxN).
const (
	zipfUniverse  = 1024
	exactMaxN     = 14
	localMaxN     = 28
	unitMaxN      = 48
	clusteredMaxN = 10
	zipfMaxSteps  = 300
)

// zipfFamilies are the metric families the key universe draws from.
var zipfFamilies = []string{"uniform", "clustered", "line", "ring", "unit"}

// zipfMeasures are the measure columns the keys request (a prefix of
// this list, drawn per key, so measure choice varies the key too).
var zipfMeasures = []string{"converged", "mean-steps", "links", "social-cost", "max-stretch"}

// workloadRNG derives an independent deterministic stream for one use
// of the benchmark seed. The workload generators use the standard
// library's PCG, not the repository's own generator, so the inputs stay
// fixed when the code under test changes.
func workloadRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// zipfUniverseSeed fixes the key universe. The benchmark seed drives the
// request sequence only, so every seed asks the same population of
// specs and its figures differ by the draw, not by the keys' costs.
const zipfUniverseSeed = 1

// zipfKeys builds the key universe: zipfUniverse distinct specs, every
// one valid and inside the size caps.
func zipfKeys() []scenario.Spec {
	r := workloadRNG(zipfUniverseSeed, 1)
	seen := make(map[string]bool, zipfUniverse)
	keys := make([]scenario.Spec, 0, zipfUniverse)
	for len(keys) < zipfUniverse {
		spec := randomSpec(r)
		h, err := spec.Hash()
		if err != nil {
			panic(fmt.Sprintf("perfbench: generated spec does not hash: %v", err))
		}
		if seen[h] {
			continue
		}
		seen[h] = true
		keys = append(keys, spec)
	}
	return keys
}

// randomSpec draws one key: family, size, oracle, α and spec seed.
func randomSpec(r *rand.Rand) scenario.Spec {
	family := zipfFamilies[r.IntN(len(zipfFamilies))]
	oracle := "exact"
	if r.IntN(2) == 0 {
		oracle = "local-search"
	}
	n := 6 + r.IntN(exactMaxN-6+1)
	if oracle == "local-search" {
		n = 8 + r.IntN(localMaxN-8+1)
	}
	spec := scenario.Spec{
		Seed:     1 + r.Uint64N(1<<20),
		Metric:   scenario.MetricSpec{Family: family, N: n},
		Game:     scenario.GameSpec{Alpha: float64(1+r.IntN(16)) / 2},
		Dynamics: scenario.DynamicsSpec{Oracle: oracle, MaxSteps: zipfMaxSteps},
		Measures: zipfMeasures[:2+r.IntN(len(zipfMeasures)-1)],
	}
	switch family {
	case "clustered":
		// Congestion takes the per-candidate evaluation path, the
		// slowest one, so these keys stay smaller.
		spec.Metric.Clusters = 2 + r.IntN(3)
		spec.Metric.N = 6 + r.IntN(clusteredMaxN-6+1)
		spec.Game.Gamma = float64(1+r.IntN(4)) / 4
	case "line":
		// Integer positions: distinct points 0..3n-1, sorted.
		spec.Metric.N = 0
		spec.Metric.Positions = make([]float64, 0, n)
		for _, p := range r.Perm(3 * n)[:n] {
			spec.Metric.Positions = append(spec.Metric.Positions, float64(p))
		}
		sort.Float64s(spec.Metric.Positions)
	case "unit":
		// Cheap links (small α) on the unit metric take hundreds of
		// moves toward the complete graph; α ≥ 2 keeps runs short.
		spec.Dynamics.Oracle = "local-search"
		spec.Metric.N = 16 + r.IntN(unitMaxN-16+1)
		spec.Game.Alpha = float64(4+r.IntN(13)) / 2
	}
	return spec
}

// zipfSampler draws key indexes with P(k) ∝ 1/(k+1) (Zipf, s = 1).
type zipfSampler struct {
	cdf []float64
}

func newZipfSampler(n int) *zipfSampler {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / float64(k+1)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipfSampler{cdf: cdf}
}

func (z *zipfSampler) draw(r *rand.Rand) int {
	u := r.Float64()
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// zipfSequence is the request sequence of one serve-zipf pass: count
// key indexes drawn from the seed's Zipf stream.
func zipfSequence(seed uint64, count int) []int {
	r := workloadRNG(seed, 2)
	z := newZipfSampler(zipfUniverse)
	seq := make([]int, count)
	for i := range seq {
		seq[i] = z.draw(r)
	}
	return seq
}
