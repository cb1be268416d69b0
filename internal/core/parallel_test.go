package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selfishnet/internal/metric"
	"selfishnet/internal/rng"
)

func poolTestInstance(t *testing.T, n int, opts ...Option) *Instance {
	t.Helper()
	space, err := metric.UniformPoints(rng.New(41), n, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(space, 3, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func poolTestProfile(n int, q float64) Profile {
	r := rng.New(43)
	p := NewProfile(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && r.Bool(q) {
				_ = p.AddLink(i, j)
			}
		}
	}
	return p
}

// foldResults is every all-pairs fold of one evaluator on one profile.
type foldResults struct {
	social    Cost
	banded    []Cost // at the bands of TestPoolMatchesEvaluatorBitIdentical
	maxTerm   float64
	terms     [][]float64
	connected bool
	estimates []Estimate // EstimateSocialCost, EstimateMeanTerm per sample size
}

// allFolds runs every all-pairs fold of ev on p.
func allFolds(t *testing.T, ev *Evaluator, p Profile, bands, samples []int) foldResults {
	t.Helper()
	res := foldResults{
		social:    ev.SocialCost(p),
		maxTerm:   ev.MaxTerm(p),
		terms:     ev.TermMatrix(p),
		connected: ev.Connected(p),
	}
	for _, band := range bands {
		c, err := ev.SocialCostBanded(p, band)
		if err != nil {
			t.Fatal(err)
		}
		res.banded = append(res.banded, c)
	}
	for _, k := range samples {
		sc, err := ev.EstimateSocialCost(p, k, 7)
		if err != nil {
			t.Fatal(err)
		}
		mt, err := ev.EstimateMeanTerm(p, k, 7)
		if err != nil {
			t.Fatal(err)
		}
		res.estimates = append(res.estimates, sc, mt)
	}
	return res
}

// TestPoolMatchesEvaluatorBitIdentical is the differential test of the
// one row-settle path: every all-pairs fold (SocialCost,
// SocialCostBanded, MaxTerm, TermMatrix, Connected, EstimateSocialCost,
// EstimateMeanTerm) of an evaluator without a pool and with pools of
// width 1, 2 and 7 must equal, with ==, the same fold on an independent
// WithKernel("heap") twin. Rows cross the game (directed, undirected,
// congested) with the profile (dense q = 0.3, sparse and disconnected,
// a star), so uniform-metric rows land on both sides of the
// multi-source kernel rule; each row runs the bfs, dial and heap
// kernels (unit, int and points metrics) at n ∈ {63, 64, 65, 130}, at
// bands 1, 3, 64 and n, with sample sizes not aligned to 64. The
// evaluators and pools of an instance are shared by all its profiles.
func TestPoolMatchesEvaluatorBitIdentical(t *testing.T) {
	type fixture struct {
		heap *Evaluator
		evs  []*Evaluator // unpooled, then pools of width 1, 2, 7
	}
	fixtures := map[string]*fixture{}
	r := rng.New(41)
	games := []struct {
		name       string
		undirected bool
		gamma      float64
	}{
		{name: "directed"},
		{name: "undirected", undirected: true},
		{name: "congested", gamma: 0.6},
	}
	profiles := []struct {
		suffix string
		build  func(n int) Profile
		multi  bool // the side of multiSourceRows the profile is on
	}{
		{"", func(n int) Profile { return randomDiffProfile(r, n, 0.3) }, false},
		{"-disconnected", func(n int) Profile { return randomDiffProfile(r, n, 0.02) }, true},
		{"-star", func(n int) Profile {
			p, err := StarProfile(n)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}, true},
	}
	spaces := []struct{ space, kernel string }{{"unit", "bfs"}, {"int", "dial"}, {"points", "heap"}}
	for _, g := range games {
		for _, pc := range profiles {
			t.Run(g.name+pc.suffix, func(t *testing.T) {
				for _, sp := range spaces {
					for _, n := range []int{63, 64, 65, 130} {
						key := fmt.Sprintf("%s/%s/n%d", g.name, sp.space, n)
						fx := fixtures[key]
						if fx == nil {
							c := diffCase{n: n, space: sp.space, undirected: g.undirected, gamma: g.gamma}
							auto, heap := twinInstances(t, r, c)
							if want := sp.kernel; g.gamma == 0 && auto.Kernel() != want {
								t.Fatalf("%s: kernel %q, want %q", key, auto.Kernel(), want)
							}
							fx = &fixture{heap: NewEvaluator(heap), evs: []*Evaluator{NewEvaluator(auto)}}
							for _, w := range []int{1, 2, 7} {
								ev := NewEvaluator(auto)
								ev.AttachPool(NewPool(auto, w))
								fx.evs = append(fx.evs, ev)
							}
							fixtures[key] = fx
						}
						p := pc.build(n)
						if fx.evs[0].inst.kernel == kernelBFS && multiSourceRows(n, p.LinkCount()) != pc.multi {
							t.Fatalf("%s: multi-source %v, want %v", key, !pc.multi, pc.multi)
						}
						bands, samples := []int{1, 3, 64, n}, []int{37, n - 3}
						want := allFolds(t, fx.heap, p, bands, samples)
						for _, c := range want.banded {
							if c != want.social {
								t.Fatalf("%s: heap banded %+v, SocialCost %+v", key, c, want.social)
							}
						}
						for e, ev := range fx.evs {
							got := allFolds(t, ev, p, bands, samples)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s evaluator %d (0 unpooled, then widths 1, 2, 7):\n got %+v\nwant %+v",
									key, e, got, want)
							}
						}
					}
				}
			})
		}
	}
}

// TestPoolSharedAcrossProfiles reuses one pool, attached to one
// evaluator, across profiles of different density; its SocialCost must
// equal that of an unpooled evaluator on each.
func TestPoolSharedAcrossProfiles(t *testing.T) {
	const n = 20
	inst := poolTestInstance(t, n)
	pooled := NewEvaluator(inst)
	pooled.AttachPool(NewPool(inst, 4))
	ev := NewEvaluator(inst)
	for _, q := range []float64{0.05, 0.2, 0.5} {
		p := poolTestProfile(n, q)
		if got, want := pooled.SocialCost(p), ev.SocialCost(p); got != want {
			t.Fatalf("q=%v: got %+v, want %+v", q, got, want)
		}
	}
}

// TestEvaluatorCloneStress hammers clones of one shared instance from
// many goroutines at once; run under -race it proves the concurrency
// contract (immutable instance, per-goroutine evaluator state). Each
// goroutine checks its results against a sequentially computed truth.
func TestEvaluatorCloneStress(t *testing.T) {
	const (
		n          = 24
		goroutines = 16
		rounds     = 20
	)
	inst := poolTestInstance(t, n)
	profiles := make([]Profile, 5)
	for k := range profiles {
		profiles[k] = poolTestProfile(n, 0.1+0.1*float64(k))
	}
	root := NewEvaluator(inst)
	truth := make([]Cost, len(profiles))
	for k, p := range profiles {
		truth[k] = root.SocialCost(p)
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ev := root.Clone()
			r := rng.New(uint64(g) + 1)
			for round := 0; round < rounds; round++ {
				k := r.Intn(len(profiles))
				p := profiles[k]
				if got := ev.SocialCost(p); got != truth[k] {
					t.Errorf("goroutine %d round %d: SocialCost %+v, want %+v", g, round, got, truth[k])
					return
				}
				// Mix in deviation work so batch scratch is exercised too.
				i := r.Intn(n)
				if b := ev.NewDeviationBatch(p, i); b != nil {
					want := ev.DeviationEval(p, i, p.Strategy(i))
					got := b.Eval(p.Strategy(i))
					if got.Unreachable != want.Unreachable {
						t.Errorf("goroutine %d round %d: batch unreachable %d, want %d",
							g, round, got.Unreachable, want.Unreachable)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// panicTask panics in every chunk the calling evaluator claims; helper
// chunks take a millisecond each, so the caller is sure to claim one.
type panicTask struct {
	caller *Evaluator
	ran    atomic.Int64
}

func (t *panicTask) prepare(*Evaluator) {}

func (t *panicTask) runChunk(ev *Evaluator, c int) {
	if ev == t.caller {
		panic("caller chunk")
	}
	time.Sleep(time.Millisecond)
	t.ran.Add(1)
}

// TestCoreBudgetReturnsSlots: every core slot a budgeted pool's helpers
// take is back once the fan-out returns — normally, and when the
// caller's own share panics (the helpers are drained first, so the pool
// is reusable). With every slot taken elsewhere, a budgeted fan-out
// starts no helper and still completes; explicit widths take no slots.
func TestCoreBudgetReturnsSlots(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	inst := poolTestInstance(t, 40)
	p := poolTestProfile(40, 0.1)
	want := NewEvaluator(inst).SocialCost(p)
	for _, width := range []int{0, 3} {
		ev := NewEvaluator(inst)
		ev.AttachPool(NewPool(inst, width))
		if got := ev.SocialCost(p); got != want {
			t.Fatalf("width %d: SocialCost %+v, want %+v", width, got, want)
		}
		if busy := int(coresBusy.Load()); busy != 0 {
			t.Fatalf("width %d: %d core slots still taken after a fan-out", width, busy)
		}
		task := &panicTask{caller: ev}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("width %d: the caller's chunk did not panic", width)
				}
			}()
			ev.Pool().fan(ev, task, 64)
		}()
		ran := task.ran.Load()
		time.Sleep(5 * time.Millisecond)
		if task.ran.Load() != ran {
			t.Fatalf("width %d: helpers still running after the fan-out returned", width)
		}
		if busy := int(coresBusy.Load()); busy != 0 {
			t.Fatalf("width %d: %d core slots still taken after a panicking fan-out", width, busy)
		}
		if got := ev.SocialCost(p); got != want {
			t.Fatalf("width %d: SocialCost after a panic %+v, want %+v", width, got, want)
		}
	}

	held := 0
	for TryAcquireCore() {
		held++
	}
	if held != runtime.GOMAXPROCS(0) {
		t.Fatalf("took %d core slots, want GOMAXPROCS = %d", held, runtime.GOMAXPROCS(0))
	}
	ev := NewEvaluator(inst)
	ev.AttachPool(NewPool(inst, 0))
	got := ev.SocialCost(p)
	for range held {
		ReleaseCore()
	}
	if got != want {
		t.Fatalf("budgeted pool with no free slot: SocialCost %+v, want %+v", got, want)
	}
	if busy := int(coresBusy.Load()); busy != 0 {
		t.Fatalf("%d core slots taken after release, want 0", busy)
	}
}
