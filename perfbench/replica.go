package main

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"selfishnet/internal/churn"
	"selfishnet/internal/core"
	"selfishnet/internal/dynamics"
	"selfishnet/internal/export"
	"selfishnet/internal/opt"
	"selfishnet/internal/rng"
	"selfishnet/internal/scenario"
)

// layerCounts are the counters a traced replica accumulates.
type layerCounts struct {
	mu          sync.Mutex
	steps       int
	rows        core.BatchCacheStats
	churnEvents int
	churnMoves  float64
	oracle      oracleStats
}

// replicaPoint executes one single-run declarative spec the way the
// scenario engine does — instance, start profile, dynamics, optional
// churn phase, measures — but through the public functions of each
// layer, with a span around each call and the deviation oracle wrapped
// by tracedOracle. It returns the spec's row as the engine reports it,
// which the caller checks against the untraced output: the wrapper and
// the replays must leave results unchanged. parallelism is the point's
// internal fan-out, as the sweep engine hands it to each point.
func replicaPoint(ctx context.Context, led *ledger, parent int, counts *layerCounts, spec scenario.Spec, measures []string, parallelism int) (scenario.PointResult, error) {
	var none scenario.PointResult
	pt, closePoint := led.open(spanPoint, parent)
	defer closePoint()
	spec = spec.Normalize()
	if spec.Dynamics.Runs > 1 {
		return none, fmt.Errorf("replica: spec %q has %d replicas; only single runs are traced", spec.Name, spec.Dynamics.Runs)
	}
	r := rng.New(spec.Seed)
	var (
		inst  *core.Instance
		ev    *core.Evaluator
		start core.Profile
	)
	if err := led.timed("core.instance", pt, func() (err error) {
		if inst, err = spec.Instance(r); err == nil {
			ev = core.NewEvaluator(inst)
		}
		return err
	}); err != nil {
		return none, err
	}
	policy, err := scenario.PolicyByName(spec.Dynamics.Policy)
	if err != nil {
		return none, err
	}
	oracle, err := scenario.OracleByName(spec.Dynamics.Oracle)
	if err != nil {
		return none, err
	}
	forceFresh, forceIncremental, err := engineFlags(spec.Dynamics.Engine)
	if err != nil {
		return none, err
	}
	if err := led.timed("scenario.start", pt, func() (err error) {
		start, err = spec.Start.Build(inst.N(), r)
		return err
	}); err != nil {
		return none, err
	}
	bw := spec.Dynamics.BatchWorkers
	if bw == 0 && parallelism > 0 {
		bw = parallelism
	}
	dyn, closeDyn := led.open("dynamics.run", pt)
	res, err := dynamics.RunContext(ctx, ev, start, dynamics.Config{
		Oracle:           newTracedOracle(oracle, &counts.oracle, led, dyn, batchWorkers(bw, inst.N())),
		Policy:           policy,
		Tol:              spec.Dynamics.Tol,
		MaxSteps:         spec.Dynamics.MaxSteps,
		DetectCycles:     spec.Dynamics.DetectCycles,
		Parallelism:      parallelism,
		BatchWorkers:     bw,
		ForceFresh:       forceFresh,
		ForceIncremental: forceIncremental,
		Rand:             r.Split(),
	})
	closeDyn()
	if err != nil {
		return none, err
	}

	var cr *churn.Result
	if spec.Churn != (scenario.ChurnSpec{}) {
		kind, err := churn.ParseRepairKind(spec.Churn.Repair)
		if spec.Churn.Repair == "" {
			kind, err = churn.RepairSelfish, nil
		}
		if err != nil {
			return none, err
		}
		var out churn.Result
		if err := led.timed("churn.run", pt, func() (err error) {
			out, err = churn.RunContext(ctx, churn.Config{
				Instance:    inst,
				Start:       res.Final,
				Rate:        spec.Churn.Rate,
				Duration:    spec.Churn.Duration,
				Repair:      kind,
				MinOnline:   spec.Churn.MinOnline,
				RepairSteps: spec.Churn.RepairSteps,
				TailSteps:   spec.Churn.TailSteps,
				Seed:        spec.Seed,
				Workers:     parallelism,
			})
			return err
		}); err != nil {
			return none, err
		}
		cr = &out
	}

	row := []string{
		export.Int(inst.N()), export.Num(spec.Game.Alpha),
		export.Num(spec.Game.Gamma), strconv.FormatUint(spec.Seed, 10),
	}
	err = led.timed("core.measures", pt, func() error {
		var social *core.Cost
		for _, m := range measures {
			cell, err := measureCell(m, spec, ev, res, cr, &social)
			if err != nil {
				return err
			}
			row = append(row, cell)
		}
		return nil
	})
	if err != nil {
		return none, err
	}

	counts.mu.Lock()
	defer counts.mu.Unlock()
	counts.steps += res.Steps
	counts.rows.RowsSettled += res.CacheStats.RowsSettled
	counts.rows.RowsReused += res.CacheStats.RowsReused
	counts.rows.RowsRelaxed += res.CacheStats.RowsRelaxed
	counts.rows.EntryInvalidations += res.CacheStats.EntryInvalidations
	if cr != nil {
		counts.churnEvents += cr.Events
		counts.churnMoves += cr.Restabilize.Mean() * float64(cr.Restabilize.N())
	}
	return scenario.PointResult{Row: row, NonEquilibrium: !res.Converged}, nil
}

// engineFlags maps a dynamics engine name onto the Config switches, as
// the scenario engine does.
func engineFlags(name string) (forceFresh, forceIncremental bool, err error) {
	switch name {
	case "", "auto":
		return false, false, nil
	case "fresh":
		return true, false, nil
	case "incremental":
		return false, true, nil
	}
	return false, false, fmt.Errorf("replica: unknown dynamics engine %q", name)
}

// measureCell renders the measures the benchmark's workloads request,
// with the scenario engine's formatting. social caches the social cost.
func measureCell(name string, spec scenario.Spec, ev *core.Evaluator, res dynamics.Result, cr *churn.Result, social **core.Cost) (string, error) {
	cost := func() core.Cost {
		if *social == nil {
			c := ev.SocialCost(res.Final)
			*social = &c
		}
		return **social
	}
	converged := 0
	if res.Converged {
		converged = 1
	}
	switch name {
	case "converged":
		return export.Int(converged), nil
	case "mean-steps":
		if !res.Converged {
			return "-", nil
		}
		return export.Num(float64(res.Steps)), nil
	case "links":
		return export.Int(res.Final.LinkCount()), nil
	case "social-cost":
		return export.Num(cost().Total()), nil
	case "max-stretch":
		return export.Num(ev.MaxTerm(res.Final)), nil
	case "c-over-lb":
		return export.Num(cost().Total() / opt.LowerBound(ev.Instance())), nil
	case "churn-rate":
		return export.Num(spec.Churn.Rate), nil
	case "churn-repair":
		if spec.Churn.Repair == "" {
			return churn.RepairSelfish.String(), nil
		}
		return spec.Churn.Repair, nil
	}
	if cr == nil {
		return "", fmt.Errorf("replica: measure %q needs a churn phase", name)
	}
	switch name {
	case "churn-events":
		return export.Int(cr.Events), nil
	case "restabilize-mean", "restabilize-max":
		if cr.Restabilize.N() == 0 {
			return "-", nil
		}
		if name == "restabilize-mean" {
			return export.Num(cr.Restabilize.Mean()), nil
		}
		return export.Num(cr.Restabilize.Max()), nil
	case "tail-stable":
		return fmt.Sprintf("%v", cr.TailStable), nil
	}
	return "", fmt.Errorf("replica: measure %q is not replicated", name)
}

// replicaSweep replays every point of a sweep through replicaPoint,
// with the sweep engine's split of cores between points and their
// internals, and assembles the rows into the sweep's table.
func replicaSweep(ctx context.Context, led *ledger, parent int, counts *layerCounts, sw scenario.Sweep, workers, inner int) (*export.Table, error) {
	points := sw.Points()
	results := make([]scenario.PointResult, len(points))
	errs := make([]error, len(points))
	forEach(len(points), workers, func(i int) {
		results[i], errs[i] = replicaPoint(ctx, led, parent, counts, points[i], sw.Measures(), inner)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
	}
	return sw.Assemble(results)
}

// forEach runs fn(i) for i in [0, n) on the given number of goroutines
// and returns when all are done.
func forEach(n, workers int, fn func(int)) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// sweepBudget mirrors the sweep engine's split of the core budget:
// all cores over the grid points, the remainder inside each point.
func sweepBudget(cores, points int) (workers, inner int) {
	workers = min(cores, points)
	return workers, max(1, cores/workers)
}
