package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"selfishnet/internal/core"
	"selfishnet/internal/rng"
	"selfishnet/internal/scenario"
)

// largeNGrid is cmd/topogame/testdata/sweep_large_n.json on a smaller
// n axis: the star start is already an equilibrium at α = 4, so every
// oracle call is a deviation-batch build plus folds and no move is made.
const largeNGrid = `{
  "name": "large-n-scaling",
  "base": {
    "name": "large-n",
    "seed": 1,
    "metric": {"family": "unit", "n": 256},
    "game": {"alpha": 4},
    "start": {"kind": "star"},
    "dynamics": {"oracle": "local-search", "max_steps": 50, "batch_workers": 0},
    "measures": ["converged", "mean-steps", "links", "social-cost", "max-stretch", "c-over-lb"]
  },
  "ns": [256, 512]
}
`

// writeInput writes a generated input file into the run's scratch
// directory and returns its path.
func (b *bench) writeInput(name, content string) (string, error) {
	path := filepath.Join(b.tmp, name)
	return path, os.WriteFile(path, []byte(content), 0o644)
}

// gridSetup builds the instance and evaluator of a sweep's largest
// point, the set-up a sweep pays before its first dynamics step.
func gridSetup(sw scenario.Sweep) func() error {
	points := sw.Points()
	spec := points[len(points)-1].Normalize()
	return func() error {
		inst, err := spec.Instance(rng.New(spec.Seed))
		if err == nil {
			core.NewEvaluator(inst)
		}
		return err
	}
}

func measureSweep(b *bench) error {
	sw, err := scenario.ReadSweep(strings.NewReader(largeNGrid))
	if err != nil {
		return err
	}
	grid, err := b.writeInput("sweep_large_n.json", largeNGrid)
	if err != nil {
		return err
	}
	return b.passes(func(int) error {
		setup, err := setupSeconds(gridSetup(sw))
		if err != nil {
			return err
		}
		b.log.Setup = append(b.log.Setup, setup)
		out, err := runCLI(b.ctx, filepath.Join(b.bin, "topogame"), "sweep", "-json", grid)
		if err != nil {
			b.log.fail("%v", err)
			return nil
		}
		if !b.verify("sweep-large-n", out.stdout) {
			return nil
		}
		// topogame keeps no results between invocations: every run
		// computes afresh.
		b.log.op(out.wall, &b.log.All, &b.log.Miss)
		b.log.Wall = append(b.log.Wall, out.wall.Seconds())
		b.log.RSS = append(b.log.RSS, out.rssMiB)
		return nil
	})
}

func traceSweep(b *bench) error {
	sw, err := scenario.ReadSweep(strings.NewReader(largeNGrid))
	if err != nil {
		return err
	}
	grid, err := b.writeInput("sweep_large_n.json", largeNGrid)
	if err != nil {
		return err
	}
	// The untraced program run: the base of the overhead share and the
	// process figures.
	out, err := runCLI(b.ctx, filepath.Join(b.bin, "topogame"), "sweep", "-json", grid)
	if err != nil {
		b.log.fail("%v", err)
		return nil
	}
	if !b.verify("sweep-large-n", out.stdout) {
		return nil
	}
	b.log.checked()

	var counts layerCounts
	led := b.ledger
	root, closeRoot := led.open(spanRoot, 0)
	workers, inner := sweepBudget(runtime.GOMAXPROCS(0), len(sw.Points()))
	tb, err := replicaSweep(b.ctx, led, root, &counts, sw, workers, inner)
	closeRoot()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := tb.WriteJSON(&buf); err != nil {
		return err
	}
	if !b.verify("sweep-large-n", buf.Bytes()) {
		return nil
	}
	b.log.checked()
	b.dynamicsLayers(&counts)
	b.layers["core.instance_s"] = led.total("core.instance")
	b.processLayers(out.cpuS, out.wall.Seconds())
	b.traceLayers(out.wall.Seconds())
	return nil
}

// dynamicsLayers reports the dynamics, oracle and batch metrics of a
// traced replica.
func (b *bench) dynamicsLayers(c *layerCounts) {
	busy := float64(c.oracle.busyNS.Load()) / 1e9
	build := float64(c.oracle.buildNS.Load()) / 1e9
	b.layers["dynamics.steps"] = float64(c.steps)
	b.layers["dynamics.self_s"] = b.ledger.selfTime("dynamics.run")
	b.layers["bestresponse.calls"] = float64(c.oracle.calls.Load())
	b.layers["bestresponse.busy_s"] = busy
	b.layers["core.batch_build_s"] = build
	b.layers["core.search_s"] = busy - build
	b.layers["core.rows_settled"] = float64(c.rows.RowsSettled)
	b.layers["core.rows_reused"] = float64(c.rows.RowsReused)
	b.layers["core.rows_relaxed"] = float64(c.rows.RowsRelaxed)
	b.layers["core.entry_invalidations"] = float64(c.rows.EntryInvalidations)
}

// processLayers reports the program's CPU time over its wall time.
func (b *bench) processLayers(cpuS, wallS float64) {
	b.layers["proc.cpu_s"] = cpuS
	b.layers["proc.cores_used"] = cpuS / wallS
}

// traceLayers reports the tracing overhead against the untraced wall
// time of the same work, and the root time no layer span covers.
func (b *bench) traceLayers(untracedS float64) {
	b.layers["trace.overhead_share"] = b.ledger.total(spanRoot)/untracedS - 1
	b.layers["trace.unattributed_share"] = b.ledger.unattributedShare()
}
