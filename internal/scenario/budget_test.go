package scenario

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"selfishnet/internal/core"
)

// freeCores counts the free slots of the core budget by taking and
// returning them all.
func freeCores() int {
	n := 0
	for core.TryAcquireCore() {
		n++
	}
	for range n {
		core.ReleaseCore()
	}
	return n
}

// TestForEachIndexCtxReturnsSlots: each worker holds a core slot while
// it runs, and every slot is back when forEachIndexCtx returns — after
// a complete run and after a cancel stops it midway.
func TestForEachIndexCtxReturnsSlots(t *testing.T) {
	for _, workers := range []int{1, 3} {
		for _, cancelAt := range []int{-1, 5} {
			ctx, cancel := context.WithCancel(context.Background())
			held := true
			complete := forEachIndexCtx(ctx, 40, workers, func(i int) {
				if freeCores() == runtime.GOMAXPROCS(0) {
					held = false
				}
				switch {
				case i == cancelAt:
					cancel()
				case cancelAt >= 0 && i > cancelAt:
					// Index cancelAt was claimed first and cancels; hold
					// the later claims until it has, so the cancel always
					// lands before the last index is claimed.
					<-ctx.Done()
				}
			})
			cancel()
			if complete != (cancelAt < 0) {
				t.Errorf("workers %d cancel at %d: complete = %v", workers, cancelAt, complete)
			}
			if !held {
				t.Errorf("workers %d: an index ran with no core slot taken", workers)
			}
			if free := freeCores(); free != runtime.GOMAXPROCS(0) {
				t.Errorf("workers %d cancel at %d: %d core slots free, want GOMAXPROCS = %d", workers, cancelAt, free, runtime.GOMAXPROCS(0))
			}
		}
	}
}

// TestBudgetedBatchPoolSweepByteIdentical: a grid of one small point
// and one at n ≥ dynamics.BatchParallelMinPeers with batch_workers 0
// (an auto pool on the core budget, which widens once the small point
// finishes) renders byte-identically at every parallelism, and leaves
// no core slot taken.
func TestBudgetedBatchPoolSweepByteIdentical(t *testing.T) {
	sw := Sweep{
		Name: "budget",
		Base: Spec{
			Name:     "budget",
			Seed:     1,
			Metric:   MetricSpec{Family: "unit", N: 16},
			Game:     GameSpec{Alpha: 4},
			Start:    StartSpec{Kind: "star"},
			Dynamics: DynamicsSpec{Oracle: "local-search", MaxSteps: 50},
			Measures: []string{"converged", "mean-steps", "links", "social-cost", "max-stretch"},
		},
		Ns: []int{16, 256},
	}
	var want []byte
	for _, par := range []int{1, 2, 13} {
		tb, err := sw.Run(Params{}, par)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tb.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("parallelism %d:\n%s\nwant\n%s", par, buf.Bytes(), want)
		}
		if free := freeCores(); free != runtime.GOMAXPROCS(0) {
			t.Errorf("parallelism %d: %d core slots free, want GOMAXPROCS = %d", par, free, runtime.GOMAXPROCS(0))
		}
	}
}
