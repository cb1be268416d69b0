package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"selfishnet/internal/bestresponse"
	"selfishnet/internal/core"
	"selfishnet/internal/dynamics"
)

// span is one timed call into a layer, recorded by the traced run
// around the public function it calls. Parent is the id of the span
// that caused it (0 for a top-level span).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the ledger began
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// ledger keeps the spans of a traced run in memory; the run record
// writes them out when the run ends. Safe for concurrent use.
type ledger struct {
	mu   sync.Mutex
	t0   time.Time
	list []span
}

func newLedger() *ledger { return &ledger{t0: time.Now()} }

// add records a finished span and returns its id.
func (l *ledger) add(name string, parent int, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.list) + 1
	l.list = append(l.list, span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(l.t0).Seconds(), End: end.Sub(l.t0).Seconds(),
	})
	return id
}

// open starts a span whose children are recorded before it ends; the
// returned close function records its end.
func (l *ledger) open(name string, parent int) (id int, close func()) {
	start := time.Now()
	l.mu.Lock()
	id = len(l.list) + 1
	l.list = append(l.list, span{ID: id, Parent: parent, Name: name, Start: start.Sub(l.t0).Seconds()})
	l.mu.Unlock()
	return id, func() {
		end := time.Since(l.t0).Seconds()
		l.mu.Lock()
		l.list[id-1].End = end
		l.mu.Unlock()
	}
}

// timed runs fn inside a span.
func (l *ledger) timed(name string, parent int, fn func() error) error {
	start := time.Now()
	err := fn()
	l.add(name, parent, start, time.Now())
	return err
}

func (l *ledger) spans() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.list...)
}

// total is the summed duration of every span with the given name.
func (l *ledger) total(name string) float64 {
	t := 0.0
	for _, s := range l.spans() {
		if s.Name == name {
			t += s.dur()
		}
	}
	return t
}

// selfTime is the summed self time of the spans with the given name:
// each one's duration minus the part its child spans cover. Children
// may overlap (concurrent grid points), so coverage is their union.
func (l *ledger) selfTime(name string) float64 {
	list := l.spans()
	children := make(map[int][]span)
	for _, s := range list {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	t := 0.0
	for _, s := range list {
		if s.Name == name {
			t += s.dur() - covered(children[s.ID])
		}
	}
	return t
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	total, end := 0.0, math.Inf(-1)
	for _, s := range spans {
		switch {
		case s.Start >= end:
			total += s.dur()
			end = s.End
		case s.End > end:
			total += s.End - end
			end = s.End
		}
	}
	return total
}

// Span names for the traced run's own bookkeeping: a root span per
// traced operation and a container per grid point or request key.
// Their self time is what no layer span accounts for.
const (
	spanRoot  = "run"
	spanPoint = "point"
)

// unattributedShare is the share of the root spans' time that falls in
// no layer span.
func (l *ledger) unattributedShare() float64 {
	root := l.total(spanRoot)
	if root == 0 {
		return 0
	}
	return (l.selfTime(spanRoot) + l.selfTime(spanPoint)) / root
}

// oracleStats accumulates the traced oracle's counters across clones.
type oracleStats struct {
	calls   atomic.Int64
	busyNS  atomic.Int64 // inside the wrapped BestResponse
	buildNS atomic.Int64 // replaying NewDeviationBatch
}

// tracedOracle wraps a deviation oracle: it delegates BestResponse,
// Clone and Name, times each call, and after each call replays
// core.NewDeviationBatch for the same (profile, peer) on an evaluator
// of its own, so the batch-build share of an oracle call is measured
// without touching the evaluator the dynamics engine owns. The replay
// builds every row from scratch (it has no persisted batch cache), so
// it is the full build cost of the call's batch. Clones share the
// counters and the ledger and get their own replay evaluator; calls on
// one instance may run concurrently (replays take turns).
type tracedOracle struct {
	inner   bestresponse.Oracle
	stats   *oracleStats
	led     *ledger
	parent  int // span id of the dynamics run this oracle serves
	workers int // batch pool width of the run it mirrors

	mu         sync.Mutex // guards the replay evaluator
	replayInst *core.Instance
	replayEv   *core.Evaluator
}

func newTracedOracle(inner bestresponse.Oracle, stats *oracleStats, led *ledger, parent, workers int) *tracedOracle {
	return &tracedOracle{inner: inner, stats: stats, led: led, parent: parent, workers: workers}
}

func (o *tracedOracle) Name() string { return o.inner.Name() }

func (o *tracedOracle) Clone() bestresponse.Oracle {
	return newTracedOracle(o.inner.Clone(), o.stats, o.led, o.parent, o.workers)
}

func (o *tracedOracle) BestResponse(ev *core.Evaluator, p core.Profile, i int) (bestresponse.Result, error) {
	t0 := time.Now()
	res, err := o.inner.BestResponse(ev, p, i)
	t1 := time.Now()
	o.replay(ev.Instance(), p, i)
	t2 := time.Now()
	o.stats.calls.Add(1)
	o.stats.busyNS.Add(int64(t1.Sub(t0)))
	o.stats.buildNS.Add(int64(t2.Sub(t1)))
	o.led.add("bestresponse.call", o.parent, t0, t1)
	o.led.add("core.batch_build", o.parent, t1, t2)
	return res, err
}

func (o *tracedOracle) replay(inst *core.Instance, p core.Profile, i int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.replayInst != inst {
		o.replayInst = inst
		o.replayEv = core.NewEvaluator(inst)
		if o.workers > 1 && inst.SupportsBatchEval() {
			o.replayEv.AttachPool(core.NewPool(inst, o.workers))
		}
	}
	o.replayEv.NewDeviationBatch(p, i)
}

// batchWorkers mirrors the dynamics layer's choice of batch pool width
// for a run with the given Config.BatchWorkers and peer count.
func batchWorkers(cfgWorkers, n int) int {
	switch {
	case cfgWorkers > 1:
		return cfgWorkers
	case cfgWorkers == 0 && n >= dynamics.BatchParallelMinPeers:
		return runtime.GOMAXPROCS(0)
	default:
		return 1
	}
}
