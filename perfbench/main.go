// Command perfbench is selfishnet's end-to-end benchmark. It drives the
// topogame CLI and the topogamed daemon from outside, as users run
// them, on four seeded workloads, checks every output, and prints one
// JSON result line. With -trace 1 it instead calls the public functions
// of each layer in-process and reports per-layer metrics. See README.md.
//
//	bash perfbench/run.sh --workload serve-zipf --seed 3 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// A workload is one set of inputs the benchmark runs.
type workload struct {
	name    string
	measure func(*bench) error // untraced run: fills b.log
	trace   func(*bench) error // traced run: fills b.layers
}

var workloads = []workload{
	{"sweep-large-n", measureSweep, traceSweep},
	{"serve-zipf", measureServe, traceServe},
	{"fabric-churn", measureFabric, traceFabric},
	{"certify", measureCertify, traceCertify},
}

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units (bench_test.go keeps the two in step).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run, reported on every
// workload (README.md defines each per workload). The hit latencies,
// hit_p50_ms and hit_p99_ms, are printed and recorded for serve-zipf
// but not reported: a sub-millisecond loopback round trip moves by a
// quarter to threefold between runs on a shared 2-vCPU host, beyond any
// bound a regression gate could use.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"serve_rps", "1/s", "higher"},
	{"run_p50_ms", "ms", "lower"},
	{"run_p99_ms", "ms", "lower"},
	{"miss_p50_ms", "ms", "lower"},
	{"miss_p90_ms", "ms", "lower"},
}

// perLayer are the metrics of a traced run. A layer the workload never
// enters reads 0.
var perLayer = []metricDef{
	{"serve.hit_ratio", "ratio", "higher"},
	{"serve.evictions", "count", "lower"},
	{"serve.rejected", "count", "lower"},
	{"serve.handler_hit_us", "us", "lower"},
	{"scenario.decode_us", "us", "lower"},
	{"scenario.hash_us", "us", "lower"},
	{"scenario.run_ms", "ms", "lower"},
	{"export.encode_us", "us", "lower"},
	{"dynamics.steps", "count", "lower"},
	{"dynamics.self_s", "s", "lower"},
	{"bestresponse.calls", "count", "lower"},
	{"bestresponse.busy_s", "s", "lower"},
	{"core.batch_build_s", "s", "lower"},
	{"core.search_s", "s", "lower"},
	{"core.rows_settled", "count", "lower"},
	{"core.rows_reused", "count", "higher"},
	{"core.rows_relaxed", "count", "higher"},
	{"core.entry_invalidations", "count", "lower"},
	{"core.instance_s", "s", "lower"},
	{"core.banded_fold_s", "s", "lower"},
	{"core.streamed_eval_s", "s", "lower"},
	{"core.certify_s", "s", "lower"},
	{"churn.run_s", "s", "lower"},
	{"churn.events", "count", "lower"},
	{"churn.restabilize_moves", "count", "lower"},
	{"fabric.point_s", "s", "lower"},
	{"fabric.idle_share", "ratio", "lower"},
	{"fabric.shards_completed", "count", "higher"},
	{"fabric.shards_reassigned", "count", "lower"},
	{"cas.puts", "count", "lower"},
	{"cas.bytes", "bytes", "lower"},
	{"proc.cpu_s", "s", "lower"},
	{"proc.cores_used", "cores", "higher"},
	{"trace.overhead_share", "ratio", "lower"},
	{"trace.unattributed_share", "ratio", "lower"},
}

// minPasses is the least number of passes a run makes, so a pass that
// outlasts -seconds still leaves a median of two.
const minPasses = 2

// passes runs pass(i) until the run has measured for b.seconds, and at
// least minPasses times. An error aborts the run.
func (b *bench) passes(pass func(i int) error) error {
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < b.seconds; i++ {
		if err := pass(i); err != nil {
			return err
		}
	}
	return nil
}

// setupSeconds is the median time of setupReps calls to build, the
// in-process set-up sample of a CLI workload.
func setupSeconds(build func() error) (float64, error) {
	const setupReps = 101
	xs := make([]float64, setupReps)
	for i := range xs {
		start := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		xs[i] = time.Since(start).Seconds()
	}
	return median(xs), nil
}

// bench is the state of one benchmark run.
type bench struct {
	root    string // source tree under test
	bin     string // built programs
	tmp     string // this run's scratch directory
	seed    uint64
	seconds time.Duration
	ctx     context.Context

	log    sampleLog
	layers map[string]float64
	ledger *ledger
	// digests are the output digests the run saw, for the run record.
	digests map[string]string
}

// sampleLog holds the raw samples of a run.
type sampleLog struct {
	Setup []float64 `json:"setup_s"`      // per pass
	Wall  []float64 `json:"wall_s"`       // per pass: time to verified output
	RSS   []float64 `json:"peak_rss_mib"` // per pass
	All   []float64 `json:"run_ms"`       // per operation
	Hit   []float64 `json:"hit_ms"`       // per operation answered from earlier work
	Miss  []float64 `json:"miss_ms"`      // per operation computed afresh

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

// op records one operation that passed its output check, adding its
// latency to each of the given populations (l.All, l.Hit, l.Miss).
func (l *sampleLog) op(d time.Duration, into ...*[]float64) {
	l.Attempted++
	ms := float64(d) / float64(time.Millisecond)
	for _, p := range into {
		*p = append(*p, ms)
	}
}

// checked records one traced-run output check that passed.
func (l *sampleLog) checked() { l.Attempted++ }

// fail records one operation that failed, was refused or returned a
// wrong output.
func (l *sampleLog) fail(format string, args ...any) {
	l.Attempted++
	l.Failed++
	if len(l.Failures) < 20 {
		l.Failures = append(l.Failures, fmt.Sprintf(format, args...))
	}
}

// summary is one reported metric with what it was computed from.
type summary struct {
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Samples  int     `json:"samples,omitempty"`
	Quantile float64 `json:"quantile,omitempty"`
}

// endToEndMetrics reduces the raw samples to the end-to-end metrics.
func (l *sampleLog) endToEndMetrics() (map[string]summary, error) {
	all := l.All
	busy := 0.0 // a pass's operations run back to back, so they fill its wall time
	for _, w := range l.Wall {
		busy += w
	}
	out := map[string]summary{}
	put := func(name string, v, q float64, n int) {
		out[name] = summary{Value: v, Samples: n, Quantile: q}
	}
	put("setup_s", median(l.Setup), 0.5, len(l.Setup))
	put("wall_s", median(l.Wall), 0.5, len(l.Wall))
	put("peak_rss_mib", median(l.RSS), 0.5, len(l.RSS))
	put("serve_rps", float64(len(all))/busy, 0, len(all))
	put("run_p50_ms", median(all), 0.5, len(all))
	v, q := tail(all, 0.99)
	put("run_p99_ms", v, q, len(all))
	if len(l.Hit) > 0 {
		put("hit_p50_ms", median(l.Hit), 0.5, len(l.Hit))
		v, q = tail(l.Hit, 0.99)
		put("hit_p99_ms", v, q, len(l.Hit))
	}
	put("miss_p50_ms", median(l.Miss), 0.5, len(l.Miss))
	v, q = tail(l.Miss, 0.90)
	put("miss_p90_ms", v, q, len(l.Miss))
	var missing []string
	for _, m := range endToEnd {
		s := out[m.name]
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) || s.Value <= 0 {
			missing = append(missing, m.name)
			s.Value = 0
		}
		s.Unit = m.unit
		out[m.name] = s
	}
	for _, name := range []string{"hit_p50_ms", "hit_p99_ms"} {
		if s, ok := out[name]; ok {
			s.Unit = "ms"
			out[name] = s
		}
	}
	if len(missing) > 0 {
		return out, fmt.Errorf("no samples for %s", strings.Join(missing, ", "))
	}
	return out, nil
}

// perLayerMetrics reports every per-layer metric; layers the workload
// never entered read 0.
func (b *bench) perLayerMetrics() map[string]summary {
	out := map[string]summary{}
	for _, m := range perLayer {
		v := b.layers[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.log.fail("%s: no samples", m.name)
			v = 0
		}
		out[m.name] = summary{Value: v, Unit: m.unit}
	}
	return out
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	root := flag.String("root", ".", "root of the source tree under test")
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 25, "measured seconds per run (every run makes at least two passes)")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want -seconds ≥ 1 and -trace 0 or 1")
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	build := filepath.Join(absRoot, ".bench_build")
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	b := &bench{
		root:    absRoot,
		bin:     filepath.Join(build, "bin"),
		tmp:     tmp,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		ctx:     context.Background(),
		layers:  map[string]float64{},
		digests: map[string]string{},
	}

	started := time.Now()
	var metrics map[string]summary
	if *trace == 1 {
		b.ledger = newLedger()
		if err := w.trace(b); err != nil {
			return fmt.Errorf("%s (traced): %w", w.name, err)
		}
		metrics = b.perLayerMetrics()
	} else {
		if err := w.measure(b); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if metrics, err = b.log.endToEndMetrics(); err != nil {
			b.log.fail("%v", err)
		}
	}
	res := result{
		Correct:   b.log.Failed == 0 && b.log.Attempted > 0,
		Attempted: b.log.Attempted,
		Failed:    b.log.Failed,
		Metrics:   map[string]metricValue{},
	}
	reported := endToEnd
	if *trace == 1 {
		reported = perLayer
	}
	for _, m := range reported {
		res.Metrics[m.name] = metricValue{Value: metrics[m.name].Value, Unit: m.unit}
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := metrics[n]
		line := fmt.Sprintf("%-28s %14.6g %s", n, s.Value, s.Unit)
		if s.Samples > 0 {
			line += fmt.Sprintf("  (n=%d q=%.3g)", s.Samples, s.Quantile)
		}
		fmt.Println(line)
	}
	for _, f := range b.log.Failures {
		fmt.Println("failure:", f)
	}
	if err := b.writeRecord(w.name, *trace == 1, started, metrics); err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
