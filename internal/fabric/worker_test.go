package fabric

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selfishnet/internal/core"
	"selfishnet/internal/scenario"
)

// fastRetry keeps test-side retries near-instant.
var fastRetry = Backoff{Attempts: 3, Base: time.Millisecond, Cap: 2 * time.Millisecond}

// TestHTTPClient410OnEveryVerb: a coordinator answering 410 Gone maps
// to ErrUnknownWorker on all four client verbs — the signal the worker
// loop re-registers on.
func TestHTTPClient410OnEveryVerb(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusGone)
	}))
	defer ts.Close()
	c := &HTTPClient{Base: ts.URL, Retry: fastRetry}
	if _, err := c.Register("probe"); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("Register: %v, want ErrUnknownWorker", err)
	}
	if err := c.Heartbeat("w-1"); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("Heartbeat: %v, want ErrUnknownWorker", err)
	}
	if _, err := c.Next("w-1"); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("Next: %v, want ErrUnknownWorker", err)
	}
	if err := c.Complete("w-1", "s-1", ShardResult{}); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("Complete: %v, want ErrUnknownWorker", err)
	}
}

// TestHTTPClientMalformedJSON: a 200 with a garbage body is an error,
// not a zero-value shard or registration.
func TestHTTPClientMalformedJSON(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "{not json")
	}))
	defer ts.Close()
	c := &HTTPClient{Base: ts.URL, Retry: fastRetry}
	if _, err := c.Register("probe"); err == nil {
		t.Error("Register decoded a malformed body without error")
	}
	if _, err := c.Next("w-1"); err == nil {
		t.Error("Next decoded a malformed body without error")
	}
}

// TestHTTPClientOversizedErrorBody: error bodies are truncated at 4096
// bytes, so a misbehaving coordinator cannot balloon worker logs or
// memory.
func TestHTTPClientOversizedErrorBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprint(w, strings.Repeat("x", 64<<10))
	}))
	defer ts.Close()
	c := &HTTPClient{Base: ts.URL, Retry: fastRetry}
	err := c.Heartbeat("w-1")
	if err == nil {
		t.Fatal("500 response reported no error")
	}
	if n := len(err.Error()); n > 4096+200 {
		t.Errorf("error message is %d bytes; the body was not truncated at 4096", n)
	}
}

// flakyTransport fails the first failures round-trips with a transport
// error, then answers 204 itself.
type flakyTransport struct {
	calls    atomic.Int64
	failures int64
}

func (rt *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if rt.calls.Add(1) <= rt.failures {
		return nil, errors.New("connection reset by peer")
	}
	return &http.Response{
		StatusCode: http.StatusNoContent,
		Body:       http.NoBody,
		Header:     make(http.Header),
		Request:    req,
	}, nil
}

// TestHTTPClientRetriesTransportErrors: transport failures are retried
// under the backoff schedule and succeed once the network heals.
func TestHTTPClientRetriesTransportErrors(t *testing.T) {
	rt := &flakyTransport{failures: 2}
	c := &HTTPClient{
		Base:  "http://fabric.invalid",
		HTTP:  &http.Client{Transport: rt},
		Retry: fastRetry,
	}
	if err := c.Heartbeat("w-1"); err != nil {
		t.Fatalf("heartbeat failed despite retries: %v", err)
	}
	if got := rt.calls.Load(); got != 3 {
		t.Errorf("transport saw %d attempts, want 3 (2 failures + success)", got)
	}

	// A fully dead network exhausts the budget and surfaces the last
	// transport error.
	rt2 := &flakyTransport{failures: 1 << 30}
	c2 := &HTTPClient{Base: "http://fabric.invalid", HTTP: &http.Client{Transport: rt2}, Retry: fastRetry}
	if err := c2.Heartbeat("w-1"); err == nil {
		t.Error("dead transport reported success")
	}
	if got := rt2.calls.Load(); got != 3 {
		t.Errorf("dead transport saw %d attempts, want exactly the retry budget (3)", got)
	}
}

// TestHTTPClientNoRetryOnHTTPStatus: an HTTP status — even an error
// status — is the coordinator speaking and is never retried.
func TestHTTPClientNoRetryOnHTTPStatus(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	c := &HTTPClient{Base: ts.URL, Retry: fastRetry}
	if err := c.Heartbeat("w-1"); err == nil {
		t.Fatal("500 response reported no error")
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server saw %d requests for a 500, want 1 (no status retries)", got)
	}
}

// TestHTTPClientPerAttemptTimeout: a hung coordinator is cut off by
// the per-attempt timeout; every attempt gets its own budget.
func TestHTTPClientPerAttemptTimeout(t *testing.T) {
	var hits atomic.Int64
	release := make(chan struct{})
	defer close(release)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	c := &HTTPClient{
		Base:    ts.URL,
		Timeout: 25 * time.Millisecond,
		Retry:   Backoff{Attempts: 2, Base: time.Millisecond, Cap: 2 * time.Millisecond},
	}
	start := time.Now()
	if err := c.Heartbeat("w-1"); err == nil {
		t.Fatal("hung coordinator reported success")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout took %v; the per-attempt bound did not engage", elapsed)
	}
	if got := hits.Load(); got != 2 {
		t.Errorf("server saw %d attempts, want 2 (timeouts are transport errors and retry)", got)
	}
}

// TestRetryDelayDeterministicAndBounded: the jittered backoff schedule
// is reproducible from its seed and stays inside [base/2, cap].
func TestRetryDelayDeterministicAndBounded(t *testing.T) {
	mk := func(seed uint64) *HTTPClient {
		return &HTTPClient{Retry: Backoff{Base: 50 * time.Millisecond, Cap: 2 * time.Second, Seed: seed}}
	}
	a, b := mk(9), mk(9)
	for try := 1; try <= 8; try++ {
		da, db := a.retryDelay(try), b.retryDelay(try)
		if da != db {
			t.Fatalf("try %d: same seed gave %v vs %v", try, da, db)
		}
		if da < 25*time.Millisecond || da > 2*time.Second {
			t.Errorf("try %d: delay %v outside [base/2, cap]", try, da)
		}
	}
	// Deep tries saturate at the cap (scaled by jitter), never overflow.
	if d := mk(9).retryDelay(60); d <= 0 || d > 2*time.Second {
		t.Errorf("saturated delay %v outside (0, cap]", d)
	}
}

// TestWorkerRunSurvivesConnectionRefused: a worker pointed at a dead
// coordinator keeps polling until its context ends — it never gives
// up, never panics.
func TestWorkerRunSurvivesConnectionRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // now nothing listens there

	var mu sync.Mutex
	attempts := 0
	w := &Worker{
		Client: &HTTPClient{Base: "http://" + addr, Timeout: 50 * time.Millisecond, Retry: Backoff{Attempts: 1}},
		Poll:   5 * time.Millisecond,
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "register") {
				mu.Lock()
				attempts++
				mu.Unlock()
			}
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := w.Run(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run returned %v, want the context error", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if attempts < 2 {
		t.Errorf("worker attempted registration %d time(s) against a dead coordinator, want repeated polling", attempts)
	}
}

// scriptedClient is a fabric.Client with programmable heartbeat
// behavior for worker-loop tests.
type scriptedClient struct {
	mu        sync.Mutex
	registers int
	hbErr     error
}

func (c *scriptedClient) Register(name string) (WorkerInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.registers++
	return WorkerInfo{ID: fmt.Sprintf("w-%d", c.registers), Lease: 30 * time.Millisecond}, nil
}

func (c *scriptedClient) Heartbeat(workerID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hbErr
}

func (c *scriptedClient) Next(workerID string) (*Shard, error) { return nil, nil }

func (c *scriptedClient) Complete(workerID, shardID string, res ShardResult) error { return nil }

func (c *scriptedClient) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.registers
}

// TestWorkerReregistersAfterHeartbeatLoss: three consecutive heartbeat
// transport failures cancel the serve loop and re-register immediately
// instead of idling until Next discovers the lapsed lease.
func TestWorkerReregistersAfterHeartbeatLoss(t *testing.T) {
	sc := &scriptedClient{hbErr: errors.New("network down")}
	w := &Worker{Client: sc, Poll: 5 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 600*time.Millisecond)
	defer cancel()
	_ = w.Run(ctx)
	// Lease 30ms → beats every 10ms → ~30ms to burn the 3-failure
	// limit; 600ms must re-register several times.
	if got := sc.count(); got < 3 {
		t.Errorf("worker registered %d time(s) under total heartbeat loss, want repeated re-registration", got)
	}
}

// TestWorkerReregistersOn410Heartbeat: a heartbeat 410 (the
// coordinator explicitly forgot us) re-registers without burning the
// 3-failure limit first.
func TestWorkerReregistersOn410Heartbeat(t *testing.T) {
	sc := &scriptedClient{hbErr: ErrUnknownWorker}
	w := &Worker{Client: sc, Poll: 5 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	_ = w.Run(ctx)
	if got := sc.count(); got < 3 {
		t.Errorf("worker registered %d time(s) under heartbeat 410s, want immediate re-registration", got)
	}
}

// TestExecuteRecoversPanics: an injected panic in point execution is
// recovered into a ShardResult error naming the point — the shard
// attempt dies, the worker process does not.
func TestExecuteRecoversPanics(t *testing.T) {
	pts, err := testSweep().EnumeratePoints()
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{
		Parallelism: 1,
		RunPoint: func(ctx context.Context, spec scenario.Spec, measures []string, parallelism int) (scenario.PointResult, error) {
			panic("kaboom")
		},
	}
	shard := &Shard{ID: "s-1", Points: pts[:2], Measures: testSweep().Measures()}
	res := w.execute(context.Background(), shard)
	if res.Error == "" || !strings.Contains(res.Error, "panic: kaboom") {
		t.Fatalf("panic not recovered into a shard error: %+v", res)
	}
	if res.ErrorIndex != pts[0].Index {
		t.Errorf("ErrorIndex = %d, want %d (the panicking point)", res.ErrorIndex, pts[0].Index)
	}
	if len(res.Results) != 0 {
		t.Errorf("panic at the first point salvaged %d results, want 0", len(res.Results))
	}
}

// TestPanickingPointReturnsCoreSlots: a point that panics after running
// budgeted batch fan-outs (n ≥ dynamics.BatchParallelMinPeers,
// batch_workers 0) is recovered by the worker with every core slot
// back. (A panic inside a fan-out is covered by
// core.TestCoreBudgetReturnsSlots.)
func TestPanickingPointReturnsCoreSlots(t *testing.T) {
	pts, err := testSweep().EnumeratePoints()
	if err != nil {
		t.Fatal(err)
	}
	big := scenario.Spec{
		Name:     "big",
		Seed:     1,
		Metric:   scenario.MetricSpec{Family: "unit", N: 256},
		Game:     scenario.GameSpec{Alpha: 4},
		Start:    scenario.StartSpec{Kind: "star"},
		Dynamics: scenario.DynamicsSpec{Oracle: "local-search", MaxSteps: 5},
	}
	w := &Worker{
		Parallelism: 0,
		RunPoint: func(ctx context.Context, _ scenario.Spec, _ []string, parallelism int) (scenario.PointResult, error) {
			if _, err := scenario.RunPointContext(ctx, big, []string{"converged"}, parallelism); err != nil {
				return scenario.PointResult{}, err
			}
			panic("after the fan-outs")
		},
	}
	shard := &Shard{ID: "s-1", Points: pts[:1], Measures: testSweep().Measures()}
	res := w.execute(context.Background(), shard)
	if !strings.Contains(res.Error, "panic: after the fan-outs") {
		t.Fatalf("panic not recovered into a shard error: %+v", res)
	}
	free := 0
	for core.TryAcquireCore() {
		free++
	}
	for range free {
		core.ReleaseCore()
	}
	if free != runtime.GOMAXPROCS(0) {
		t.Errorf("%d core slots free after a recovered point panic, want GOMAXPROCS = %d", free, runtime.GOMAXPROCS(0))
	}
}
