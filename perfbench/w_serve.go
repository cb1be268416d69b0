package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"selfishnet/internal/scenario"
	"selfishnet/internal/serve"
)

// serveRequests is the length of one serve-zipf pass: a fresh daemon
// answers this many requests from the seed's Zipf sequence.
const serveRequests = 4000

// serveClients is the number of closed-loop clients (the box's cores).
const serveClients = 2

// serveInputs are the keys, their request bodies and one seed's Zipf
// sequence.
type serveInputs struct {
	keys   []scenario.Spec
	bodies [][]byte
	seq    []int
}

func newServeInputs(seed uint64) (*serveInputs, error) {
	in := &serveInputs{keys: zipfKeys(), seq: zipfSequence(seed, serveRequests)}
	for _, k := range in.keys {
		body, err := json.Marshal(k)
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

// firstBodies remembers each key's first response body; every later
// response for the key must equal it.
type firstBodies struct {
	mu   sync.Mutex
	body map[int][]byte
}

// check stores or compares a response body and reports whether it is
// consistent with the key's first one.
func (f *firstBodies) check(key int, body []byte) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if first, ok := f.body[key]; ok {
		return bytes.Equal(first, body)
	}
	f.body[key] = body
	return true
}

// digest is the digest of the distinct bodies in key order.
func (f *firstBodies) digest() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]int, 0, len(f.body))
	for k := range f.body {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var all bytes.Buffer
	for _, k := range keys {
		fmt.Fprintf(&all, "%d:", k)
		all.Write(f.body[k])
	}
	return digest(all.Bytes())
}

// servePass is the outcome of one pass against a fresh daemon.
type servePass struct {
	setup, wall time.Duration
	rss, cpu    float64
	counters    map[string]float64
	bodies      *firstBodies
}

// serveSample is the outcome of one request.
type serveSample struct {
	d   time.Duration
	hit bool
	err string
}

// closedLoop sends the keys of seq to the daemon at addr from
// serveClients closed-loop clients and returns every outcome. Each body
// must equal the key's first body in seen; pass collects this pass's.
func closedLoop(addr string, in *serveInputs, seq []int, seen, pass *firstBodies) []serveSample {
	var next atomic.Int64
	results := make([][]serveSample, serveClients)
	var wg sync.WaitGroup
	for w := range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(addr)
			defer c.close()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				key := seq[i]
				t0 := time.Now()
				resp, body, err := c.do(http.MethodPost, "/v1/run", in.bodies[key])
				s := serveSample{d: time.Since(t0)}
				switch {
				case err != nil:
					s.err = err.Error()
				case resp.StatusCode != http.StatusOK:
					s.err = fmt.Sprintf("key %d: %s: %s", key, resp.Status, bytes.TrimSpace(body))
				case !seen.check(key, body):
					s.err = fmt.Sprintf("key %d: body differs from the key's first response", key)
				default:
					pass.check(key, body)
					s.hit = resp.Header.Get("X-Cache") == "hit"
				}
				results[w] = append(results[w], s)
			}
		}()
	}
	wg.Wait()
	var all []serveSample
	for _, rs := range results {
		all = append(all, rs...)
	}
	return all
}

// runServePass starts a fresh topogamed with default flags, sends it
// the Zipf sequence and logs each request.
func (b *bench) runServePass(in *serveInputs, seen *firstBodies) (servePass, error) {
	d, c, setup, err := b.launch(0)
	if err != nil {
		return servePass{}, err
	}
	pass := servePass{setup: setup, bodies: &firstBodies{body: map[int][]byte{}}}
	start := time.Now()
	samples := closedLoop(d.addr, in, in.seq, seen, pass.bodies)
	pass.wall = time.Since(start)
	pass.counters, err = c.counters()
	if err != nil {
		b.shutdown(d, c)
		return servePass{}, err
	}
	pass.rss, pass.cpu, err = b.shutdown(d, c)
	if err != nil {
		return servePass{}, err
	}
	for _, s := range samples {
		switch {
		case s.err != "":
			b.log.fail("%s", s.err)
		case s.hit:
			b.log.op(s.d, &b.log.All, &b.log.Hit)
		default:
			b.log.op(s.d, &b.log.All, &b.log.Miss)
		}
	}
	return pass, nil
}

func measureServe(b *bench) error {
	in, err := newServeInputs(b.seed)
	if err != nil {
		return err
	}
	if err := b.setupSamples(0, func(int) []string { return nil }); err != nil {
		return err
	}
	seen := &firstBodies{body: map[int][]byte{}}
	var want string
	return b.passes(func(i int) error {
		p, err := b.runServePass(in, seen)
		if err != nil {
			return err
		}
		// Every pass sends the same sequence to a fresh daemon, so the
		// distinct bodies must agree pass to pass.
		if got := p.bodies.digest(); i == 0 {
			want = got
			b.digests["serve-zipf"] = got
		} else if got != want {
			b.log.fail("serve-zipf pass %d: distinct-body digest %s, want %s", i, got, want)
		}
		b.log.Setup = append(b.log.Setup, p.setup.Seconds())
		b.log.Wall = append(b.log.Wall, p.wall.Seconds())
		b.log.RSS = append(b.log.RSS, p.rss)
		return nil
	})
}

// serveReplicaKeys is how many distinct keys the traced run replays
// through the layer-by-layer replica.
const serveReplicaKeys = 64

func traceServe(b *bench) error {
	in, err := newServeInputs(b.seed)
	if err != nil {
		return err
	}
	seen := &firstBodies{body: map[int][]byte{}}
	p, err := b.runServePass(in, seen)
	if err != nil {
		return err
	}
	m := p.counters
	if looked := m["cache_hits"] + m["cache_misses"]; looked > 0 {
		b.layers["serve.hit_ratio"] = m["cache_hits"] / looked
	}
	b.layers["serve.evictions"] = m["cache_evictions"]
	b.layers["serve.rejected"] = m["shed_expensive"] + m["shed_saturated"] + m["body_too_large"] + m["shutdown_rejected"]
	b.processLayers(p.cpu, p.wall.Seconds())

	// The distinct keys of the pass, in key order, replayed in-process.
	keys := make([]int, 0, len(p.bodies.body))
	for k := range p.bodies.body {
		keys = append(keys, k)
	}
	sort.Ints(keys)

	srv, err := serve.New(serve.Config{})
	if err != nil {
		return err
	}
	defer srv.Close(context.Background())
	hitUS, err := b.handlerHit(srv.Handler(), in.bodies[in.seq[0]], p.bodies.body[in.seq[0]])
	if err != nil {
		return err
	}
	b.layers["serve.handler_hit_us"] = hitUS

	var decodeUS, hashUS, runMS, encodeUS []float64
	replayed := &firstBodies{body: map[int][]byte{}}
	tables := map[int][]string{}
	for _, k := range keys {
		t0 := time.Now()
		spec, err := scenario.ReadSpec(bytes.NewReader(in.bodies[k]))
		t1 := time.Now()
		if err != nil {
			return err
		}
		if _, err := spec.Hash(); err != nil {
			return err
		}
		t2 := time.Now()
		tb, err := scenario.RunSpecContext(b.ctx, spec, scenario.Params{})
		t3 := time.Now()
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := tb.WriteJSON(&buf); err != nil {
			return err
		}
		t4 := time.Now()
		decodeUS = append(decodeUS, float64(t1.Sub(t0))/1e3)
		hashUS = append(hashUS, float64(t2.Sub(t1))/1e3)
		runMS = append(runMS, float64(t3.Sub(t2))/1e6)
		encodeUS = append(encodeUS, float64(t4.Sub(t3))/1e3)
		replayed.check(k, buf.Bytes())
		tables[k] = tb.Rows[0]
	}
	b.layers["scenario.decode_us"] = median(decodeUS)
	b.layers["scenario.hash_us"] = median(hashUS)
	b.layers["scenario.run_ms"] = median(runMS)
	b.layers["export.encode_us"] = median(encodeUS)
	if got, want := replayed.digest(), p.bodies.digest(); got != want {
		b.log.fail("serve-zipf: in-process distinct-body digest %s, daemon %s", got, want)
	} else {
		b.log.checked()
	}

	// The layer-by-layer replica of the first keys, checked row by row
	// against the engine's own tables.
	var counts layerCounts
	led := b.ledger
	replicaKeys := keys[:min(serveReplicaKeys, len(keys))]
	untraced := 0.0
	for i, k := range replicaKeys {
		untraced += runMS[i] / 1e3
		root, closeRoot := led.open(spanRoot, 0)
		res, err := replicaPoint(b.ctx, led, root, &counts, in.keys[k], in.keys[k].Measures, 0)
		closeRoot()
		if err != nil {
			return err
		}
		if got, want := strings.Join(res.Row, "|"), strings.Join(tables[k], "|"); got != want {
			b.log.fail("serve-zipf key %d: replica row %s, engine row %s", k, got, want)
			continue
		}
		b.log.checked()
	}
	b.dynamicsLayers(&counts)
	b.layers["core.instance_s"] = led.total("core.instance")
	b.traceLayers(untraced)
	return nil
}

// handlerHit is the median time the service handler takes to answer a
// cached key, called directly through a response recorder.
func (b *bench) handlerHit(h http.Handler, body, want []byte) (float64, error) {
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		return rec
	}
	if rec := post(); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		return 0, fmt.Errorf("handler: first request answered %d with a different body", rec.Code)
	}
	const reps = 200
	us := make([]float64, reps)
	for i := range us {
		t0 := time.Now()
		rec := post()
		us[i] = float64(time.Since(t0)) / 1e3
		if rec.Header().Get("X-Cache") != "hit" || !bytes.Equal(rec.Body.Bytes(), want) {
			b.log.fail("handler: cached key answered %d (X-Cache %q) or with a different body", rec.Code, rec.Header().Get("X-Cache"))
			return median(us[:i+1]), nil
		}
	}
	b.log.checked()
	return median(us), nil
}
