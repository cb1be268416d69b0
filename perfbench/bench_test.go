package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"selfishnet/internal/scenario"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		q       float64
		want    float64
		wantEff float64
	}{
		{n: 2000, q: 0.99, want: 1980, wantEff: 0.99}, // 20 samples beyond p99
		{n: 1000, q: 0.99, want: 990, wantEff: 0.99},  // exactly 10 beyond
		{n: 500, q: 0.99, want: 490, wantEff: 0.98},   // p99 unsupported: highest with 10 beyond
		{n: 200, q: 0.90, want: 180, wantEff: 0.90},
		{n: 100, q: 0.90, want: 90, wantEff: 0.90},
		{n: 40, q: 0.90, want: 30, wantEff: 0.75},
		{n: 15, q: 0.99, want: 8, wantEff: 0.5}, // no tail above the median
		{n: 4, q: 0.99, want: 2.5, wantEff: 0.5},
	} {
		got, eff := tail(seq(tc.n), tc.q)
		if got != tc.want || eff != tc.wantEff {
			t.Errorf("tail(1..%d, %v) = %v at q=%v, want %v at q=%v", tc.n, tc.q, got, eff, tc.want, tc.wantEff)
		}
		if tc.wantEff > 0.5 {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > got {
					beyond++
				}
			}
			if beyond < tailBeyond {
				t.Errorf("tail(1..%d, %v) = %v has %d samples beyond, want ≥ %d", tc.n, tc.q, got, beyond, tailBeyond)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\ttopogamed\nVmPeak:\t  812340 kB\nVmHWM:\t   15232 kB\nVmRSS:\t   14000 kB\n"
	got, err := parseVmHWM(strings.NewReader(status))
	if err != nil || got != 15232.0/1024 {
		t.Fatalf("parseVmHWM = %v, %v; want %v", got, err, 15232.0/1024)
	}
	if _, err := parseVmHWM(strings.NewReader("Name:\tx\nVmRSS:\t1 kB\n")); err == nil {
		t.Error("parseVmHWM without a VmHWM line: want an error")
	}
	if _, err := parseVmHWM(strings.NewReader("VmHWM:\tlots kB\n")); err == nil {
		t.Error("parseVmHWM with a malformed line: want an error")
	}
	own, err := readVmHWM(os.Getpid())
	if err != nil || own <= 0 {
		t.Fatalf("readVmHWM(self) = %v, %v", own, err)
	}
}

func TestDigestMismatchIsAFailure(t *testing.T) {
	b := &bench{digests: map[string]string{}}
	if b.verify("certify-star", []byte("not the certify table")) {
		t.Fatal("verify accepted a wrong output")
	}
	if b.log.Attempted != 1 || b.log.Failed != 1 || len(b.log.Failures) != 1 {
		t.Fatalf("mismatch logged as attempted=%d failed=%d", b.log.Attempted, b.log.Failed)
	}
	golden["test-output"] = digest([]byte("ok"))
	defer delete(golden, "test-output")
	if !b.verify("test-output", []byte("ok")) || b.log.Failed != 1 {
		t.Fatal("verify rejected a matching output")
	}
}

func TestZipfSequenceIsSeeded(t *testing.T) {
	a, b := zipfSequence(7, 500), zipfSequence(7, 500)
	if !slices.Equal(a, b) {
		t.Fatal("one seed gave two request sequences")
	}
	if slices.Equal(a, zipfSequence(8, 500)) {
		t.Fatal("seeds 7 and 8 gave the same request sequence")
	}
	for _, k := range a {
		if k < 0 || k >= zipfUniverse {
			t.Fatalf("key index %d outside the universe", k)
		}
	}
	// Zipf s = 1: the top key is drawn about 1/H(1024) ≈ 13% of the time.
	top := 0
	for _, k := range zipfSequence(1, 20000) {
		if k == 0 {
			top++
		}
	}
	if share := float64(top) / 20000; share < 0.11 || share > 0.16 {
		t.Errorf("top key share %.3f, want about 0.133", share)
	}
}

func TestZipfKeys(t *testing.T) {
	keys := zipfKeys()
	const cacheEntries = 256 // topogamed's default result cache
	if len(keys) <= cacheEntries {
		t.Fatalf("universe of %d keys does not exceed the %d-entry cache", len(keys), cacheEntries)
	}
	hashes := map[string]bool{}
	for i, k := range keys {
		if err := k.Validate(); err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		h, err := k.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if hashes[h] {
			t.Fatalf("key %d repeats an earlier key", i)
		}
		hashes[h] = true
		n := k.Metric.PeerCount()
		limit := localMaxN
		switch {
		case k.Metric.Family == "unit":
			limit = unitMaxN
		case k.Metric.Family == "clustered":
			limit = clusteredMaxN
		case k.Dynamics.Oracle == "exact":
			limit = exactMaxN
		}
		if n < 2 || n > limit {
			t.Errorf("key %d (%s, %s) has n=%d, cap %d", i, k.Metric.Family, k.Dynamics.Oracle, n, limit)
		}
		if k.Metric.Family == "clustered" && k.Game.Gamma <= 0 {
			t.Errorf("clustered key %d has no congestion", i)
		}
	}
	for i, k := range zipfKeys() {
		if h, _ := k.Hash(); h != mustHash(t, keys[i]) {
			t.Fatalf("key %d differs between two builds of the universe", i)
		}
	}
}

func mustHash(t *testing.T, s scenario.Spec) string {
	t.Helper()
	h, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []def                   `json:"end_to_end"`
		PerLayer  []def                   `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, ours)
	}
	same := func(kind string, listed []def, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if l := listed[i]; l.Name != d.name || l.Unit != d.unit || l.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s/%s, benchmark %s/%s/%s", kind, i, l.Name, l.Unit, l.Better, d.name, d.unit, d.better)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
