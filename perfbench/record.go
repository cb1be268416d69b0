package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// machine describes where a run was made.
type machine struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
	Dirty      bool   `json:"dirty"`
}

// describeMachine records the CPU, core counts, toolchain and the
// source revision under test (with a dirty flag; "unknown" outside a
// git checkout).
func describeMachine(root string) machine {
	m := machine{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return m
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", append([]string{"-C", root}, args...)...)
		// Never look for a repository above the tree under test.
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	if rev, err := git("rev-parse", "HEAD"); err == nil {
		m.Revision = rev
	}
	if st, err := git("status", "--porcelain", "--untracked-files=no"); err == nil {
		m.Dirty = st != ""
	}
	return m
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runRecord is everything a run saw, written next to the build output
// so medians and quartiles can be recomputed from the raw samples.
type runRecord struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Traced   bool               `json:"traced"`
	Started  time.Time          `json:"started"`
	Machine  machine            `json:"machine"`
	Samples  sampleLog          `json:"samples"`
	Metrics  map[string]summary `json:"metrics"`
	Digests  map[string]string  `json:"digests"`
	Spans    []span             `json:"spans,omitempty"`
}

// writeRecord writes the run record under .bench_build/records.
func (b *bench) writeRecord(name string, traced bool, started time.Time, metrics map[string]summary) error {
	dir := filepath.Join(b.root, ".bench_build", "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := runRecord{
		Workload: name,
		Seed:     b.seed,
		Seconds:  b.seconds.Seconds(),
		Traced:   traced,
		Started:  started.UTC(),
		Machine:  describeMachine(b.root),
		Samples:  b.log,
		Metrics:  metrics,
		Digests:  b.digests,
	}
	if b.ledger != nil {
		rec.Spans = b.ledger.spans()
	}
	blob, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s-%s.json", name, b.seed, mode, started.UTC().Format("20060102T150405.000000000")))
	return os.WriteFile(path, blob, 0o644)
}
