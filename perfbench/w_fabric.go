package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"selfishnet/internal/scenario"
)

// churnGrid is the fabric-churn sweep: uniform n = 32 under local
// search, α × seeds × churn rates × repairs (24 points). Its churn
// phases are join/leave event streams whose repairs run the masked
// exact search; n stays at 32 because larger grids stop converging.
const churnGrid = `{
  "name": "fabric-churn",
  "base": {
    "name": "churn-grid",
    "metric": {"family": "uniform", "n": 32},
    "game": {"alpha": 1},
    "dynamics": {"oracle": "local-search"},
    "churn": {"rate": 0.05, "duration": 5, "repair": "selfish"},
    "measures": ["converged", "links", "social-cost", "churn-rate", "churn-repair",
                 "churn-events", "restabilize-mean", "restabilize-max", "tail-stable"]
  },
  "alphas": [1, 2, 4],
  "seeds": [1, 2],
  "churn_rates": [0.05, 0.1],
  "repairs": ["selfish", "none"]
}
`

// fabricWorkers is the in-process worker count of the fabric daemon.
const fabricWorkers = 2

// jobDoc is the part of a job document the benchmark reads.
type jobDoc struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

// fabricPass is one fresh daemon's grid, run cold.
type fabricPass struct {
	setup, cold time.Duration
	rss, cpu    float64
	counters    map[string]float64
}

// runFabricPass starts a fresh fabric daemon on an empty content store
// and runs the grid once. The result must match the golden digest, the
// digest of topogame sweep -json's bytes for the grid; the traced run
// also compares the bytes with the CLI's directly.
func (b *bench) runFabricPass(pass int) (fabricPass, []byte, error) {
	d, c, setup, err := b.launch(fabricWorkers, b.fabricArgs(fmt.Sprintf("cas-%d", pass))...)
	if err != nil {
		return fabricPass{}, nil, err
	}
	p := fabricPass{setup: setup}
	start := time.Now()
	result, err := submitGrid(c)
	switch {
	case err != nil:
		b.log.fail("fabric-churn grid: %v", err)
	case b.verify("fabric-churn", result):
		p.cold = time.Since(start)
		b.log.op(p.cold, &b.log.All, &b.log.Miss)
	}
	if p.counters, err = c.counters(); err != nil {
		b.shutdown(d, c)
		return fabricPass{}, nil, err
	}
	if p.rss, p.cpu, err = b.shutdown(d, c); err != nil {
		return fabricPass{}, nil, err
	}
	return p, result, nil
}

// fabricArgs are the fabric daemon's flags, with a fresh content store
// directory of the given name.
func (b *bench) fabricArgs(store string) []string {
	return []string{"-fabric", "-fabric-workers", fmt.Sprint(fabricWorkers), "-cas", filepath.Join(b.tmp, store)}
}

// submitGrid posts the grid as a new job, waits for it and returns its
// result table.
func submitGrid(c *client) ([]byte, error) {
	resp, body, err := c.do(http.MethodPost, "/v1/sweep", []byte(churnGrid))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("POST /v1/sweep: %s, want 202: %s", resp.Status, bytes.TrimSpace(body))
	}
	var job jobDoc
	if err := json.Unmarshal(body, &job); err != nil {
		return nil, err
	}
	for job.State != "done" {
		if job.State == "failed" || job.State == "cancelled" {
			return nil, fmt.Errorf("job %s %s: %s", job.ID, job.State, job.Error)
		}
		time.Sleep(5 * time.Millisecond)
		if err := c.getJSON("/v1/jobs/"+job.ID, &job); err != nil {
			return nil, err
		}
	}
	resp, result, err := c.do(http.MethodGet, "/v1/jobs/"+job.ID+"/result", nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET result: %s", resp.Status)
	}
	return result, nil
}

func measureFabric(b *bench) error {
	if err := b.setupSamples(fabricWorkers, func(i int) []string {
		return b.fabricArgs(fmt.Sprintf("setup-%d", i))
	}); err != nil {
		return err
	}
	return b.passes(func(pass int) error {
		p, _, err := b.runFabricPass(pass)
		if err != nil {
			return err
		}
		b.log.Setup = append(b.log.Setup, p.setup.Seconds())
		if p.cold > 0 {
			b.log.Wall = append(b.log.Wall, p.cold.Seconds())
		}
		b.log.RSS = append(b.log.RSS, p.rss)
		return nil
	})
}

func traceFabric(b *bench) error {
	p, ref, err := b.runFabricPass(0)
	if err != nil || p.cold == 0 {
		return err // a failed grid is logged
	}
	// The fabric's bytes must equal topogame sweep -json's.
	grid, err := b.writeInput("fabric_churn.json", churnGrid)
	if err != nil {
		return err
	}
	cli, err := runCLI(b.ctx, filepath.Join(b.bin, "topogame"), "sweep", "-json", grid)
	switch {
	case err != nil:
		b.log.fail("%v", err)
	case !bytes.Equal(cli.stdout, ref):
		b.log.fail("fabric-churn: fabric result differs from topogame sweep -json (digest %s)", digest(cli.stdout))
	default:
		b.log.checked()
	}
	wall := p.cold.Seconds()
	m := p.counters
	b.layers["fabric.shards_completed"] = m["fabric_shards_completed"]
	b.layers["fabric.shards_reassigned"] = m["fabric_shards_reassigned"]
	b.layers["cas.puts"] = m["cas_puts"]
	b.layers["cas.bytes"] = m["cas_bytes"]
	b.processLayers(p.cpu, wall)

	sw, err := scenario.ReadSweep(strings.NewReader(churnGrid))
	if err != nil {
		return err
	}
	// The same points, one at a time, through the engine entry point
	// the fabric workers call.
	points := sw.Points()
	results := make([]scenario.PointResult, len(points))
	pointS := 0.0
	for i, spec := range points {
		t0 := time.Now()
		if results[i], err = scenario.RunPointContext(b.ctx, spec, sw.Measures(), 1); err != nil {
			return err
		}
		pointS += time.Since(t0).Seconds()
	}
	b.layers["fabric.point_s"] = pointS
	b.layers["fabric.idle_share"] = 1 - pointS/(fabricWorkers*wall)
	if err := b.checkTable(sw, results, ref); err != nil {
		return err
	}

	// The layer-by-layer replica on the fabric's two workers.
	var counts layerCounts
	led := b.ledger
	root, closeRoot := led.open(spanRoot, 0)
	tb, err := replicaSweep(b.ctx, led, root, &counts, sw, fabricWorkers, 1)
	closeRoot()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := tb.WriteJSON(&buf); err != nil {
		return err
	}
	if bytes.Equal(buf.Bytes(), ref) {
		b.log.checked()
	} else {
		b.log.fail("fabric-churn: replica table differs from topogame sweep -json (digest %s)", digest(buf.Bytes()))
	}
	b.dynamicsLayers(&counts)
	b.layers["core.instance_s"] = led.total("core.instance")
	b.layers["churn.run_s"] = led.total("churn.run")
	b.layers["churn.events"] = float64(counts.churnEvents)
	b.layers["churn.restabilize_moves"] = counts.churnMoves
	b.traceLayers(wall)
	return nil
}

// checkTable assembles point results into the sweep's table and checks
// it against ref.
func (b *bench) checkTable(sw scenario.Sweep, results []scenario.PointResult, ref []byte) error {
	tb, err := sw.Assemble(results)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := tb.WriteJSON(&buf); err != nil {
		return err
	}
	if bytes.Equal(buf.Bytes(), ref) {
		b.log.checked()
	} else {
		b.log.fail("fabric-churn: replayed points differ from topogame sweep -json (digest %s)", digest(buf.Bytes()))
	}
	return nil
}
