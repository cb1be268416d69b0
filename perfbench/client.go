package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"time"
)

// client is one closed-loop HTTP client with a single connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(addr string) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		base: "http://" + addr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response.
func (c *client) do(method, path string, body []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp, out, err
}

// getJSON fetches path and decodes a 200 response into v.
func (c *client) getJSON(path string, v any) error {
	resp, body, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// counters reads the daemon's /metrics document.
func (c *client) counters() (map[string]float64, error) {
	m := map[string]float64{}
	return m, c.getJSON("/metrics", &m)
}

// ready reports whether /healthz answers "ok" and, for a fabric
// daemon, the wanted number of in-process workers is live.
func (c *client) ready(fabricWorkers int) bool {
	var h struct {
		Status string `json:"status"`
	}
	if c.getJSON("/healthz", &h) != nil || h.Status != "ok" {
		return false
	}
	if fabricWorkers == 0 {
		return true
	}
	m, err := c.counters()
	return err == nil && m["fabric_workers_live"] == float64(fabricWorkers)
}

// launch starts a fresh topogamed with args and returns it once it is
// ready, with the set-up time from launch to ready.
func (b *bench) launch(fabricWorkers int, args ...string) (*daemon, *client, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(filepath.Join(b.bin, "topogamed"), args...)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient(d.addr)
	for !c.ready(fabricWorkers) {
		if time.Since(start) > 30*time.Second {
			c.close()
			d.stop()
			return nil, nil, 0, fmt.Errorf("topogamed not ready within 30s: %s", d.log())
		}
		time.Sleep(time.Millisecond)
	}
	return d, c, time.Since(start), nil
}

// setupSamples launches and stops the daemon setupLaunches times with
// args(i) and records each launch's set-up time, so the set-up median
// rests on more launches than a run has passes.
func (b *bench) setupSamples(fabricWorkers int, args func(i int) []string) error {
	const setupLaunches = 5
	for i := range setupLaunches {
		d, c, setup, err := b.launch(fabricWorkers, args(i)...)
		if err != nil {
			return err
		}
		if _, _, err := b.shutdown(d, c); err != nil {
			return err
		}
		b.log.Setup = append(b.log.Setup, setup.Seconds())
	}
	return nil
}

// shutdown records the daemon's peak resident set, stops it and
// returns its CPU time.
func (b *bench) shutdown(d *daemon, c *client) (rssMiB, cpuS float64, err error) {
	c.close()
	rssMiB, err = readVmHWM(d.pid())
	cpuS = d.stop()
	return rssMiB, cpuS, err
}
