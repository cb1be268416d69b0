package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cliRun is one finished invocation of a command-line program.
type cliRun struct {
	stdout []byte
	wall   time.Duration
	rssMiB float64 // peak resident set (the kernel's hiwater mark)
	cpuS   float64 // user + system time
}

// runCLI runs bin with args to completion. A non-zero exit is an error
// carrying the program's standard error.
func runCLI(ctx context.Context, bin string, args ...string) (cliRun, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = diesWithParent()
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return cliRun{}, fmt.Errorf("%s %s: %w: %s", bin, strings.Join(args, " "), err, bytes.TrimSpace(stderr.Bytes()))
	}
	return cliRun{
		stdout: stdout.Bytes(),
		wall:   wall,
		rssMiB: maxRSSMiB(cmd.ProcessState),
		cpuS:   cpuSeconds(cmd.ProcessState),
	}, nil
}

// diesWithParent makes a child process get SIGKILL when the benchmark
// exits, so a benchmark that is killed leaves no program running.
func diesWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// maxRSSMiB is the exited process's peak resident set: getrusage's
// ru_maxrss, the same hiwater counter /proc/<pid>/status shows as VmHWM.
func maxRSSMiB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // KiB → MiB
	}
	return 0
}

func cpuSeconds(ps *os.ProcessState) float64 {
	return (ps.UserTime() + ps.SystemTime()).Seconds()
}

// parseVmHWM reads the VmHWM line of a /proc/<pid>/status document.
func parseVmHWM(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("perfbench: malformed VmHWM line %q", sc.Text())
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("perfbench: malformed VmHWM line %q: %w", sc.Text(), err)
		}
		return float64(kb) / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("perfbench: no VmHWM line in process status")
}

// readVmHWM is the peak resident set of a running process, in MiB.
func readVmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseVmHWM(f)
}

// daemon is a topogamed process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	addr string // host:port it listens on
	done chan struct{}
	logs bytes.Buffer // its standard error so far, guarded by mu
	mu   sync.Mutex
}

// startDaemon starts bin on a loopback port of the kernel's choosing
// and returns once it has bound its listener (it logs the address).
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.SysProcAttr = diesWithParent()
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		// Drain stderr until the process exits, handing over the
		// listening address on the way.
		defer close(d.done)
		sc := bufio.NewScanner(pipe)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on "); ok && !sent {
				addr, _, _ := strings.Cut(rest, " ")
				addrc <- addr
				sent = true
			}
			d.mu.Lock()
			d.logs.WriteString(line + "\n")
			d.mu.Unlock()
		}
		_, _ = io.Copy(io.Discard, pipe)
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.done:
		_ = cmd.Wait()
		return nil, fmt.Errorf("%s exited before listening: %s", bin, d.log())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s did not listen within 30s", bin)
	}
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.TrimSpace(d.logs.String())
}

// pid is the daemon's process id.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop shuts the daemon down (SIGTERM, then SIGKILL after a grace
// period), waits for it to exit and returns its CPU time.
func (d *daemon) stop() float64 {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	_ = d.cmd.Wait()
	return cpuSeconds(d.cmd.ProcessState)
}
