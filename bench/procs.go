package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one server subprocess the benchmark started.
type proc struct {
	name string
	url  string // base URL, http://127.0.0.1:port
	log  string // path of its stderr log
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
	err  error         // Wait's result, valid after done
}

// procs tracks every process the benchmark starts so that none outlives
// it: stopAll drains the servers with SIGTERM, killAll is the last resort
// on an error path or an interrupt. Engine children are not servers; they
// are tracked from start to reaping so killAll can kill them too.
type procs struct {
	mu      sync.Mutex
	live    []*proc
	engines map[*exec.Cmd]bool
}

// adopt tracks a started engine child; release stops tracking it once it
// has been reaped.
func (ps *procs) adopt(cmd *exec.Cmd) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.engines == nil {
		ps.engines = map[*exec.Cmd]bool{}
	}
	ps.engines[cmd] = true
}

func (ps *procs) release(cmd *exec.Cmd) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	delete(ps.engines, cmd)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// start launches the serve binary with args on the given port, logging
// to dir/name.log, and returns once /healthz answers.
func (ps *procs) start(bin, dir, name string, port int, args ...string) (*proc, error) {
	logPath := filepath.Join(dir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	p := &proc{
		name: name,
		url:  fmt.Sprintf("http://127.0.0.1:%d", port),
		log:  logPath,
		done: make(chan struct{}),
	}
	p.cmd = exec.Command(bin, append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, args...)...)
	p.cmd.Stdout = logf
	p.cmd.Stderr = logf
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	ps.mu.Lock()
	ps.live = append(ps.live, p)
	ps.mu.Unlock()
	if err := p.waitHealthy(30 * time.Second); err != nil {
		return nil, err
	}
	return p, nil
}

// waitHealthy polls /healthz until it answers 200, the process exits, or
// the deadline passes.
func (p *proc) waitHealthy(limit time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up (%v); log %s", p.name, p.err, p.log)
		default:
		}
		resp, err := client.Get(p.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not healthy after %v; log %s", p.name, limit, p.log)
}

// stop sends SIGTERM and waits for the graceful drain: the process must
// exit 0 and log "drained cleanly".
func (ps *procs) stop(p *proc) error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("signal %s: %w", p.name, err)
	}
	select {
	case <-p.done:
	case <-time.After(60 * time.Second):
		p.cmd.Process.Kill() //nolint:errcheck // already failing; Wait below reaps it
		<-p.done
		ps.forget(p)
		return fmt.Errorf("%s did not drain within 60s", p.name)
	}
	ps.forget(p)
	if p.err != nil {
		return fmt.Errorf("%s exited with %v; log %s", p.name, p.err, p.log)
	}
	logText, err := os.ReadFile(p.log)
	if err != nil {
		return err
	}
	if !bytes.Contains(logText, []byte("drained cleanly")) {
		return fmt.Errorf("%s exited without draining cleanly; log %s", p.name, p.log)
	}
	return nil
}

func (ps *procs) forget(p *proc) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for i, q := range ps.live {
		if q == p {
			ps.live = append(ps.live[:i], ps.live[i+1:]...)
			return
		}
	}
}

// stopAll drains every live process in reverse start order (a router
// before its replicas) and returns the first error.
func (ps *procs) stopAll() error {
	ps.mu.Lock()
	live := append([]*proc(nil), ps.live...)
	ps.mu.Unlock()
	var first error
	for i := len(live) - 1; i >= 0; i-- {
		if err := ps.stop(live[i]); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// killAll SIGKILLs whatever is still running and reaps the servers. An
// engine child is reaped by the goroutine that waits for it.
func (ps *procs) killAll() {
	ps.mu.Lock()
	live := append([]*proc(nil), ps.live...)
	ps.live = nil
	for cmd := range ps.engines {
		cmd.Process.Kill() //nolint:errcheck // best effort on an error path
	}
	ps.mu.Unlock()
	for _, p := range live {
		p.cmd.Process.Kill() //nolint:errcheck // best effort on an error path
		<-p.done
	}
}

// count reports how many started processes have not been reaped.
func (ps *procs) count() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.live) + len(ps.engines)
}

// peakRSSMB reads a live process's VmHWM (peak resident set) in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// maxRSS returns the largest peak RSS among the live processes.
func maxRSS(ps ...*proc) (float64, error) {
	var peak float64
	for _, p := range ps {
		mb, err := peakRSSMB(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		peak = max(peak, mb)
	}
	return peak, nil
}

// metricsDoc is the part of a server's /metrics the benchmark reads.
type metricsDoc struct {
	Counters map[string]uint64 `json:"counters"`
	Queued   int64             `json:"computes_queued"`
}

// scrape fetches p's /metrics.
func scrape(ctx context.Context, client *http.Client, p *proc) (metricsDoc, error) {
	var doc metricsDoc
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/metrics", nil)
	if err != nil {
		return doc, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("%s /metrics: status %d", p.name, resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	return doc, err
}
