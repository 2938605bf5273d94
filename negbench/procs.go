package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// proc is one program under test running as a child process.
type proc struct {
	name string
	log  string // path of the file holding its output
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited and been reaped
	err  error
}

// procs tracks every child the benchmark starts so that all of them are
// stopped, and waited for, however the run ends.
type procs struct{ live []*proc }

// start launches bin with args, its output going to logPath. The child is
// killed if the benchmark dies first.
func (ps *procs) start(name, logPath, bin string, args ...string) (*proc, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, log: logPath, cmd: cmd, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		log.Close()
		close(p.done)
	}()
	ps.live = append(ps.live, p)
	return p, nil
}

// stop sends SIGTERM, waits up to ten seconds for a graceful exit, then
// kills; it returns once the process has been reaped.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// exited reports whether the process has ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stopAll stops every child still running, newest first.
func (ps *procs) stopAll() {
	for i := len(ps.live) - 1; i >= 0; i-- {
		ps.live[i].stop()
	}
	ps.live = nil
}

// freeAddr returns a loopback address with a port that was free a moment ago.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// getJSON fetches url and decodes its JSON body into v.
func getJSON(ctx context.Context, client *http.Client, url string, v any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if v != nil {
		if err := json.Unmarshal(b, v); err != nil {
			return resp.StatusCode, fmt.Errorf("GET %s: %w", url, err)
		}
	}
	return resp.StatusCode, nil
}

// waitFor polls ready every 10ms until it returns true, p dies or the
// timeout passes.
func waitFor(p *proc, timeout time.Duration, ready func() bool) error {
	deadline := time.Now().Add(timeout)
	for !ready() {
		if p.exited() {
			return fmt.Errorf("%s exited before it was ready: %v (see %s)", p.name, p.err, p.log)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v (see %s)", p.name, timeout, p.log)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// runTimed runs bin to completion and returns its wall time and peak RSS in
// MiB (from the child's rusage).
func runTimed(ps *procs, name, logPath, bin string, args ...string) (wall time.Duration, rssMB float64, err error) {
	t0 := time.Now()
	p, err := ps.start(name, logPath, bin, args...)
	if err != nil {
		return 0, 0, err
	}
	<-p.done
	wall = time.Since(t0)
	ps.forget(p)
	if p.err != nil {
		return wall, 0, fmt.Errorf("%s: %w (see %s)", name, p.err, logPath)
	}
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return wall, rssMB, nil
}

// forget drops a reaped process from the live list.
func (ps *procs) forget(p *proc) {
	for i, q := range ps.live {
		if q == p {
			ps.live = append(ps.live[:i], ps.live[i+1:]...)
			return
		}
	}
}
