package benchmark

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one cfserve process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has been waited for
	err  error         // the process's exit status, valid after done
}

// startServer runs cfserve on a free loopback port with its output
// appended to logPath, and returns once /healthz answers.
func startServer(ctx context.Context, bin, logPath string, args ...string) (*server, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cfserve log: %w", err)
	}
	defer logf.Close() // the child holds its own descriptor
	// The port is free when probed but not reserved; a lost race shows as
	// an early exit and the next attempt takes another port.
	for attempt := 0; ; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
		cmd.Stdout, cmd.Stderr = logf, logf
		// A generator killed outright must not leave cfserve running, or
		// stopped by paused.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start cfserve: %w", err)
		}
		s := &server{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
		go func() {
			s.err = cmd.Wait()
			close(s.done)
		}()
		err = s.awaitHealthy(ctx)
		if err == nil {
			return s, nil
		}
		_ = s.stop() // the health failure is the error worth reporting
		if ctx.Err() != nil || attempt == 2 {
			return nil, fmt.Errorf("cfserve did not become healthy (log %s): %w", logPath, err)
		}
	}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("probe free port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// awaitHealthy polls /healthz every 100 µs: setup_s is a few milliseconds,
// and a coarser poll would quantize it.
func (s *server) awaitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return fmt.Errorf("exited: %v", s.err)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Microsecond):
		}
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
	}
	return errors.New("timed out")
}

// stop drains cfserve gracefully (SIGINT), kills it if the drain hangs,
// and returns once the process has exited.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(os.Interrupt) // fails only if it already exited
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return errors.New("cfserve did not drain within 30s; killed")
	}
	if s.err != nil {
		return fmt.Errorf("cfserve exit: %w", s.err)
	}
	return nil
}

// paused runs fn with cfserve stopped (SIGSTOP), so that nothing cfserve
// does — background work included — runs alongside fn.
func (s *server) paused(fn func()) error {
	if err := s.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		return fmt.Errorf("pause cfserve: %w", err)
	}
	fn()
	if err := s.cmd.Process.Signal(syscall.SIGCONT); err != nil {
		return fmt.Errorf("resume cfserve: %w", err)
	}
	return nil
}

// rssMiB reads the process's resident set size.
func (s *server) rssMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read cfserve status: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmRSS %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmRSS in cfserve status")
}

// rssSamples is how many times an rssSampler reads the resident set.
const rssSamples = 8

// rssSampler reads cfserve's resident set before every step-th request
// of the measured stream, rssSamples times, so that the reads fall at the
// same request counts however fast the machine runs: cfserve keeps an
// index entry for every result and snapshot it stores, and its resident
// set grows with the requests it has executed.
type rssSampler struct {
	srv  *server
	step int
	mu   sync.Mutex
	mib  []float64
	err  error
}

// at is a cursor hook.
func (s *rssSampler) at(i int) {
	if i == 0 || i%s.step != 0 || i > rssSamples*s.step {
		return
	}
	v, err := s.srv.rssMiB()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.err = err
		return
	}
	s.mib = append(s.mib, v)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux ABI Go supports.
const clockTicks = 100

// cpuSeconds reads the process's user+system CPU time.
func (s *server) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read cfserve stat: %w", err)
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short cfserve stat")
	}
	var ticks float64
	for _, field := range f[11:13] {
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return 0, fmt.Errorf("parse cfserve stat: %w", err)
		}
		ticks += v
	}
	return ticks / clockTicks, nil
}
