package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/service"
)

// serveProc is one cfserve process started by the test.
type serveProc struct {
	cmd     *exec.Cmd
	base    string
	logPath string        // the process's stdout and stderr
	done    chan struct{} // closed once the process has been waited for
	err     error         // the exit status, valid after done
}

// log returns what the process has printed so far.
func (p *serveProc) log() string {
	data, _ := os.ReadFile(p.logPath) // a missing log is reported as empty
	return string(data)
}

// startCfserve runs the binary on a free loopback port and returns once
// /healthz answers. The port is free when probed but not reserved, so a
// process that exits before it answers is retried on another port.
func startCfserve(t *testing.T, bin string, args ...string) *serveProc {
	t.Helper()
	logf, err := os.Create(filepath.Join(t.TempDir(), "cfserve.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close() // the child holds its own descriptor
	for attempt := 0; attempt < 3; attempt++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := l.Addr().String()
		l.Close()
		p := &serveProc{
			cmd:     exec.Command(bin, append([]string{"-addr", addr}, args...)...),
			base:    "http://" + addr,
			logPath: logf.Name(),
			done:    make(chan struct{}),
		}
		p.cmd.Stdout, p.cmd.Stderr = logf, logf
		if err := p.cmd.Start(); err != nil {
			t.Fatal(err)
		}
		go func() {
			p.err = p.cmd.Wait()
			close(p.done)
		}()
		t.Cleanup(func() {
			_ = p.cmd.Process.Kill() // fails only once it has exited
			<-p.done
		})
		if p.awaitHealthy(t) {
			return p
		}
	}
	t.Fatal("cfserve never answered /healthz")
	return nil
}

// awaitHealthy polls /healthz until it answers 200 (true) or the process
// exits (false).
func (p *serveProc) awaitHealthy(t *testing.T) bool {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			t.Logf("cfserve exited before answering (%v):\n%s", p.err, p.log())
			return false
		case <-time.After(20 * time.Millisecond):
		}
		if resp, err := http.Get(p.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return true
			}
		}
	}
	t.Fatalf("cfserve did not answer /healthz within 30s:\n%s", p.log())
	return false
}

// do sends one request and returns the response with its body read.
func (p *serveProc) do(t *testing.T, method, path, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, p.base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: %d %s", method, path, resp.StatusCode, data)
	}
	return resp, data
}

// cacheInfo reads the tier sizes a GET or DELETE of /v1/cache reports.
func cacheInfo(t *testing.T, data []byte) (lru, stored int) {
	t.Helper()
	var info service.CacheInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatalf("cache info %s: %v", data, err)
	}
	if info.Store == nil {
		t.Fatalf("cache info %s has no store tier", data)
	}
	return info.Entries, info.Store.Entries
}

// TestServeCacheRoundTripAndDrain drives a built cfserve binary over
// loopback HTTP: the same table1 spec twice is a miss then a hit with
// byte-identical, decodable bodies; the LRU and the -store tier each hold
// it once and a DELETE empties both; SIGINT drains the server to exit 0.
// A separate process is the point — the binary's flags, signal handling
// and exit status are what run in production.
func TestServeCacheRoundTripAndDrain(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "cfserve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build cfserve: %v\n%s", err, out)
	}
	p := startCfserve(t, bin, "-store", filepath.Join(dir, "store"))

	const spec = `{"experiment":"table1","scale":0.02,"reps":1}`
	var bodies [2][]byte
	for i, want := range []string{"miss", "hit"} {
		resp, body := p.do(t, http.MethodPost, "/v1/runs", spec)
		if got := resp.Header.Get(service.HeaderCache); got != want {
			t.Fatalf("request %d: %s %q, want %q", i+1, service.HeaderCache, got, want)
		}
		bodies[i] = body
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatal("the cache hit's body differs from the executed run's")
	}
	if _, err := report.Decode(bodies[1]); err != nil {
		t.Fatalf("served body is not a report: %v", err)
	}

	_, data := p.do(t, http.MethodGet, "/v1/cache", "")
	if lru, stored := cacheInfo(t, data); lru != 1 || stored != 1 {
		t.Errorf("after one run: %d LRU and %d store entries, want 1 and 1", lru, stored)
	}
	_, data = p.do(t, http.MethodDelete, "/v1/cache", "")
	if lru, stored := cacheInfo(t, data); lru != 0 || stored != 0 {
		t.Errorf("after purge: %d LRU and %d store entries, want 0 and 0", lru, stored)
	}

	if err := p.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("cfserve did not drain within 30s after SIGINT:\n%s", p.log())
	}
	if p.err != nil {
		t.Fatalf("cfserve exit after SIGINT: %v\n%s", p.err, p.log())
	}
}
