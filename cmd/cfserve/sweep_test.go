package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// summaryRe picks the counts out of a sweep's "sweep: <summary>" line.
var summaryRe = regexp.MustCompile(`executed: (\d+), cache hits: \d+, disk hits: \d+, failovers: (\d+), failed: (\d+)`)

// sweepCounts runs a sweep to completion with the built cuttlefish
// binary and returns its aggregate, its stderr and the summary's
// executed, failover and failed counts. onLine sees every stderr line as
// it is printed.
func sweepCounts(t *testing.T, cli string, onLine func(string), args ...string) (out []byte, log string, executed, failovers, failed int) {
	t.Helper()
	cmd := exec.Command(cli, append([]string{"sweep", "-spec", filepath.Join("..", "..", "examples", "sweeps", "small.json"), "-format", "json"}, args...)...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for sc := bufio.NewScanner(stderr); sc.Scan(); {
		b.WriteString(sc.Text() + "\n")
		onLine(sc.Text())
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("cuttlefish sweep: %v\n%s", err, b.String())
	}
	m := summaryRe.FindStringSubmatch(b.String())
	if m == nil {
		t.Fatalf("no sweep summary in:\n%s", b.String())
	}
	t.Log(m[0])
	n := func(s string) int { v, _ := strconv.Atoi(s); return v }
	return stdout.Bytes(), b.String(), n(m[1]), n(m[2]), n(m[3])
}

// TestSweepFailoverAcrossProcesses is the orchestration gate across real
// process boundaries. Two cfserve processes share one -store; a sweep of
// examples/sweeps/small.json fans out over both, and the first is
// SIGKILLed once two specs are done, severing its connections — the one
// test in which a store writer can die mid-append. The sweep must finish
// through failover with nothing failed. A warm re-run against the
// survivor must execute nothing, serving every spec from the shared
// store or its LRU, and both aggregates must be byte-identical: topology
// and cache tier are invisible in the output.
func TestSweepFailoverAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	serve, cli := buildCommand(t, dir, "cfserve"), buildCommand(t, dir, "cuttlefish")
	storeDir := filepath.Join(dir, "store")
	first := startCfserve(t, serve, "-store", storeDir)
	second := startCfserve(t, serve, "-store", storeDir)

	killed := false
	kill := func(line string) {
		if !killed && strings.HasPrefix(line, "sweep: 2/") {
			killed = true
			if err := first.cmd.Process.Kill(); err != nil {
				t.Errorf("kill the first backend: %v", err)
			}
		}
	}
	cold, log, _, failovers, failed := sweepCounts(t, cli, kill, "-backend", first.base, "-backend", second.base)
	if !killed {
		t.Fatalf("the sweep never reported two specs done:\n%s", log)
	}
	<-first.done
	if failed != 0 || failovers == 0 {
		t.Fatalf("cold sweep: %d failed, %d failovers; want 0 failed and a failover after the kill:\n%s", failed, failovers, log)
	}

	warm, log, executed, _, failed := sweepCounts(t, cli, func(string) {}, "-backend", second.base)
	if executed != 0 || failed != 0 {
		t.Fatalf("warm sweep: %d executed, %d failed; want every spec served from the shared store:\n%s", executed, failed, log)
	}
	if !bytes.Equal(cold, warm) {
		t.Error("the warm aggregate differs from the cold one")
	}
	if !json.Valid(warm) {
		t.Errorf("the aggregate is not JSON:\n%.300s", warm)
	}
	second.interruptAndWait(t)
}
