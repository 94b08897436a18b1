// Command cfbench is the repository's benchmark. It builds cfserve from
// the checkout, drives each workload through fresh cfserve processes over
// loopback HTTP, checks every answer, and prints one line per (workload,
// metric) with its unit. The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the exit status
// is 1 when any check failed.
//
//	bash internal/benchmark/run.sh --workload hot-zipf --seed 3 --seconds 20 --trace 0
//	cd internal/benchmark && go run ./cmd/cfbench -seed 1
//
// -trace 0 reports the end-to-end metrics of BENCHMARK.json from an
// untraced server; -trace 1 reports the per-layer metrics from a traced
// server, cfserve's counters and direct calls into each layer. End-to-end
// durations and rates are normalized to a reference machine by the share
// of CPU time the hypervisor gave and by the speed of a probe run
// alongside (see normalize); the values as measured print as detail.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/benchmark"
)

// warmup is discarded before every window. A fresh cfserve on new
// directories answers cold-novel and memo-resume up to twice as slowly for
// about its first 10 s, with twice the kernel CPU time; from 12 s on their
// latency is flat across the window.
const warmup = 12 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run (empty = every workload)")
		seed     = flag.Int64("seed", 1, "seed the workload inputs derive from")
		seconds  = flag.Float64("seconds", 20, "measured window of the untraced pass, seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
		root     = flag.String("root", "../..", "repository root holding cmd/cfserve")
		workdir  = flag.String("workdir", "", "build and run directory (default <root>/.bench_build)")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "cfbench: -trace must be 0 or 1")
		return 2
	}
	workloads := benchmark.Workloads
	if *workload != "" {
		w, ok := benchmark.Lookup(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "cfbench: unknown workload %q\n", *workload)
			return 2
		}
		workloads = []benchmark.Workload{w}
	}
	if *workdir == "" {
		*workdir = filepath.Join(*root, ".bench_build")
	}
	// The generator and cfserve share the machine's CPUs; the generator
	// never runs more threads than there are CPUs.
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	bin, err := buildServer(ctx, *root, *workdir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cfbench: %v\n", err)
		return 1
	}

	summary := struct {
		Correct   bool                       `json:"correct"`
		Attempted int64                      `json:"attempted"`
		Failed    int64                      `json:"failed"`
		Metrics   map[string]benchmark.Value `json:"metrics"`
	}{Metrics: make(map[string]benchmark.Value)}
	var results []*benchmark.Result
	for _, w := range workloads {
		bad, err := benchmark.CheckDigests(w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cfbench: %v\n", err)
			return 1
		}
		res, err := benchmark.Run(ctx, w, benchmark.Options{
			Server:       bin,
			Dir:          filepath.Join(*workdir, "runs", fmt.Sprintf("%s-%d-%d", w.Name, *seed, os.Getpid())),
			Seed:         *seed,
			Window:       time.Duration(*seconds * float64(time.Second)),
			Warmup:       warmup,
			TracedWindow: 5 * time.Second,
			Trace:        *trace == 1,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "cfbench: %s: %v\n", w.Name, err)
			return 1
		}
		res.Failed += int64(len(bad))
		res.Failures = append(res.Failures, bad...)
		results = append(results, res)
		report(res)
		summary.Attempted += res.Attempted
		summary.Failed += res.Failed
		for name, v := range res.Metrics {
			if len(workloads) > 1 {
				name = w.Name + "/" + name
			}
			summary.Metrics[name] = v
		}
	}
	summary.Correct = summary.Failed == 0

	name := "all"
	if *workload != "" {
		name = *workload
	}
	raw, err := json.MarshalIndent(results, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(*workdir, fmt.Sprintf("cfbench-%s-%d-%d.json", name, *seed, *trace)), append(raw, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cfbench: write results: %v\n", err)
		return 1
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !summary.Correct {
		return 1
	}
	return 0
}

// buildServer builds cmd/cfserve from the repository at root.
func buildServer(ctx context.Context, root, workdir string) (string, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(workdir, "cfserve"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/cfserve")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build cfserve in %s: %w", root, err)
	}
	return bin, nil
}

// report prints one line per metric, the gated ones first in
// BENCHMARK.json order, then the detail, then notes and failures.
func report(r *benchmark.Result) {
	metrics := benchmark.EndToEnd
	if r.Trace {
		metrics = benchmark.PerLayer
	}
	for _, m := range metrics {
		fmt.Printf("%-12s %-34s %14.6g %s\n", r.Workload, m.Name, r.Metrics[m.Name].Value, m.Unit)
	}
	var names []string
	for name := range r.Detail {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Detail[name]
		fmt.Printf("%-12s %-34s %14.6g %s (detail)\n", r.Workload, name, v.Value, v.Unit)
	}
	for _, n := range r.Notes {
		fmt.Printf("%-12s note: %s\n", r.Workload, n)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(os.Stderr, "cfbench: %s: FAILED %s\n", r.Workload, f)
	}
	if r.Failed > 0 {
		fmt.Fprintf(os.Stderr, "cfbench: %s: %d of %d requests failed\n", r.Workload, r.Failed, r.Attempted)
	}
}
