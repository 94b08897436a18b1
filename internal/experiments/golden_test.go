package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/governor"
	"repro/internal/memo"
	"repro/internal/report"
	"repro/internal/scenario"
)

// goldenDigestsFile pins the canonical report bytes of every harness.
// Refactors of the simulation path must leave it byte-identical; a change
// that moves report bytes on purpose regenerates it from the test log.
const goldenDigestsFile = "testdata/report_digests.json"

// goldenOptions keep every harness short while still running each one
// end to end.
func goldenOptions() Options {
	o := DefaultOptions()
	o.Scale = 0.03
	o.Reps = 1
	o.WarmupSec = 0.25
	return o
}

func reportDigest(rep *report.RunReport) (string, error) {
	data, err := rep.Encode()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// sweepReport renders Sweep's grid points as a report so they digest like
// every other harness.
func sweepReport(pts []SweepPoint) *report.RunReport {
	r := report.New("sweep", "cf_ghz", "uf_ghz", "seconds", "joules", "edp", "jpi")
	for _, p := range pts {
		r.AddRow(p.CF.GHz(), p.UF.GHz(), p.Seconds, p.Joules, p.EDP, p.JPI)
	}
	return r
}

// runDigests digests the "run" report of every registry workload under
// every governor. With a memo tier only the synthetic scenarios run, since
// they are the only entries the tier serves.
func runDigests(t *testing.T, tier *memo.Tier) map[string]string {
	t.Helper()
	type job struct{ workload, gov string }
	var jobs []job
	for _, w := range scenario.Names() {
		if e, _ := scenario.Get(w); tier != nil && e.Def == nil {
			continue
		}
		for _, g := range governor.Names() {
			jobs = append(jobs, job{w, g})
		}
	}
	digests := make([]string, len(jobs))
	base := goldenOptions()
	err := forEach(len(jobs), base, func(i int) error {
		o := base
		o.Governor = jobs[i].gov
		o.Memo = tier
		o.Workers = 1
		o.Benchmark = jobs[i].workload
		rep, err := RunOneReport(o)
		if err != nil {
			return err
		}
		digests[i], err = reportDigest(rep)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(jobs))
	for i, j := range jobs {
		out["run/"+j.workload+"/"+j.gov] = digests[i]
	}
	return out
}

// TestReportDigestsUnchanged regenerates every pinned report and compares
// its SHA-256 against the committed digests: each experiment harness
// except oracle (whose daemon half resolves no slab at this scale; its
// sweep half is pinned directly), a strided Sweep, and the "run" report
// of every workload under every governor — memo off, then cold and warm
// against one snapshot tier, all three required to agree.
func TestReportDigestsUnchanged(t *testing.T) {
	got := map[string]string{}
	o := goldenOptions()
	for _, name := range Names {
		if name == "oracle" {
			continue
		}
		e := o
		e.Experiment, e.Benchmark = name, "Heat-irt"
		rep, err := BuildReport(e)
		if err == nil {
			got["experiment/"+name], err = reportDigest(rep)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	pts, err := Sweep("UTS", o, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got["sweep/UTS"], err = reportDigest(sweepReport(pts)); err != nil {
		t.Fatal(err)
	}
	for k, v := range runDigests(t, nil) {
		got[k] = v
	}

	tier := memo.New(0, nil)
	for _, pass := range []string{"cold", "warm"} {
		for k, v := range runDigests(t, tier) {
			if got[k] != v {
				t.Errorf("%s memo pass: %s digest %s differs from the memo-free run's %s", pass, k, v, got[k])
			}
		}
	}

	fresh, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	fresh = append(fresh, '\n')
	committed, err := os.ReadFile(filepath.FromSlash(goldenDigestsFile))
	if err != nil {
		t.Fatalf("%v (regenerated digests:\n%s)", err, fresh)
	}
	if bytes.Equal(committed, fresh) {
		return
	}
	var want map[string]string
	if err := json.Unmarshal(committed, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(got)+len(want))
	for k := range got {
		keys = append(keys, k)
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: digest %q, committed %q", k, got[k], want[k])
		}
	}
	t.Logf("regenerated digests:\n%s", fresh)
}
