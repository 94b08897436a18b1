package cuttlefish

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// trajectoryRow is one performance claim in BENCH.json: a metric of one
// cfbench workload, measured on interleaved parent/change pairs.
type trajectoryRow struct {
	PR           int      `json:"pr"`
	Commit       string   `json:"commit,omitempty"` // the change; absent until it is committed
	Parent       string   `json:"parent"`           // the commit it was measured against
	Workload     string   `json:"workload"`
	Metric       string   `json:"metric"`
	Seeds        string   `json:"seeds"`
	Pairs        int      `json:"pairs"`
	Wins         int      `json:"wins"`
	ParentMedian float64  `json:"parent_median"`
	ChangeMedian float64  `json:"change_median"`
	ParentIQR    *float64 `json:"parent_iqr"`
	Note         string   `json:"note,omitempty"`
}

// TestTrajectoryRowsHoldTheirRule checks BENCH.json, the committed
// trajectory of performance claims, against the benchmark it cites: each
// row names a workload and end-to-end metric BENCHMARK.json declares, the
// parent commit, its seeds and at least ten pairs, and a row that records the
// parent's IQR meets the claim rule — the change wins at least nine in
// ten pairs, and its median beats the parent's, in the metric's better
// direction, by more than that IQR.
func TestTrajectoryRowsHoldTheirRule(t *testing.T) {
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string `json:"name"`
			Better string `json:"better"`
		} `json:"end_to_end"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	workloads, better := map[string]bool{}, map[string]string{}
	for _, w := range bench.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range bench.EndToEnd {
		better[m.Name] = m.Better
	}

	raw, err = os.ReadFile("BENCH.json")
	if err != nil {
		t.Fatal(err)
	}
	var traj struct {
		Rule string          `json:"rule"`
		Rows []trajectoryRow `json:"rows"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&traj); err != nil {
		t.Fatalf("BENCH.json: %v", err)
	}
	if traj.Rule == "" || len(traj.Rows) == 0 {
		t.Fatal("BENCH.json states no rule or no rows")
	}
	commit := regexp.MustCompile(`^[0-9a-f]{7,40}$`)
	for _, r := range traj.Rows {
		if !commit.MatchString(r.Parent) || r.Commit != "" && !commit.MatchString(r.Commit) {
			t.Errorf("PR %d: parent %q or commit %q is not an abbreviated hash", r.PR, r.Parent, r.Commit)
		}
		if !workloads[r.Workload] {
			t.Errorf("PR %d: workload %q is not in BENCHMARK.json", r.PR, r.Workload)
		}
		dir, ok := better[r.Metric]
		if !ok {
			t.Errorf("PR %d: metric %q is not an end-to-end metric of BENCHMARK.json", r.PR, r.Metric)
			continue
		}
		if r.PR <= 0 || r.Seeds == "" || r.Pairs < 10 || r.Wins < 0 || r.Wins > r.Pairs || r.ParentMedian <= 0 || r.ChangeMedian <= 0 {
			t.Errorf("PR %d: incomplete row %+v (want seeds, at least 10 pairs, wins within them, positive medians)", r.PR, r)
			continue
		}
		if r.ParentIQR == nil {
			continue
		}
		gain := r.ChangeMedian - r.ParentMedian
		if dir == "lower" {
			gain = -gain
		}
		if 10*r.Wins < 9*r.Pairs || gain <= *r.ParentIQR {
			t.Errorf("PR %d: %s on %s, %g -> %g with %d/%d wins and parent IQR %g, does not meet the rule",
				r.PR, r.Metric, r.Workload, r.ParentMedian, r.ChangeMedian, r.Wins, r.Pairs, *r.ParentIQR)
		}
	}
}
