package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"testing"

	"sphinx/internal/dataset"
)

// TestFailoverExperimentSmoke runs the MN-loss chaos experiment at reduced
// scale and requires every one of its verdicts to hold (see
// FailoverReport.gates). sphinxbench enforces the same list.
func TestFailoverExperimentSmoke(t *testing.T) {
	cfg := smallConfig(dataset.U64)
	cfg.Keys = 6000
	cfg.OpsPerWorker = 300
	rep, err := Failover(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Verdicts) == 0 {
		t.Fatal("failover report carries no verdicts")
	}
	for _, v := range rep.Verdicts {
		if !v.Pass {
			t.Errorf("verdict %s failed: %g vs %g", v.Name, v.LHS, v.RHS)
		}
	}
}

// TestReportKeepsEveryDataset runs the failover experiment on both paper
// datasets and merges the parts the way sphinxbench does without
// -dataset: the report must keep one sub-report per dataset, and every
// dataset's verdicts.
func TestReportKeepsEveryDataset(t *testing.T) {
	base := smallConfig(dataset.U64)
	base.OpsPerWorker = 200
	rep := NewJSONReport("failover", base)
	verdicts := 0
	for _, cfg := range DatasetConfigs(base) {
		fo, err := Failover(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Dataset, err)
		}
		verdicts += len(fo.Verdicts)
		rep.Merge(JSONReport{Failover: []*FailoverReport{fo}})
	}
	var got []string
	for _, fo := range rep.Failover {
		got = append(got, fo.Dataset)
	}
	if want := []string{dataset.U64.String(), dataset.Email.String()}; !slices.Equal(got, want) {
		t.Fatalf("report keeps failover sub-reports for %v, want %v", got, want)
	}
	if n := len(rep.AllVerdicts()); n != verdicts || n == 0 {
		t.Fatalf("report carries %d verdicts, the two runs %d", n, verdicts)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Failover []struct {
			Dataset string `json:"dataset"`
		} `json:"failover"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil || len(decoded.Failover) != 2 {
		t.Fatalf("BENCH_failover.json holds %d failover sub-reports (err %v), want 2", len(decoded.Failover), err)
	}
}
