package bench

import (
	"io"
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
