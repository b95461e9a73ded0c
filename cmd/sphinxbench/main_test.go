package main

import (
	"strings"
	"testing"

	"sphinx/internal/bench"
)

// TestCollectorReportsFalseVerdict checks that one false verdict anywhere
// in a report fails the run and is named on stderr, whether or not the
// run had -metrics on.
func TestCollectorReportsFalseVerdict(t *testing.T) {
	rep := &bench.JSONReport{Verdicts: []bench.Verdict{
		{Name: "steady_depth1_pair", LHS: 1, RHS: 1, Pass: true},
		{Name: "lac_on_rt_per_op", LHS: 2.25, RHS: 2, Pass: false},
	}}
	var sb strings.Builder
	if checked, failed := failedVerdicts("fastpath/u64", rep, &sb); checked != 2 || failed != 1 {
		t.Fatalf("failedVerdicts = %d checked, %d failed; want 2, 1\n%s", checked, failed, sb.String())
	}
	if !strings.Contains(sb.String(), "fastpath/u64 lac_on_rt_per_op 2.25 2") {
		t.Errorf("failure not named:\n%s", sb.String())
	}
	rep.Verdicts[1].Pass = true
	sb.Reset()
	if _, failed := failedVerdicts("fastpath/u64", rep, &sb); failed != 0 || sb.Len() != 0 {
		t.Errorf("all-true report: %d failed\n%s", failed, sb.String())
	}
}
