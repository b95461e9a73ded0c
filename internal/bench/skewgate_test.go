package bench

import "testing"

// TestSkewGateRequiresGatePoint pins the fail-closed contract of the
// skew report: a custom theta sweep that omits the θ≈0.99 gate point
// cannot pass — the speedup/imbalance gate was never evaluated, so a
// green verdict would assert nothing beyond reconciliation.
func TestSkewGateRequiresGatePoint(t *testing.T) {
	rep := &SkewReport{Points: []SkewPoint{
		{Theta: 0, Speedup: 1.0},
		{Theta: 1.2, Speedup: 3.0, BaseImbalance: 5, HotImbalance: 2},
	}}
	rep.evaluate()
	if got := failedNames(rep.Verdicts); len(got) != 1 || got[0] != "theta_0.99_points" {
		t.Errorf("sweep without theta~0.99: failed verdicts %v, want [theta_0.99_points]", got)
	}
}

// TestSkewGateEvaluates covers the gate point present in both verdicts:
// clearing the speedup and imbalance thresholds passes, missing the
// speedup threshold fails.
func TestSkewGateEvaluates(t *testing.T) {
	pass := &SkewReport{Points: []SkewPoint{
		{Theta: 0.99, Speedup: 2.0, BaseImbalance: 5, HotImbalance: 2},
	}}
	pass.evaluate()
	if got := failedNames(pass.Verdicts); len(got) != 0 {
		t.Errorf("passing sweep: failed verdicts %v", got)
	}
	if v := require("", pass.Verdicts, "speedup_at_0.99"); v.LHS != 2.0 || v.RHS != SkewSpeedupGate {
		t.Errorf("speedup_at_0.99 = %+v, want 2.0 against the gate", v)
	}
	fail := &SkewReport{Points: []SkewPoint{
		{Theta: 0.99, Speedup: 1.1, BaseImbalance: 5, HotImbalance: 2},
	}}
	fail.evaluate()
	if got := failedNames(fail.Verdicts); len(got) != 1 || got[0] != "speedup_at_0.99" {
		t.Errorf("slow sweep: failed verdicts %v, want [speedup_at_0.99]", got)
	}
}
