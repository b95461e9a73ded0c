package bench

import (
	"slices"
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/obs"
)

// failedNames lists the names of the false verdicts, in order.
func failedNames(vs []Verdict) []string {
	var out []string
	for _, v := range vs {
		if !v.Pass {
			out = append(out, v.Name)
		}
	}
	return out
}

// checkGateVerdicts runs a gate table: the passing input must produce no
// failed verdict, and each case must fail the verdicts it names.
func checkGateVerdicts(t *testing.T, pass []Verdict, cases map[string]struct {
	got  []Verdict
	want []string
}) {
	t.Helper()
	if len(pass) == 0 {
		t.Fatal("passing input produced no verdicts")
	}
	if got := failedNames(pass); len(got) != 0 {
		t.Errorf("passing input: failed verdicts %v", got)
	}
	for name, c := range cases {
		got := failedNames(c.got)
		for _, w := range c.want {
			if !slices.Contains(got, w) {
				t.Errorf("%s: verdict %q did not fail (failed: %v)", name, w, got)
			}
		}
	}
}

func TestRequireVerdictFailsClosed(t *testing.T) {
	vs := []Verdict{equal("hot_reconciled", 3, 3)}
	if v := require("hot_reconciled[theta=0.99]", vs, "hot_reconciled"); !v.Pass || v.Name != "hot_reconciled[theta=0.99]" {
		t.Errorf("present verdict not carried over: %+v", v)
	}
	if v := require("hot_reconciled[theta=0.99]", nil, "hot_reconciled"); v.Pass || v.Name != "hot_reconciled[theta=0.99]" {
		t.Errorf("missing verdict did not fail closed: %+v", v)
	}
}

func TestFailoverGateVerdicts(t *testing.T) {
	ok := FailoverReport{AckedWrites: 10, VerifiedReads: 10, PreKillOps: 5, PostKillOps: 5,
		Failovers: 3, RepairCopied: 7, ReadsDuringRepair: 32}
	lost, noKill := ok, ok
	lost.LostAckedWrites = 1
	noKill.PostKillOps, noKill.Failovers = 0, 0
	checkGateVerdicts(t, ok.gates(), map[string]struct {
		got  []Verdict
		want []string
	}{
		"empty report":    {(&FailoverReport{}).gates(), []string{"acked_writes", "failovers", "pre_kill_ops", "post_kill_ops", "repair_copied", "reads_during_repair"}},
		"lost write":      {lost.gates(), []string{"lost_acked_writes"}},
		"kill never seen": {noKill.gates(), []string{"post_kill_ops", "failovers"}},
	})
}

// passingElastic is a hand-built elastic report every gate accepts.
func passingElastic() *ElasticReport {
	rts := []Verdict{equal("rts_reconciled", 10, 10)}
	return &ElasticReport{
		MNsStart: 3, AddedNode: 3, DrainedNode: 1,
		AckedWrites: 10, VerifiedReads: 10,
		Add: ElasticChaos{MovedLeaves: 5}, Drain: ElasticChaos{MovedLeaves: 5},
		FinalEpoch: 2, Converged: true, Cutovers: 2,
		Windows: []MNWindow{
			{Window: "pre-add", MaxShare: 0.5, MinShare: 0.2, Verdicts: rts},
			{Window: "post-add", MaxShare: 0.3, MinShare: 0.2, Verdicts: rts,
				Loads: []MNLoad{{Node: 3, Share: 0.2}}},
			{Window: "post-drain", MaxShare: 0.4, MinShare: 0.3, Verdicts: rts,
				Loads: []MNLoad{{Node: 1, Share: 0.01}}},
		},
		SLO: &obs.SLO{LatencyPs: 1000},
		SLOPhases: []ElasticSLOPhase{
			{Phase: "pre-add", Ops: 5}, {Phase: "add", Ops: 5},
			{Phase: "post-add", Ops: 5}, {Phase: "drain", Ops: 5, Bad: 1, Burn: 20},
			{Phase: "post-drain", Ops: 5},
		},
		Plane: &obs.PlaneSnapshot{Ticks: 9, Nodes: []obs.MNStatus{
			{Node: 0}, {Node: 1, ShareWindows: []obs.Window{{Count: 1, Max: 0.3}, {Count: 1}}},
			{Node: 2}, {Node: 3, ShareWindows: []obs.Window{{}, {Count: 1}, {Count: 1, Max: 0.3}}},
		}},
	}
}

func TestElasticGateVerdicts(t *testing.T) {
	mutate := func(f func(*ElasticReport)) []Verdict {
		rep := passingElastic()
		f(rep)
		return rep.gates()
	}
	checkGateVerdicts(t, passingElastic().gates(), map[string]struct {
		got  []Verdict
		want []string
	}{
		"no sampled share window": {mutate(func(r *ElasticReport) { r.Plane.Nodes[3].ShareWindows = nil }),
			[]string{"added_first_share_window", "added_last_share_window"}},
		"no plane": {mutate(func(r *ElasticReport) { r.Plane = nil }),
			[]string{"plane_ticks", "plane_nodes", "added_first_share_window", "drained_last_share_window"}},
		"missing window": {mutate(func(r *ElasticReport) { r.Windows = r.Windows[:2] }), []string{"windows"}},
		"added node below half fair share": {mutate(func(r *ElasticReport) { r.Windows[1].Loads[0].Share = 0.1 }),
			[]string{"added_share_after"}},
		"unreconciled window": {mutate(func(r *ElasticReport) { r.Windows[1].Verdicts = nil }),
			[]string{"rts_reconciled[post-add]"}},
		"hottest member not relieved": {mutate(func(r *ElasticReport) { r.Windows[1].MaxShare = 0.6 }),
			[]string{"post_add_max_share"}},
		"no drain SLO phase": {mutate(func(r *ElasticReport) { r.SLOPhases = r.SLOPhases[:3] }),
			[]string{"slo_burn[drain]", "slo_ops[post-drain]"}},
		"no SLO": {mutate(func(r *ElasticReport) { r.SLO = nil }), []string{"slo_latency_ps"}},
		"not converged": {mutate(func(r *ElasticReport) { r.Converged, r.FinalEpoch = false, 1 }),
			[]string{"converged", "final_epoch"}},
		"lost after decommission": {mutate(func(r *ElasticReport) { r.LostAfterDecommission = 1 }),
			[]string{"lost_after_decommission"}},
	})
}

func TestScalingGateVerdicts(t *testing.T) {
	point := func(sys, workload string, eff float64) Result {
		return Result{System: sys, Workload: workload, WallMops: 1, ParallelEfficiency: eff}
	}
	sweep := []Result{point("Sphinx", "C/w1", 1), point("Sphinx", "C/w4", 0.5),
		point(mutexSFCSystem, "C/w1", 1), point(mutexSFCSystem, "C/w4", 0.5)}
	regressed := slices.Clone(sweep)
	regressed[1].ParallelEfficiency = 0.4
	unmeasured := slices.Clone(sweep)
	unmeasured[1].WallMops = 0
	checkGateVerdicts(t, scalingGates(sweep), map[string]struct {
		got  []Verdict
		want []string
	}{
		"no mutex point":          {scalingGates(sweep[:2]), []string{"lockfree_vs_mutex_efficiency"}},
		"lock-free below 0.9x":    {scalingGates(regressed), []string{"lockfree_vs_mutex_efficiency"}},
		"missing wall throughput": {scalingGates(unmeasured), []string{"wall_tput_mops[Sphinx C/w4]"}},
	})
}

func TestFastpathGateVerdicts(t *testing.T) {
	on := Result{System: "Sphinx", Phase: "steady", Depth: 1, RoundTripsPerOp: 1.02,
		Verdicts: []Verdict{equal("lac_reconciled", 7, 7)}}
	off := Result{System: "Sphinx-noLAC", Phase: "steady", Depth: 1, RoundTripsPerOp: 3.01}
	warm := Result{System: "Sphinx", Phase: "warmup", Depth: 1, RoundTripsPerOp: 2.9}
	slow, unreconciled := on, on
	slow.RoundTripsPerOp = 2.1
	unreconciled.Verdicts = nil
	checkGateVerdicts(t, fastpathGates([]Result{warm, on, off}), map[string]struct {
		got  []Verdict
		want []string
	}{
		"no steady depth-1 pair": {fastpathGates([]Result{warm, off}), []string{"steady_depth1_pair"}},
		"slow fast path":         {fastpathGates([]Result{slow, off}), []string{"lac_on_rt_per_op"}},
		"lac_reconciled missing": {fastpathGates([]Result{unreconciled, off}), []string{"lac_on_lac_reconciled"}},
	})
}

func TestReconciledGateVerdicts(t *testing.T) {
	metrics := Config{Metrics: true}
	rs := []Result{{Verdicts: []Verdict{equal("rt_reconciled", 1, 1), equal("fp_reconciled", 2, 2)}}}
	checkGateVerdicts(t, reconciledGates(metrics, rs), map[string]struct {
		got  []Verdict
		want []string
	}{
		"no identity evaluated": {reconciledGates(metrics, []Result{{}}),
			[]string{"rt_reconciled_evaluated", "fp_reconciled_evaluated"}},
	})
	if vs := reconciledGates(Config{}, nil); vs != nil {
		t.Errorf("gates without metrics: %v", vs)
	}
	if vs := reconciledGates(Config{Metrics: true, Faults: &fabric.FaultPlan{}}, nil); vs != nil {
		t.Errorf("gates under injected faults: %v", vs)
	}
}

// TestAllVerdictsNamesTheirResult checks the flattened list a report
// hands to sphinxbench: result identities named after their result,
// then the experiment gates.
func TestAllVerdictsNamesTheirResult(t *testing.T) {
	rep := JSONReport{
		Results: []Result{{System: "Sphinx", Workload: "C/steady", Dataset: "u64", Depth: 1,
			Verdicts: []Verdict{{Name: "lac_reconciled"}}}},
		Verdicts: []Verdict{{Name: "steady_depth1_pair"}},
		Skew:     []*SkewReport{{Verdicts: []Verdict{{Name: "theta_0.99_points"}}}},
	}
	want := []string{"Sphinx C/steady u64 d1: lac_reconciled", "steady_depth1_pair", "theta_0.99_points"}
	if got := failedNames(rep.AllVerdicts()); !slices.Equal(got, want) {
		t.Errorf("AllVerdicts = %v, want %v", got, want)
	}
}
