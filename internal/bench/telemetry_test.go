package bench

import (
	"io"
	"strings"
	"sync"
	"testing"

	"sphinx/internal/dataset"
	"sphinx/internal/ycsb"
)

// TestIndexBlocksAttached checks the per-phase SFC/INHT sections: hit
// depth observed, measured FP rate next to the analytic bound, INHT load
// factor from the MN-side scan, and the FP↔hash-read-RT reconciliation
// verdict on the read-only workload.
func TestIndexBlocksAttached(t *testing.T) {
	cfg := smallConfig(dataset.U64)
	cfg.Metrics = true
	cfg.Tail = true
	cl, err := NewCluster(Sphinx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Load(0); err != nil {
		t.Fatal(err)
	}
	r, err := cl.Run(ycsb.WorkloadC, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics == nil || r.Metrics.SFC == nil || r.Metrics.INHT == nil {
		t.Fatalf("missing metrics sections: %+v", r.Metrics)
	}
	sfc, inht := r.Metrics.SFC, r.Metrics.INHT
	if sfc.HitDepth.Count == 0 || sfc.HitDepth.Mean <= 0 {
		t.Errorf("no SFC hit-depth distribution: %+v", sfc.HitDepth)
	}
	if sfc.Load <= 0 || sfc.AnalyticFPBound <= 0 {
		t.Errorf("SFC load/bound not exported: load=%v bound=%v", sfc.Load, sfc.AnalyticFPBound)
	}
	if sfc.FilterHits == 0 {
		t.Error("warm YCSB-C run resolved no locates via the filter")
	}
	if evaluated([]Result{r}, "fp_reconciled") != 1 {
		t.Fatal("read-only depth-1 phase did not get an fp_reconciled verdict")
	}
	for _, v := range r.Verdicts {
		if !v.Pass {
			t.Errorf("verdict %s failed: %g vs %g (lookups=%d retries=%d refreshes=%d)",
				v.Name, v.LHS, v.RHS, inht.Lookups, inht.RetryReads, inht.Refreshes)
		}
	}
	if inht.LoadFactor <= 0 || inht.Entries == 0 || inht.CapacityEntries == 0 {
		t.Errorf("INHT usage scan empty: %+v", inht)
	}
	if inht.Lookups == 0 || inht.Candidates.Count == 0 {
		t.Errorf("INHT lookup accounting empty: %+v", inht)
	}
	if r.Metrics.TailOffered == 0 {
		t.Error("tail sampler was not offered any ops")
	}

	// The write-heavy workload must not claim the read-only invariant.
	ra, err := cl.Run(ycsb.WorkloadA, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if evaluated([]Result{ra}, "fp_reconciled") != 0 {
		t.Error("fp_reconciled set for a write-heavy phase")
	}

	// The filter-less ablation gets an INHT section but no SFC section.
	cfgNo := cfg
	clNo, err := NewCluster(SphinxNoSFC, cfgNo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clNo.Load(0); err != nil {
		t.Fatal(err)
	}
	rNo, err := clNo.Run(ycsb.WorkloadC, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rNo.Metrics.SFC != nil {
		t.Error("filter-less ablation produced an SFC section")
	}
	// The parallel-read path prepares raw bucket reads rather than
	// calling Lookup, so only the structural scan is asserted here.
	if rNo.Metrics.INHT == nil || rNo.Metrics.INHT.LoadFactor <= 0 {
		t.Errorf("filter-less ablation INHT section: %+v", rNo.Metrics.INHT)
	}
}

// TestLiveRegistryServesDuringRun scrapes the Live registry concurrently
// with a running workload (meaningful under -race) and asserts the
// metric families the CI smoke test curls for are present.
func TestLiveRegistryServesDuringRun(t *testing.T) {
	lv := NewLive()
	cfg := smallConfig(dataset.U64)
	cfg.Metrics = true
	cfg.Live = lv
	reg := lv.Registry() // built before scraping starts

	cl, err := NewCluster(Sphinx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := reg.Snapshot()
			_ = snap.WritePrometheus(io.Discard, "sphinx")
			_ = snap.WriteJSON(io.Discard)
			lv.Tail.Samples()
		}
	}()
	if _, err := cl.Load(0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(ycsb.WorkloadC, 0, 0); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	var sb strings.Builder
	if err := reg.Snapshot().WritePrometheus(&sb, "sphinx"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"sphinx_sfc_load", "sphinx_sfc_hit_depth", "sphinx_sfc_false_positive_rate",
		"sphinx_inht_load_factor", "sphinx_inht_lookups",
		"sphinx_core_filter_hits", "sphinx_filter_hits",
		"sphinx_tail_offered", "sphinx_bench_op_latency",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("live /metrics output missing %s", want)
		}
	}
	if offered, _ := lv.Tail.Stats(); offered == 0 {
		t.Error("live tail sampler saw no ops")
	}
}
