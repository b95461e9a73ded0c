package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
)

// stages are the fabric stages the per-layer metrics report, in warm-path
// order; "none" is untagged traffic (anchor publishes, today). Every
// round trip of the workloads lands in one of them, which the stage
// reconciliation checks.
var stages = []string{
	"hash-read", "node-read", "leaf-read", "leaf-spec", "hot-read", "hot-pub",
	"lock", "alloc", "leaf-write", "node-write", "install", "publish", "unlock", "none",
}

// counters is a reading of the sessions' registries, summed so that every
// counter is counted once: session-scoped families over all sessions, the
// CN-wide SFC and LAC families once per ComputeNode, and cluster-wide
// families once. Stage histograms contribute their sums.
type counters struct {
	c       map[string]uint64
	sfcLoad float64 // mean SFC load over the CNs
	inhtLF  float64 // INHT load factor, cluster-wide
}

// cnWide and clusterWide name the counter families that are not per
// session: summing them over sessions would multiply them.
var (
	cnWide      = []string{"filter_", "lac_"}
	clusterWide = []string{"mn_", "slo_", "alert_"}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

func (b *bench) readCounters() counters {
	out := counters{c: map[string]uint64{}}
	for i, cl := range b.clients {
		snap := cl.s.Registry().Snapshot()
		for k, v := range snap.Counters {
			switch {
			case hasAnyPrefix(k, clusterWide):
				if i == 0 {
					out.c[k] += v
				}
			case hasAnyPrefix(k, cnWide):
				if i < computeNodes {
					out.c[k] += v
				}
			default:
				out.c[k] += v
			}
		}
		for k, h := range snap.Hists {
			if strings.HasPrefix(k, "session_stage_") {
				out.c[k] += h.Sum
			}
		}
		if i < computeNodes {
			out.sfcLoad += snap.Gauges["sfc_load"] / computeNodes
		}
		if i == 0 {
			out.inhtLF = snap.Gauges["inht_load_factor"]
		}
	}
	return out
}

// sub returns the counter deltas from prev to c; gauges keep c's reading.
func (c counters) sub(prev counters) counters {
	out := counters{c: make(map[string]uint64, len(c.c)), sfcLoad: c.sfcLoad, inhtLF: c.inhtLF}
	for k, v := range c.c {
		out.c[k] = v - prev.c[k]
	}
	return out
}

func stageKey(family, stage string) string {
	return fmt.Sprintf("session_stage_%s{stage=%q}", family, stage)
}

// stageRTs is the round-trip total of the reported stages.
func (c counters) stageRTs() uint64 {
	var t uint64
	for _, st := range stages {
		t += c.c[stageKey("round_trips", st)]
	}
	return t
}

// reconcileStages checks that the per-stage round trips add up exactly
// to what the sessions' own Stats counted.
func (r *result) reconcileStages(d counters, sessionRTs uint64) {
	if got := d.stageRTs(); got != sessionRTs {
		r.problem("stage reconciliation: per-stage round trips sum to %d, Session.Stats to %d", got, sessionRTs)
	}
}

// runTraced is the traced run. After one set-up it measures an untraced
// n-op window (the base of trace.overhead_pct, and process.cpu_us_per_op,
// scaled like cpu_us_per_op by calibrations before and after it), then
// an n-op window with every op wrapped in Session.Trace and the process
// under the CPU profiler, and reports the per-layer metrics of that
// window. Spans and the profile are written to outDir.
func runTraced(w workload, seed int64, n int, outDir string) (*result, error) {
	r := &result{correct: true}
	cals := calibrate()
	b, err := setup(w, seed)
	if err != nil {
		return nil, err
	}
	base := measure(b, n, nil)
	cals = append(cals, calibrate()...)
	r.account(b, n, base)
	if base.panicked != "" {
		r.attempted, r.failed = b.issued, b.failed
		return r, nil
	}

	before := b.readCounters()
	mu0, err := b.cluster.MemoryUsage()
	if err != nil {
		return nil, fmt.Errorf("memory usage: %w", err)
	}
	b.cluster.SampleObservability(b.maxClock())
	t0 := b.maxClock()
	spans := &spanStore{ops: make([]opSpan, 0, n)}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("start profile: %w", err)
	}
	tw := measure(b, n, spans)
	pprof.StopCPUProfile()
	r.account(b, n, tw)
	t1 := b.maxClock()
	b.cluster.SampleObservability(t1)
	plane := b.cluster.Observability()
	d := b.readCounters().sub(before)
	mu1, err := b.cluster.MemoryUsage()
	if err != nil {
		return nil, fmt.Errorf("memory usage: %w", err)
	}
	if tw.panicked == "" {
		b.verify()
	}
	r.attempted, r.failed = b.issued, b.failed
	for _, e := range b.errs {
		r.problem("%s", e)
	}
	if r.failed > 0 {
		r.correct = false
	}

	// Reconcile: registry stages, Session.Stats and the spans must agree.
	r.reconcileStages(d, tw.roundTrips)
	tt := spans.totals()
	if tt.rtSum != tw.roundTrips {
		r.problem("span reconciliation: spans hold %d round trips, Session.Stats %d", tt.rtSum, tw.roundTrips)
	}
	for _, st := range stages {
		if got, want := tt.rts[st], d.c[stageKey("round_trips", st)]; got != want {
			r.problem("span reconciliation: stage %s: spans %d round trips, registry %d", st, got, want)
		}
	}

	byLayer, err := cpuByLayer(prof.Bytes())
	if err != nil {
		return nil, err
	}
	var cpuTotal int64
	for _, ns := range byLayer {
		cpuTotal += ns
	}
	share := func(layer string) float64 { return float64(byLayer[layer]) / float64(cpuTotal) }
	var shareSum float64
	for _, l := range cpuLayers {
		shareSum += share(l)
	}
	if math.Abs(shareSum-1) > 1e-9 {
		r.problem("CPU shares sum to %v, not 1: %v", shareSum, byLayer)
	}

	ops := float64(tw.done)
	kop := ops / 1000
	writes := float64(len(tw.win.writeLat))
	gets := float64(len(tw.win.getLat))
	perWrite := func(delta uint64) float64 {
		if writes == 0 {
			return 0
		}
		return float64(delta) / writes
	}
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	c := d.c

	for _, st := range stages {
		r.add("fabric.rt_per_op."+st, float64(c[stageKey("round_trips", st)])/ops, "rt/op")
	}
	for _, st := range stages {
		r.add("fabric.vus_per_op."+st, float64(c[stageKey("latency_ps", st)])/1e6/ops, "us/op")
	}
	var waitPs, busyMax, verbsMax, verbsSum float64
	for _, nd := range plane.Nodes {
		waitPs += nd.WaitRatio * float64(t1-t0)
		busyMax = math.Max(busyMax, nd.BusyRatio)
		verbsMax = math.Max(verbsMax, float64(nd.WindowVerbs))
		verbsSum += float64(nd.WindowVerbs)
	}
	r.add("fabric.verbs_per_op", float64(c["fabric_verbs"])/ops, "verbs/op")
	r.add("fabric.nic_wait_us_per_op", waitPs/1e6/ops, "us/op")
	r.add("fabric.nic_busy_max", busyMax, "ratio")
	r.add("fabric.mn_imbalance", verbsMax/(verbsSum/float64(len(plane.Nodes))), "ratio")
	r.add("fabric.cpu_share", share("fabric"), "share")

	r.add("core.lac_hit_ratio", float64(c["core_spec_hits"])/gets, "ratio")
	r.add("core.lac_refutes_per_kop", float64(c["core_spec_refutes"])/kop, "1/kop")
	r.add("core.filter_hit_ratio", ratio(c["core_filter_hits"], c["core_filter_hits"]+c["core_filter_fallbacks"]+c["core_root_starts"]), "ratio")
	r.add("core.false_positives_per_kop", float64(c["core_false_positives"])/kop, "1/kop")
	r.add("core.root_starts_per_kop", float64(c["core_root_starts"])/kop, "1/kop")
	r.add("core.hot_hit_ratio", float64(c["core_hot_hits"])/gets, "ratio")
	r.add("core.hot_refutes_per_kop", float64(c["core_hot_refutes"])/kop, "1/kop")
	r.add("core.hot_promotes_per_kop", float64(c["core_hot_promotes"])/kop, "1/kop")
	r.add("core.hot_refreshes_per_kwrite", perWrite(c["core_hot_refreshes"])*1000, "1/kwrite")
	r.add("core.restarts_per_kop", float64(c["core_restarts"])/kop, "1/kop")
	r.add("core.cpu_share", share("core"), "share")

	r.add("cuckoo.probes_per_op", float64(c["filter_hits"]+c["filter_misses"])/ops, "probes/op")
	r.add("cuckoo.load", d.sfcLoad, "ratio")
	r.add("cuckoo.evictions_per_kop", float64(c["filter_evictions"])/kop, "1/kop")
	r.add("cuckoo.cpu_share", share("cuckoo"), "share")

	r.add("racehash.retries_per_kop", float64(c["inht_retry_reads"])/kop, "1/kop")
	r.add("racehash.splits_per_kop", float64(c["inht_splits"])/kop, "1/kop")
	r.add("racehash.split_waits_per_kop", float64(c["inht_split_waits"])/kop, "1/kop")
	r.add("racehash.load_factor", d.inhtLF, "ratio")
	r.add("racehash.cpu_share", share("racehash"), "share")

	r.add("rart.lock_steals_per_kop", float64(c["engine_lock_steals"])/kop, "1/kop")
	r.add("rart.publish_retries_per_kop", float64(c["engine_publish_retries"])/kop, "1/kop")
	r.add("rart.cpu_share", share("rart"), "share")

	r.add("mem.leaf_bytes_per_write", perWrite(mu1.LeafBytes-mu0.LeafBytes), "B/write")
	r.add("mem.inner_bytes_per_write", perWrite(mu1.InnerNodeBytes-mu0.InnerNodeBytes), "B/write")
	r.add("mem.hash_bytes_per_write", perWrite(mu1.HashTableBytes-mu0.HashTableBytes), "B/write")
	r.add("mem.cpu_share", share("mem"), "share")

	r.add("wire.cpu_share", share("wire"), "share")
	r.add("obs.cpu_share", share("obs"), "share")
	r.add("consistenthash.cpu_share", share("consistenthash"), "share")
	r.add("sphinx.cpu_share", share("sphinx"), "share")
	r.add("sphinx.self_vus_per_op", float64(tt.selfPs)/1e6/ops, "us/op")
	r.add("runtime.cpu_share", share("runtime"), "share")
	r.add("runtime.gc_per_kop", float64(tw.numGC)/kop, "1/kop")
	r.add("driver.cpu_share", share("driver"), "share")
	baseCPU := float64(base.cpu) / float64(base.done)
	tracedCPU := float64(tw.cpu) / ops
	r.add("trace.overhead_pct", (tracedCPU/baseCPU-1)*100, "%")
	r.add("process.cpu_us_per_op", baseCPU/1e3*hostScale(cals), "us")

	r.extra = append(r.extra,
		metric{name: "traced_cpu_us_per_op", value: tracedCPU / 1e3, unit: "us"},
		metric{name: "profile_cpu_s", value: float64(cpuTotal) / 1e9, unit: "s", note: "CPU the profiler sampled"},
		metric{name: "ops", value: ops, unit: "count", note: fmt.Sprintf("%d clients", w.clients)},
	)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	if err := os.WriteFile(stem+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := spans.write(stem + ".spans.jsonl.gz"); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	r.extra = append(r.extra, metric{name: "spans", value: float64(len(spans.ops)), unit: "count", note: stem + ".spans.jsonl.gz"})
	return r, nil
}
