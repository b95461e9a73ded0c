package obs

import (
	"strings"
	"testing"

	"sphinx/internal/fabric"
)

func mkTrace(latPs int64, events ...Event) *Trace {
	return &Trace{Op: "Get", StartPs: 1000, EndPs: 1000 + latPs, Events: events}
}

func batchEvent(stage fabric.Stage, durPs int64, rts uint64) Event {
	return Event{Stage: stage, StartPs: 0, EndPs: durPs, RoundTrips: rts,
		Verbs: int(rts), Batch: true}
}

// TestTailSamplerThreshold feeds a known latency distribution and checks
// that only post-warmup, above-quantile, nonzero-latency ops are
// captured, and that Threshold reports the quantile bucket's lower edge.
func TestTailSamplerThreshold(t *testing.T) {
	ts := NewTailSampler(0.99, 8)

	// Warmup: the first 64 offers update the distribution but never
	// capture, no matter how slow.
	for i := 0; i < 64; i++ {
		if ts.Offer(OpGet, mkTrace(1_000_000)) {
			t.Fatalf("offer %d captured during warmup", i)
		}
	}
	if thr := ts.Threshold(OpGet); thr != 0 {
		t.Fatalf("threshold %d during warmup, want 0", thr)
	}

	// 936 more fast ops (1ms bucket) → 1000 total. A 100× outlier is
	// above the p99 bucket and must be captured.
	for i := 0; i < 936; i++ {
		ts.Offer(OpGet, mkTrace(1_000_000))
	}
	if thr := ts.Threshold(OpGet); thr == 0 || thr > 1_000_000 {
		t.Fatalf("post-warmup threshold %d, want in (0, 1e6]", thr)
	}
	if !ts.Offer(OpGet, mkTrace(100_000_000)) {
		t.Fatal("100x outlier not captured")
	}

	// Zero-latency ops (instant timing) are never tail, even though the
	// all-zero distribution puts the quantile in bucket zero.
	instant := NewTailSampler(0.99, 8)
	for i := 0; i < 200; i++ {
		if instant.Offer(OpPut, mkTrace(0)) {
			t.Fatal("zero-latency op captured")
		}
	}

	// Other kinds keep independent thresholds: OpPut saw nothing here.
	if thr := ts.Threshold(OpPut); thr != 0 {
		t.Fatalf("OpPut threshold %d leaked from OpGet observations", thr)
	}
}

// TestTailSamplerColdStart is the pre-fix-failing regression for the
// cold-start hole: between the 64-op warmup and the ~100 observations a
// p99 needs to be meaningful, the target rank ceil(0.99*n) equals n, so
// the "threshold" collapsed to the busiest bucket's lower edge and the
// sampler captured essentially every op. With the minimum-population
// gate, nothing is captured (and no threshold is reported) until the
// p99 has at least ceil(1/(1-q)) = 100 observations.
func TestTailSamplerColdStart(t *testing.T) {
	ts := NewTailSampler(0.99, 32)
	for i := 0; i < 99; i++ {
		if ts.Offer(OpGet, mkTrace(6_600_000)) { // uniform warm-Get latency
			t.Fatalf("offer %d captured before the p99 had a meaningful population", i+1)
		}
		if thr := ts.Threshold(OpGet); thr != 0 {
			t.Fatalf("threshold %d reported at population %d, want 0 before 100", thr, i+1)
		}
	}
	if _, captured := ts.Stats(); captured != 0 {
		t.Fatalf("captured %d ops during cold start, want 0", captured)
	}
	// At 100 observations the quantile becomes meaningful and the
	// sampler behaves as before: a genuine outlier is captured.
	ts.Offer(OpGet, mkTrace(6_600_000))
	if thr := ts.Threshold(OpGet); thr == 0 {
		t.Fatal("threshold still zero at population 100")
	}
	if !ts.Offer(OpGet, mkTrace(600_000_000)) {
		t.Fatal("100x outlier not captured post-gate")
	}

	// Low quantiles need smaller populations: the old 64-op warmup
	// already exceeds ceil(1/(1-0.5)) = 2, so p50 behavior is unchanged.
	p50 := NewTailSampler(0.5, 4)
	for i := 0; i < 64; i++ {
		p50.Offer(OpGet, mkTrace(1_000_000))
	}
	if !p50.Offer(OpGet, mkTrace(2_000_000)) {
		t.Fatal("p50 capture gated beyond its warmup")
	}
}

// TestTailSamplerRing checks ring-buffer retention: capacity bounds the
// sample count, Samples returns newest first, and the retained traces
// are clones that survive recorder reuse.
func TestTailSamplerRing(t *testing.T) {
	ts := NewTailSampler(0.5, 4) // p50 so every slow op captures
	for i := 0; i < 64; i++ {
		ts.Offer(OpGet, mkTrace(1_000_000))
	}
	shared := mkTrace(0, batchEvent(fabric.StageNodeRead, 5, 1))
	for i := int64(1); i <= 10; i++ {
		shared.EndPs = shared.StartPs + i*10_000_000 // monotone: each offer is the new max
		if !ts.Offer(OpGet, shared) {
			t.Fatalf("offer %d not captured at p50", i)
		}
		shared.Events[0].Note = "mutated after capture"
	}
	offered, captured := ts.Stats()
	if offered != 74 || captured != 10 {
		t.Fatalf("stats offered=%d captured=%d, want 74/10", offered, captured)
	}
	samples := ts.Samples()
	if len(samples) != 4 {
		t.Fatalf("ring retained %d samples, want capacity 4", len(samples))
	}
	for i, s := range samples {
		wantLat := uint64((10 - int64(i)) * 10_000_000)
		if s.LatencyPs != wantLat {
			t.Fatalf("sample %d latency %d, want %d (newest first)", i, s.LatencyPs, wantLat)
		}
		if s.Trace == shared {
			t.Fatal("sampler retained the live trace, not a clone")
		}
		if s.ThresholdPs == 0 || s.LatencyPs < s.ThresholdPs {
			t.Fatalf("sample %d: latency %d below threshold %d", i, s.LatencyPs, s.ThresholdPs)
		}
	}
	if samples[0].Seq != 10 {
		t.Fatalf("newest sample seq %d, want 10", samples[0].Seq)
	}

	// The nil sampler (sessions without tail sampling) is inert.
	var nilTS *TailSampler
	if nilTS.Offer(OpGet, shared) {
		t.Fatal("nil sampler captured")
	}
	if nilTS.Samples() != nil || nilTS.Threshold(OpGet) != 0 {
		t.Fatal("nil sampler not inert")
	}
}

// TestTailSamplerCapturesAboutOnePercent feeds a uniform-read-shaped mix
// (about 30% LAC hits at 2.2 µs, 33% at 6.6 µs, 36% at 8.8 µs, 1.2% at
// 13 µs): at q=0.99 the bar must land in the 13 µs tail, so the sampler
// keeps about 1% of ops. A power-of-two bar, [8.39, 16.8) µs, keeps the
// 8.8 µs ops too, about 37%. Then a distribution whose p99 falls inside
// a point mass.
func TestTailSamplerCapturesAboutOnePercent(t *testing.T) {
	ts := NewTailSampler(0.99, 32)
	const n = 100_000
	state := uint64(1)
	for i := 0; i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		lat := int64(2_200_000)
		switch r := (state >> 33) % 1000; {
		case r >= 988:
			lat = 13_000_000
		case r >= 628:
			lat = 8_800_000
		case r >= 300:
			lat = 6_600_000
		}
		lat += int64(state>>20) % 50_000 // queueing jitter below a sub-bucket
		ts.Offer(OpGet, mkTrace(lat))
	}
	offered, captured := ts.Stats()
	if share := float64(captured) / float64(offered); share > 0.02 {
		t.Fatalf("captured %d of %d ops (%.1f%%), want at most 2%% at p99", captured, offered, 100*share)
	}
	if thr := ts.Threshold(OpGet); thr <= 8_850_000 || thr > 13_000_000 {
		t.Fatalf("threshold %d ps, want in the 13 µs tail", thr)
	}
	for _, s := range ts.Samples() {
		if s.Cause == "" {
			t.Fatal("sample read without a cause")
		}
	}

	// Ties: on an idle virtual network many ops share one latency. With
	// the p99 inside a 5% point mass, only the share of the mass that
	// ranks above the quantile is kept.
	ties := NewTailSampler(0.99, 32)
	for i := 0; i < n; i++ {
		lat := int64(6_600_000)
		if i%20 == 0 {
			lat = 8_800_000
		}
		ties.Offer(OpPut, mkTrace(lat))
	}
	if offered, captured := ties.Stats(); captured == 0 || float64(captured) > 0.02*float64(offered) {
		t.Fatalf("point mass at the p99: captured %d of %d ops, want about 1%%", captured, offered)
	}
}

// TestExplain checks the pre-explanation: dominant stage attribution,
// fault counting and note forwarding.
func TestExplain(t *testing.T) {
	tr := mkTrace(9_000_000,
		batchEvent(fabric.StageHashRead, 1_000_000, 1),
		batchEvent(fabric.StageNodeRead, 6_000_000, 3),
		Event{Stage: fabric.StageNodeRead, Batch: true, EndPs: 500, Err: "transient"},
		Event{Note: "sfc false positive at prefix 3: unlearned"},
	)
	got := Explain(tr)
	for _, want := range []string{
		"dominant stage " + fabric.StageNodeRead.String(),
		"1 faulted batches",
		"sfc false positive at prefix 3",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("Explain = %q, missing %q", got, want)
		}
	}
	if Explain(nil) != "" {
		t.Error("Explain(nil) not empty")
	}
	if got := Explain(mkTrace(5)); got != "no batches recorded" {
		t.Errorf("Explain(empty) = %q", got)
	}
}

// TestRegistryGaugesSnapshotAndDiff checks gauge semantics: present in
// snapshots, carried through Sub as instantaneous readings (not
// differenced), and rendered as prometheus gauges.
func TestRegistryGaugesSnapshotAndDiff(t *testing.T) {
	r := NewRegistry()
	load := 0.25
	r.AddGauges("sfc", func() map[string]float64 {
		return map[string]float64{"load": load}
	})
	r.AddCounters("tail", func() map[string]uint64 {
		return map[string]uint64{"captured": 7}
	})
	first := r.Snapshot()
	load = 0.75
	second := r.Snapshot()
	diff := second.Sub(first)
	if got := diff.Gauges["sfc_load"]; got != 0.75 {
		t.Fatalf("diff gauge = %v, want the later instantaneous reading 0.75", got)
	}
	if got := diff.Counters["tail_captured"]; got != 0 {
		t.Fatalf("diff counter = %d, want 0 (unchanged)", got)
	}
	var sb strings.Builder
	if err := second.WritePrometheus(&sb, "sphinx"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "sphinx_sfc_load 0.75") ||
		!strings.Contains(out, "sphinx_tail_captured 7") {
		t.Fatalf("prometheus gauge rendering wrong:\n%s", out)
	}
}
