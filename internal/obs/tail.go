package obs

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"

	"sphinx/internal/fabric"
)

// TailSample is one auto-captured slow operation: its full round-trip
// timeline plus a derived one-line cause, so the trace arrives
// pre-explained ("sfc false positive at prefix 3: unlearned" or a
// dominant-stage summary).
type TailSample struct {
	Trace       *Trace
	Kind        OpKind
	LatencyPs   uint64
	ThresholdPs uint64 // the moving-quantile bar the op cleared
	Cause       string // Explain(Trace), derived when the sample is read
	Seq         uint64 // monotone capture number
}

// tailSubBits sets the sampler's resolution: each power-of-two latency
// octave is split into 1<<tailSubBits equal sub-buckets, so a bucket is
// at most 1/32 of its octave's lower edge wide (3%, e.g. 0.26 µs around
// 8.8 µs).
const (
	tailSubBits = 5
	tailSubs    = 1 << tailSubBits
)

// tailSub returns v's sub-bucket within its octave i = bits.Len64(v).
// Octaves narrower than tailSubs values keep every value exact.
func tailSub(v uint64, i int) int {
	if i <= tailSubBits {
		if i == 0 {
			return 0
		}
		return int(v - 1<<(i-1))
	}
	return int(v>>(i-1-tailSubBits)) & (tailSubs - 1)
}

// tailSubLower returns the smallest value of sub-bucket sub of octave i.
func tailSubLower(i, sub int) uint64 {
	switch {
	case i == 0:
		return 0
	case i <= tailSubBits:
		return 1<<(i-1) + uint64(sub)
	}
	return uint64(tailSubs+sub) << (i - 1 - tailSubBits)
}

// TailSampler is an always-on reservoir of slow-operation traces: every
// finished op's latency feeds a per-op-kind moving distribution, and ops
// at or above the configured quantile (p99 by default) have their trace
// deep-copied into a bounded ring. The distribution is log-linear (each
// power-of-two octave in 32 sub-buckets), so the bar sits within 3% of
// the true quantile. Ops above the quantile's sub-bucket are kept; of the
// ops inside it, only the share that ranks at or above the quantile is
// kept (spread evenly by error diffusion), so the sampler keeps about a
// (1 − quantile) share of ops even when many ops share one latency, as
// virtual-time ops on an idle network do. It is mutex-guarded so
// sequential workers across goroutines can share one sampler; the
// recorders feeding it remain per-worker.
type TailSampler struct {
	mu       sync.Mutex
	quantile float64
	warmup   uint64
	minPop   uint64                               // observations needed before the quantile is meaningful
	octaves  [NumOps][NumBuckets]uint64           // power-of-two latency counts
	subs     [NumOps][NumBuckets][tailSubs]uint64 // each octave's sub-bucket counts
	counts   [NumOps]uint64
	// credit is each kind's error-diffusion state for ops that tie with
	// the quantile's sub-bucket.
	credit   [NumOps]uint64
	samples  []TailSample // ring of the most recent captures
	next     int
	seq      uint64
	offered  uint64
	captured uint64
}

// NewTailSampler creates a sampler keeping up to capacity traces at or
// above the given latency quantile (0 < quantile < 1; out-of-range
// values select the default p99). A per-op-kind minimum population must
// pass before anything is captured: at least the 64-observation warmup,
// and at least ceil(1/(1-quantile)) observations so the quantile itself
// is meaningful — below that, the target rank equals the population and
// the "threshold" degenerates to the busiest bucket's lower edge,
// capturing essentially every op.
func NewTailSampler(quantile float64, capacity int) *TailSampler {
	if quantile <= 0 || quantile >= 1 {
		quantile = 0.99
	}
	if capacity <= 0 {
		capacity = 32
	}
	return &TailSampler{
		quantile: quantile,
		warmup:   64,
		minPop:   uint64(math.Ceil(1 / (1 - quantile))),
		samples:  make([]TailSample, 0, capacity),
	}
}

// quantileLocked locates the sub-bucket holding the quantile-th
// observation for kind: its octave and sub-bucket, and how many of its
// observations rank at or above the quantile (at least one). Callers
// ensure kind has observations.
func (ts *TailSampler) quantileLocked(kind OpKind) (oct, sub int, above uint64) {
	target := uint64(math.Ceil(ts.quantile * float64(ts.counts[kind])))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, b := range ts.octaves[kind] {
		if cum+b < target {
			cum += b
			continue
		}
		for j, c := range ts.subs[kind][i] {
			if cum += c; cum >= target {
				return i, j, cum - target + 1
			}
		}
	}
	panic("obs: tail quantile beyond the recorded population")
}

// Offer feeds one finished operation. It always updates the latency
// distribution; if the op clears the current quantile bar (and warmup
// has passed) its trace is cloned and retained, and Offer reports true.
// Nil-receiver- and nil-trace-safe.
func (ts *TailSampler) Offer(kind OpKind, tr *Trace) bool {
	if ts == nil || tr == nil {
		return false
	}
	lat := uint64(0)
	if d := tr.EndPs - tr.StartPs; d > 0 {
		lat = uint64(d)
	}
	oct := bits.Len64(lat)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.offered++
	ts.octaves[kind][oct]++
	ts.subs[kind][oct][tailSub(lat, oct)]++
	ts.counts[kind]++
	if ts.counts[kind] <= ts.warmup || ts.counts[kind] < ts.minPop || lat == 0 {
		return false
	}
	qOct, qSub, above := ts.quantileLocked(kind)
	thr := tailSubLower(qOct, qSub)
	if lat < thr {
		return false
	}
	if oct == qOct && tailSub(lat, oct) == qSub {
		// A tie with the quantile's sub-bucket: keep above of every n.
		n := ts.subs[kind][qOct][qSub]
		if ts.credit[kind] += above; ts.credit[kind] < n {
			return false
		}
		ts.credit[kind] -= n
	}
	ts.seq++
	sample := TailSample{
		Trace: tr.Clone(), Kind: kind, LatencyPs: lat,
		ThresholdPs: thr, Seq: ts.seq,
	}
	if len(ts.samples) < cap(ts.samples) {
		ts.samples = append(ts.samples, sample)
	} else {
		ts.samples[ts.next] = sample
		ts.next = (ts.next + 1) % len(ts.samples)
	}
	ts.captured++
	return true
}

// Samples returns the retained captures, newest first, each with its
// Cause (derived on the first read of a sample, then kept).
func (ts *TailSampler) Samples() []TailSample {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	n := len(ts.samples)
	out := make([]TailSample, 0, n)
	if n == 0 {
		return out
	}
	// Walk the ring backwards from the most recent write.
	start := n - 1
	if n == cap(ts.samples) {
		start = (ts.next - 1 + n) % n
	}
	for i := 0; i < n; i++ {
		s := &ts.samples[(start-i+n)%n]
		if s.Cause == "" {
			s.Cause = Explain(s.Trace)
		}
		out = append(out, *s)
	}
	return out
}

// Stats reports how many ops were offered and how many were captured.
func (ts *TailSampler) Stats() (offered, captured uint64) {
	if ts == nil {
		return 0, 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.offered, ts.captured
}

// Threshold returns the current capture bar for an op kind in
// picoseconds (0 before warmup).
func (ts *TailSampler) Threshold(kind OpKind) uint64 {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.counts[kind] <= ts.warmup || ts.counts[kind] < ts.minPop {
		return 0
	}
	oct, sub, _ := ts.quantileLocked(kind)
	return tailSubLower(oct, sub)
}

// Counters exposes the sampler's totals for registry registration.
func (ts *TailSampler) Counters() map[string]uint64 {
	offered, captured := ts.Stats()
	return map[string]uint64{"offered": offered, "captured": captured}
}

// Explain derives a one-line cause from a trace: the stage that consumed
// the most virtual time, any faulted batches, and the recorder's local
// annotations (false positives, collisions, restarts), which name the
// event that bought the extra round trips.
func Explain(t *Trace) string {
	if t == nil {
		return ""
	}
	var stageDur [fabric.NumStages]int64
	var stageRT [fabric.NumStages]uint64
	var notes []string
	faulted := 0
	for _, e := range t.Events {
		if e.Batch {
			if int(e.Stage) < fabric.NumStages {
				stageDur[e.Stage] += e.EndPs - e.StartPs
				stageRT[e.Stage] += e.RoundTrips
			}
			if e.Err != "" {
				faulted++
			}
		} else if e.Note != "" {
			notes = append(notes, e.Note)
		}
	}
	best := -1
	for i, d := range stageDur {
		if d > 0 && (best < 0 || d > stageDur[best]) {
			best = i
		}
	}
	var parts []string
	if best >= 0 {
		parts = append(parts, fmt.Sprintf("dominant stage %s: %d rt, %.2fµs of %.2fµs",
			fabric.Stage(best), stageRT[best], us(stageDur[best]), us(t.EndPs-t.StartPs)))
	}
	if faulted > 0 {
		parts = append(parts, fmt.Sprintf("%d faulted batches", faulted))
	}
	if len(notes) > 0 {
		const keep = 3
		if len(notes) > keep {
			notes = append(notes[:keep], fmt.Sprintf("(+%d more notes)", len(notes)-keep))
		}
		parts = append(parts, strings.Join(notes, "; "))
	}
	if len(parts) == 0 {
		return "no batches recorded"
	}
	return strings.Join(parts, "; ")
}
