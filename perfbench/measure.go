package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named figure of a run.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // printed beside the value, not part of the result
}

// result is what one run reports.
type result struct {
	correct   bool
	attempted uint64
	failed    uint64
	metrics   []metric // the result metrics of the run's mode (BENCHMARK.json)
	extra     []metric // printed, but not part of the result
	problems  []string // why correct is false
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit})
}

func (r *result) problem(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// cpuNow is the process's CPU time, user plus system, all threads.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupReps is how many times an end-to-end run builds, loads and warms
// a cluster; setup_s is the median.
const setupReps = 3

// setup builds a cluster, loads it and runs the warm-up pass. A panic in
// the system is returned as an error.
func setup(w workload, seed int64) (b *bench, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic during set-up: %v", r)
		}
	}()
	if b, err = newBench(w, seed); err != nil {
		return nil, err
	}
	b.load()
	if _, p := b.run(w.warmOps, nil); p != "" {
		return nil, fmt.Errorf("panic during warm-up: %s", p)
	}
	return b, nil
}

// windowStats is what the measured window moved, read from the public
// API before and after it.
type windowStats struct {
	done           int
	panicked       string
	cpu, wall      time.Duration
	mallocs, numGC uint64
	roundTrips     uint64
	bytes          uint64
	maxElapsedPs   int64
	win            *window
}

// measure runs the n-op window on b and reads what it moved. With spans
// set, every op is traced.
func measure(b *bench, n int, spans *spanStore) windowStats {
	ws := windowStats{win: &window{
		getLat:   make([]int64, 0, n*b.w.readP/100+64),
		writeLat: make([]int64, 0, n*(100-b.w.readP)/100+64),
		spans:    spans,
	}}
	clocks := make([]int64, len(b.clients))
	for i, c := range b.clients {
		clocks[i] = c.clock
	}
	st0 := b.sessionStats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	wall0, cpu0 := time.Now(), cpuNow()
	ws.done, ws.panicked = b.run(n, ws.win)
	ws.cpu, ws.wall = cpuNow()-cpu0, time.Since(wall0)
	runtime.ReadMemStats(&ms1)
	ws.mallocs = ms1.Mallocs - ms0.Mallocs
	ws.numGC = uint64(ms1.NumGC - ms0.NumGC)
	st1 := b.sessionStats()
	ws.roundTrips = st1.RoundTrips - st0.RoundTrips
	ws.bytes = st1.BytesRead + st1.BytesWritten - st0.BytesRead - st0.BytesWritten
	for i, c := range b.clients {
		if d := c.clock - clocks[i]; d > ws.maxElapsedPs {
			ws.maxElapsedPs = d
		}
	}
	return ws
}

// account folds a window's outcome into the result: a panic fails every
// op of the window that did not complete.
func (r *result) account(b *bench, n int, ws windowStats) {
	if ws.panicked != "" {
		b.failed += uint64(n - ws.done)
		b.issued += uint64(n - ws.done - 1) // the panicking op was counted
		r.problem("panic after %d of %d ops: %s", ws.done, n, ws.panicked)
		if strings.Contains(ws.panicked, "outside region") {
			r.problem("a memory node's region is exhausted at the default MemoryPerNode; see mem.*_bytes_per_write")
		}
	}
}

// percentile is the nearest-rank q-quantile of sorted xs and the number
// of samples above it.
func percentile(xs []int64, q float64) (v int64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i], len(xs) - 1 - i
}

func psToUs(ps int64) float64 { return float64(ps) / 1e6 }

// latencyMetrics summarises one latency sample. Virtual latencies are
// sums of a few fixed costs, so a percentile often reads exactly the same
// value on every seed; the result therefore carries the mean and the tail
// mean (the mean of the samples beyond p99.9), and p50 and p99.9 are
// printed beside them with their sample counts.
func latencyMetrics(prefix string, lat []int64) (result, printed []metric) {
	if len(lat) == 0 {
		return nil, nil
	}
	s := append([]int64(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	p50, _ := percentile(s, 0.5)
	p999, beyond := percentile(s, 0.999)
	note := fmt.Sprintf("n=%d, %d beyond", len(s), beyond)
	if beyond < 10 {
		note += ", fewer than 10: not a stable p99.9"
	}
	var sum, tail float64
	for i, v := range s {
		sum += float64(v)
		if i >= len(s)-beyond {
			tail += float64(v)
		}
	}
	if beyond > 0 {
		tail /= float64(beyond)
	} else {
		tail = float64(p999)
	}
	result = []metric{
		{name: prefix + "_mean_us", value: sum / float64(len(s)) / 1e6, unit: "us"},
		{name: prefix + "_tail_us", value: tail / 1e6, unit: "us", note: "mean beyond p99.9, " + note},
	}
	printed = []metric{
		{name: prefix + "_p50_us", value: psToUs(p50), unit: "us", note: fmt.Sprintf("n=%d", len(s))},
		{name: prefix + "_p999_us", value: psToUs(p999), unit: "us", note: note},
	}
	return result, printed
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// runEndToEnd is the untraced run. It sets up one cluster, measures the
// n-op window on it, verifies every key and reports the end-to-end
// metrics. Then it releases that cluster and sets up setupReps-1 more,
// one after another, each released before the next, so that every set-up
// starts from the same empty heap. setup_s (the median set-up) and
// cpu_us_per_op (the window's) are CPU times scaled to the reference host
// by the calibrations run before, between and after the set-ups (see
// calibrate).
func runEndToEnd(w workload, seed int64, n int) (*result, error) {
	r := &result{correct: true}
	cals := calibrate()
	var setups []time.Duration
	timedSetup := func() (*bench, error) {
		c0 := cpuNow()
		b, err := setup(w, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, cpuNow()-c0)
		return b, nil
	}
	b, err := timedSetup()
	if err != nil {
		return nil, err
	}

	before := b.readCounters()
	ws := measure(b, n, nil)
	r.account(b, n, ws)
	r.reconcileStages(b.readCounters().sub(before), ws.roundTrips)
	live := b.model.live()
	mu, err := b.cluster.MemoryUsage()
	if err != nil {
		return nil, fmt.Errorf("memory usage: %w", err)
	}
	cache := b.cacheBytes()
	if ws.panicked == "" {
		b.verify()
	}
	errs := b.errs
	r.attempted, r.failed = b.issued, b.failed
	// b is not used again: calibrate collects its cluster before the
	// next set-up.
	cals = append(cals, calibrate()...)
	for len(setups) < setupReps {
		o, err := timedSetup()
		if err != nil {
			return nil, err
		}
		r.attempted, r.failed = r.attempted+o.issued, r.failed+o.failed
		errs = append(errs, o.errs...)
		cals = append(cals, calibrate()...)
	}
	for _, e := range errs {
		r.problem("%s", e)
	}
	if r.failed > 0 {
		r.correct = false
	}

	ops := float64(ws.done)
	if ws.done == 0 {
		ops = math.NaN()
	}
	scale := hostScale(cals)
	r.add("setup_s", median(seconds(setups))*scale, "s")
	r.add("cpu_us_per_op", float64(ws.cpu.Microseconds())/ops*scale, "us")
	r.add("vtput_mops", ops/psToUs(ws.maxElapsedPs), "Mops")
	get, getP := latencyMetrics("get", ws.win.getLat)
	all, allP := latencyMetrics("op", append(append([]int64(nil), ws.win.getLat...), ws.win.writeLat...))
	_, writeP := latencyMetrics("write", ws.win.writeLat)
	r.metrics = append(append(r.metrics, get...), all...)
	r.add("rt_per_op", float64(ws.roundTrips)/ops, "rt/op")
	r.add("net_bytes_per_op", float64(ws.bytes)/ops, "B/op")
	r.add("allocs_per_op", float64(ws.mallocs)/ops, "allocs/op")
	r.add("mn_bytes_per_key", float64(mu.TotalBytes)/float64(live), "B/key")
	r.add("cn_cache_bytes", float64(cache), "B")

	r.extra = append(append(append(r.extra, getP...), writeP...), allP...)
	r.extra = append(r.extra,
		metric{name: "fail_ratio", value: float64(r.failed) / float64(r.attempted), unit: "ratio",
			note: fmt.Sprintf("%d of %d ops, load, warm-up and verify included", r.failed, r.attempted)},
		metric{name: "wall_s", value: ws.wall.Seconds(), unit: "s", note: "measured window, not a metric"},
		metric{name: "gc_cycles", value: float64(ws.numGC), unit: "count", note: "in the measured window"},
		metric{name: "ops", value: ops, unit: "count", note: fmt.Sprintf("%d clients", w.clients)},
		metric{name: "setup_s_unscaled", value: median(seconds(setups)), unit: "s",
			note: fmt.Sprintf("set-ups %.4g s", seconds(setups))},
		metric{name: "cpu_us_per_op_unscaled", value: float64(ws.cpu.Microseconds()) / ops, unit: "us"},
		metric{name: "calibration_ms", value: median(seconds(cals)) * 1e3, unit: "ms",
			note: fmt.Sprintf("median of %d slices, reference %v", len(cals), refCalibration)},
	)
	return r, nil
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
