// Command perfbench is the repository's benchmark: one closed-loop load
// generator with three named workloads on the public sphinx API (Cluster,
// ComputeNode, Session). An untraced run prints the end-to-end metrics;
// a traced run (--trace 1) prints the per-layer metrics and writes its
// spans and CPU profile. See README.md.
//
//	go run . --workload uniform-read --seed 1 --seconds 4 --trace 0
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
)

func main() {
	name := flag.String("workload", "", "workload: uniform-read, zipf-hot or write-mix")
	seed := flag.Int64("seed", 1, "seed of the keys, values and op streams")
	seconds := flag.Int("seconds", 10, "length of the measured window, in seconds of reference-host time")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for a traced run's spans and CPU profile")
	flag.Parse()

	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q: %v)\n", *name, err)
		flag.Usage()
		os.Exit(2)
	}
	// The MN regions are 768 MiB of pointer-free heap, most of it never
	// touched. At the default GOGC the collector would let garbage grow to
	// that size before each cycle, so the process would hold gigabytes and
	// a window would see zero or one collection by chance; at 10% garbage
	// stays near 100 MiB and collections spread evenly over the window.
	debug.SetGCPercent(10)
	n := w.opsPerSecond * *seconds
	var r *result
	if *trace == 1 {
		r, err = runTraced(w, *seed, n, *out)
	} else {
		r, err = runEndToEnd(w, *seed, n)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	fmt.Printf("# perfbench %s seed=%d ops=%d trace=%d peak_rss=%s\n", w.name, *seed, n, *trace, peakRSS())
	for _, m := range append(append([]metric(nil), r.metrics...), r.extra...) {
		line := fmt.Sprintf("%-34s %14.6g %s", m.name, m.value, m.unit)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Println(line)
	}
	for _, p := range r.problems {
		fmt.Println("# problem:", p)
	}
	fmt.Println(r.json())
}

// peakRSS reads the process's peak resident set size from /proc.
func peakRSS() string {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			return strings.Join(strings.Fields(line[len("VmHWM:"):]), " ")
		}
	}
	return "unknown"
}

// json renders the result line: correct, attempted, failed and every
// metric with its unit, values printed with all their digits.
func (r *result) json() string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %v, "attempted": %d, "failed": %d, "metrics": {`, r.correct, r.attempted, r.failed)
	for i, m := range r.metrics {
		if i > 0 {
			b.WriteString(", ")
		}
		v := "null"
		if !math.IsNaN(m.value) && !math.IsInf(m.value, 0) {
			v = strconv.FormatFloat(m.value, 'g', -1, 64)
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, m.name, v, m.unit)
	}
	b.WriteString("}}")
	return b.String()
}
