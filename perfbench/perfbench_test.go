package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
)

// tiny scales a workload down to a smoke-test size, keeping its mix.
func tiny(w workload) workload {
	w.keys, w.opsPerSecond, w.warmOps = 2000, 4000, 2000
	if w.clients > 24 {
		w.clients = 24
	}
	return w
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range c.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range c.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func checkMetrics(t *testing.T, r *result, want map[string]string) {
	t.Helper()
	got := map[string]string{}
	for _, m := range r.metrics {
		got[m.name] = m.unit
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("metrics %v, BENCHMARK.json declares %v", got, want)
	}
	if !json.Valid([]byte(r.json())) {
		t.Fatalf("result line is not JSON: %s", r.json())
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, full := range workloads {
		w := tiny(full)
		t.Run(w.name, func(t *testing.T) {
			r, err := runEndToEnd(w, 3, w.opsPerSecond)
			if err != nil {
				t.Fatal(err)
			}
			if !r.correct || r.failed != 0 || r.attempted == 0 {
				t.Fatalf("end-to-end run: correct=%v failed=%d attempted=%d problems=%v", r.correct, r.failed, r.attempted, r.problems)
			}
			checkMetrics(t, r, endToEnd)

			r, err = runTraced(w, 3, w.opsPerSecond, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !r.correct || r.failed != 0 {
				t.Fatalf("traced run: correct=%v failed=%d problems=%v", r.correct, r.failed, r.problems)
			}
			checkMetrics(t, r, perLayer)
		})
	}
}

// virtualMetrics drops the metrics measured on the host: the CPU times
// setup_s and cpu_us_per_op, and allocs_per_op, which counts the Go
// runtime's own allocations too.
func virtualMetrics(r *result) map[string]float64 {
	out := map[string]float64{}
	for _, m := range r.metrics {
		if m.name != "setup_s" && m.name != "cpu_us_per_op" && m.name != "allocs_per_op" {
			out[m.name] = m.value
		}
	}
	return out
}

func TestSameSeedSameVirtualMetrics(t *testing.T) {
	w := tiny(workloads[1]) // zipf-hot: the only workload with NIC contention
	a, err := runEndToEnd(w, 11, w.opsPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runEndToEnd(w, 11, w.opsPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(virtualMetrics(a), virtualMetrics(b)) || a.attempted != b.attempted {
		t.Errorf("same seed differs:\n%v (%d ops)\n%v (%d ops)", virtualMetrics(a), a.attempted, virtualMetrics(b), b.attempted)
	}
}

func TestDifferentSeedDifferentOps(t *testing.T) {
	w := tiny(workloads[2])
	stream := func(seed int64) []string {
		ks := newKeySource(w, seed)
		rng := rand.New(rand.NewSource(seed))
		var out []string
		for i := 0; i < 100; i++ {
			o := ks.next(&w, rng)
			out = append(out, o.kind.String()+" "+string(ks.keys[o.idx]))
		}
		return out
	}
	if reflect.DeepEqual(stream(1), stream(2)) {
		t.Fatal("seeds 1 and 2 generated the same op stream")
	}
	if !reflect.DeepEqual(stream(5), stream(5)) {
		t.Fatal("seed 5 generated two different op streams")
	}
}

func TestOracleFlagsStaleAndForeignValues(t *testing.T) {
	w := tiny(workloads[0])
	b, err := newBench(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	b.load()
	b.issue(b.clients[0], op{opUpdate, 0}) // key 0 now at a newer version
	if b.failed != 0 {
		t.Fatalf("clean ops failed: %v", b.errs)
	}

	// Write key 0's previous version behind the oracle's back.
	stale := append([]byte(nil), b.val...)
	encodeValue(stale, b.ks.keys[0], b.model.ver[0]-1)
	if err := b.clients[1].s.Put(b.ks.keys[0], stale); err != nil {
		t.Fatal(err)
	}
	b.issue(b.clients[2], op{opGet, 0})
	if b.failed != 1 || !strings.Contains(b.errs[0], "stale") {
		t.Fatalf("stale value not flagged: failed=%d errs=%v", b.failed, b.errs)
	}

	// Store key 2's value under key 1.
	foreign := append([]byte(nil), b.val...)
	encodeValue(foreign, b.ks.keys[2], b.model.ver[1])
	if err := b.clients[1].s.Put(b.ks.keys[1], foreign); err != nil {
		t.Fatal(err)
	}
	b.issue(b.clients[0], op{opGet, 1})
	if b.failed != 2 || !strings.Contains(b.errs[1], "another key") {
		t.Fatalf("foreign value not flagged: failed=%d errs=%v", b.failed, b.errs)
	}
}

func TestCPUAttribution(t *testing.T) {
	for fn, want := range map[string]string{
		"sphinx/internal/core.(*Client).locate":       "core",
		"sphinx/internal/cuckoo.(*Filter).Contains":   "cuckoo",
		"sphinx.(*Session).Get":                       "sphinx",
		"sphinx/internal/obs.(*Recorder).Note.func1":  "obs",
		"main.(*bench).exec":                          "driver",
		"sphinx/internal/ycsb.(*Zipfian).Draw":        "driver",
		"runtime.mallocgc":                            "",
		"encoding/binary.littleEndian.PutUint64":      "",
		"sphinx/internal/consistenthash.(*Ring).Node": "consistenthash",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestPanicFailsTheRestOfTheWindow(t *testing.T) {
	b := &bench{issued: 41, failed: 0}
	r := &result{correct: true}
	r.account(b, 100, windowStats{done: 40, panicked: "mem: access [0x10,0x20) outside region of 16 bytes on node 2"})
	if r.correct || b.failed != 60 || b.issued != 100 {
		t.Fatalf("correct=%v failed=%d issued=%d, want false, 60, 100", r.correct, b.failed, b.issued)
	}
	if len(r.problems) != 2 || !strings.Contains(r.problems[1], "exhausted") {
		t.Fatalf("problems %q do not report the exhausted region", r.problems)
	}
}

func TestCalibrationSlices(t *testing.T) {
	s := calibrate()
	if len(s) != calibSlices {
		t.Fatalf("%d slices, want %d", len(s), calibSlices)
	}
	for i, d := range s {
		if d <= 0 {
			t.Errorf("slice %d took %v of CPU", i, d)
		}
	}
}
