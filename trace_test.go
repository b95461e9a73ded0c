package sphinx

import (
	"fmt"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/obs"
)

// TestTraceColdGet pins the paper's §III-B claim in trace form: a Get the
// leaf-address cache has no opinion on costs exactly three round trips —
// hash-read, node-read, leaf-read — independent of tree depth, and the
// session's histogram totals reconcile with the fabric's own counters.
func TestTraceColdGet(t *testing.T) {
	cluster, err := NewCluster(Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := cluster.NewComputeNode().NewSession()

	// Two keys diverging at depth 3 force an inner node at "LYR", so the
	// hash path has a real hash-table target below the root.
	if err := s.Put([]byte("LYRICS"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("LYRBIC"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// Warm the filter cache on the sibling key: the "LYR" prefix becomes
	// known CN-side, but the leaf-address cache learns nothing about
	// LYRBIC — so the traced Get below is the pure 3-RT hash path.
	if _, ok, err := s.Get([]byte("LYRICS")); err != nil || !ok {
		t.Fatalf("warm-up Get = ok %v, err %v", ok, err)
	}

	tr, err := s.Trace("get LYRBIC", func() error {
		v, ok, err := s.Get([]byte("LYRBIC"))
		if err == nil && (!ok || string(v) != "v2") {
			t.Errorf("traced Get = %q, ok %v", v, ok)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	if got := tr.RoundTrips(); got != 3 {
		t.Fatalf("cold Get took %d round trips, want 3:\n%s", got, tr.Format())
	}
	var stages []string
	for _, e := range tr.Events {
		if e.Batch {
			stages = append(stages, e.Stage.String())
		}
	}
	want := []string{
		fabric.StageHashRead.String(),
		fabric.StageNodeRead.String(),
		fabric.StageLeafRead.String(),
	}
	if len(stages) != len(want) {
		t.Fatalf("batch stages = %v, want %v:\n%s", stages, want, tr.Format())
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("batch stages = %v, want %v:\n%s", stages, want, tr.Format())
		}
	}
	out := tr.Format()
	for _, needle := range []string{"3 round trips", "hash-read", "node-read", "leaf-read"} {
		if !strings.Contains(out, needle) {
			t.Errorf("trace output missing %q:\n%s", needle, out)
		}
	}

	// The tee'd recorder must not have perturbed the session accounting: a
	// sequential session reconciles at both the stage and the op level.
	st := s.Stats()
	if got := s.Metrics().StageRTTotal(); got != st.RoundTrips {
		t.Errorf("stage RT total %d != fabric round trips %d", got, st.RoundTrips)
	}
	if got := s.Metrics().OpRTTotal(); got != st.RoundTrips {
		t.Errorf("op RT total %d != fabric round trips %d", got, st.RoundTrips)
	}

	// The registry sees the same truth through its export path.
	snap := s.Registry().Snapshot()
	if snap.Counters["fabric_round_trips"] != st.RoundTrips {
		t.Errorf("registry fabric_round_trips = %d, want %d",
			snap.Counters["fabric_round_trips"], st.RoundTrips)
	}
	var prom strings.Builder
	if err := snap.WritePrometheus(&prom, "sphinx"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), `sphinx_session_stage_round_trips_count{stage="hash-read"}`) {
		t.Errorf("prometheus export missing hash-read stage histogram:\n%s", prom.String())
	}
}

// TestTraceWarmGet pins the speculative fast path in trace form: a Get
// whose key the leaf-address cache knows costs exactly ONE round trip —
// a leaf-spec read verified in place — and the trace carries the hit
// annotation. Accounting still reconciles with the fabric's counters.
func TestTraceWarmGet(t *testing.T) {
	cluster, err := NewCluster(Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := cluster.NewComputeNode().NewSession()

	if err := s.Put([]byte("LYRICS"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("LYRBIC"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// The warm-up Get traverses the tree and learns LYRICS's leaf address.
	if _, ok, err := s.Get([]byte("LYRICS")); err != nil || !ok {
		t.Fatalf("warm-up Get = ok %v, err %v", ok, err)
	}

	tr, err := s.Trace("get LYRICS", func() error {
		v, ok, err := s.Get([]byte("LYRICS"))
		if err == nil && (!ok || string(v) != "v1") {
			t.Errorf("traced Get = %q, ok %v", v, ok)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	if got := tr.RoundTrips(); got != 1 {
		t.Fatalf("warm Get took %d round trips, want 1:\n%s", got, tr.Format())
	}
	var stages []string
	for _, e := range tr.Events {
		if e.Batch {
			stages = append(stages, e.Stage.String())
		}
	}
	if len(stages) != 1 || stages[0] != fabric.StageLeafSpec.String() {
		t.Fatalf("batch stages = %v, want [leaf-spec]:\n%s", stages, tr.Format())
	}
	out := tr.Format()
	for _, needle := range []string{"1 round trips", "leaf-spec", "lac hit"} {
		if !strings.Contains(out, needle) {
			t.Errorf("trace output missing %q:\n%s", needle, out)
		}
	}

	// Speculative counters surfaced at the session level.
	sc, ok := s.SphinxStats()
	if !ok || sc.SpecHits != 1 {
		t.Errorf("SphinxStats SpecHits = %d (ok %v), want 1", sc.SpecHits, ok)
	}

	// Accounting reconciles: the speculative round trip is attributed to
	// the leaf-spec stage and counted exactly once.
	st := s.Stats()
	if got := s.Metrics().StageRTTotal(); got != st.RoundTrips {
		t.Errorf("stage RT total %d != fabric round trips %d", got, st.RoundTrips)
	}
	if got := s.Metrics().OpRTTotal(); got != st.RoundTrips {
		t.Errorf("op RT total %d != fabric round trips %d", got, st.RoundTrips)
	}
	var prom strings.Builder
	if err := s.Registry().Snapshot().WritePrometheus(&prom, "sphinx"); err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{
		`sphinx_session_stage_round_trips_count{stage="leaf-spec"}`,
		"sphinx_core_spec_hits 1",
		"sphinx_lac_learns",
	} {
		if !strings.Contains(prom.String(), needle) {
			t.Errorf("prometheus export missing %q", needle)
		}
	}
}

// TestTraceNoteText pins the text of the index's local annotations, in
// an explicit trace and in the tail samples /traces serves: notes are
// recorded unformatted and formatted only when a trace is returned or
// kept, and must read exactly as they always did.
func TestTraceNoteText(t *testing.T) {
	cluster, err := NewCluster(Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := cluster.NewComputeNode().NewSession()
	for _, k := range []string{"LYRICS", "LYRBIC"} {
		if err := s.Put([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := s.Get([]byte("LYRICS")); err != nil || !ok {
		t.Fatalf("warm-up Get = ok %v, err %v", ok, err)
	}
	tr, err := s.Trace("get LYRBIC", func() error {
		_, _, err := s.Get([]byte("LYRBIC"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var notes []string
	for _, e := range tr.Events {
		if e.Note != "" {
			notes = append(notes, e.Note)
		}
	}
	if want := []string{"sfc probe hit: prefix 3/6, fetching"}; strings.Join(notes, "|") != strings.Join(want, "|") {
		t.Fatalf("trace notes %q, want %q:\n%s", notes, want, tr.Format())
	}

	// Cold Gets over more keys than the LAC holds keep missing it, so
	// the kept tail samples carry probe-hit notes; /traces must show
	// them formatted.
	small, err := NewCluster(Config{LeafCacheBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	s = small.NewComputeNode().NewSession()
	for i := 0; i < 400; i++ {
		if err := s.Put([]byte(fmt.Sprintf("note-%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		if _, _, err := s.Get([]byte(fmt.Sprintf("note-%04d", (i*7)%400))); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	obs.NewHandler(obs.ServeOptions{Tail: s.Tail()}).ServeHTTP(rec, httptest.NewRequest("GET", "/traces", nil))
	body := rec.Body.String()
	probeHit := regexp.MustCompile(`^sfc probe hit: prefix \d+/9, fetching$`)
	seen := 0
	for _, sm := range s.Tail().Samples() {
		for _, e := range sm.Trace.Events {
			if e.Note == "" || e.Batch {
				continue
			}
			if strings.HasPrefix(e.Note, "sfc probe hit") {
				if !probeHit.MatchString(e.Note) {
					t.Fatalf("tail sample note %q is not the probe-hit text", e.Note)
				}
				seen++
			}
			if !strings.Contains(body, e.Note) {
				t.Fatalf("/traces does not show note %q:\n%s", e.Note, body)
			}
		}
	}
	if seen == 0 {
		t.Fatalf("no tail sample carries a probe-hit note:\n%s", body)
	}
	if strings.Contains(body, "%") {
		t.Fatalf("/traces shows an unformatted note:\n%s", body)
	}
}
