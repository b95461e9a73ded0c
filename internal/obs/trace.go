package obs

import (
	"fmt"
	"strings"

	"sphinx/internal/fabric"
)

// Event is one entry of an operation trace: either a doorbell batch
// (Batch true, with costs) or a local annotation such as a filter probe,
// a detected collision or a restart (Batch false, Note set).
type Event struct {
	Stage      fabric.Stage
	StartPs    int64
	EndPs      int64
	Verbs      int
	Bytes      uint64
	RoundTrips uint64
	Batch      bool
	Err        string
	Note       string
	// args holds the operands of a Notef annotation while it is still
	// unformatted (Note is then its format); see Recorder.Notef.
	args noteArgs
}

// noteArgs are the deferred operands of one Notef annotation.
type noteArgs struct {
	lazy bool
	n    int
	v    [2]any
}

// renderNotes formats every deferred Notef annotation in place.
func (t *Trace) renderNotes() {
	for i := range t.Events {
		if e := &t.Events[i]; e.args.lazy {
			e.Note = fmt.Sprintf(e.Note, e.args.v[:e.args.n]...)
			e.args = noteArgs{}
		}
	}
}

// Trace is the recorded timeline of one index operation on the virtual
// clock.
type Trace struct {
	Op      string
	StartPs int64
	EndPs   int64
	Events  []Event
}

// RoundTrips sums the round trips of the recorded batches.
func (t *Trace) RoundTrips() uint64 {
	var total uint64
	for _, e := range t.Events {
		total += e.RoundTrips
	}
	return total
}

// Verbs sums the executed verbs of the recorded batches.
func (t *Trace) Verbs() int {
	total := 0
	for _, e := range t.Events {
		total += e.Verbs
	}
	return total
}

// Bytes sums the payload bytes of the recorded batches.
func (t *Trace) Bytes() uint64 {
	var total uint64
	for _, e := range t.Events {
		total += e.Bytes
	}
	return total
}

// Clone returns a deep copy of the trace with every note formatted, safe
// to retain after the recorder that produced it reuses its storage (tail
// sampling keeps clones; live recording keeps reusing the original).
func (t *Trace) Clone() *Trace {
	cp := *t
	cp.Events = append([]Event(nil), t.Events...)
	cp.renderNotes()
	return &cp
}

func us(ps int64) float64 { return float64(ps) / 1e6 }

// Format renders the trace as the round-trip timeline sphinxcli prints:
// one line per event with the virtual timestamp relative to the op start,
// the event's own duration, its stage, and its verb/byte costs.
func (t *Trace) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d round trips, %d verbs, %d B, %.2f µs virtual\n",
		t.Op, t.RoundTrips(), t.Verbs(), t.Bytes(), us(t.EndPs-t.StartPs))
	fmt.Fprintf(&b, "  %-3s %8s %8s  %-10s %3s %5s %6s  %s\n",
		"#", "t(µs)", "+µs", "stage", "rt", "verbs", "bytes", "detail")
	for i, e := range t.Events {
		detail := e.Note
		if e.Err != "" {
			if detail != "" {
				detail += "; "
			}
			detail += "error: " + e.Err
		}
		if e.Batch {
			fmt.Fprintf(&b, "  %-3d %8.2f %8.2f  %-10s %3d %5d %6d  %s\n",
				i+1, us(e.StartPs-t.StartPs), us(e.EndPs-e.StartPs),
				e.Stage, e.RoundTrips, e.Verbs, e.Bytes, detail)
		} else {
			fmt.Fprintf(&b, "  %-3d %8.2f %8s  %-10s %3s %5s %6s  %s\n",
				i+1, us(e.StartPs-t.StartPs), "—", e.Stage, "—", "—", "—", detail)
		}
	}
	return b.String()
}

// Recorder captures one operation's trace. It implements
// fabric.BatchObserver; arming it means installing it as (or teeing it
// into) the fabric client's observer and handing it to the core client
// for local annotations, for the duration of one operation.
//
// A Recorder is NOT safe for concurrent clients — tracing is a
// sequential-session diagnostic. (Pipeline lanes notify observers before
// the flush releases the lane goroutine, so a recorder on a single lane
// is still well-ordered.) All methods are nil-receiver-safe so call
// sites need no guards beyond the cheap pointer test they already do to
// skip argument construction.
type Recorder struct {
	tr *Trace
	// live gates event capture to the Begin..End window, so a recorder
	// can stay installed as a permanent observer (always-on tail
	// sampling) without accumulating events between operations.
	live bool
}

// NewRecorder returns an idle recorder; call Begin to start a trace.
func NewRecorder() *Recorder { return &Recorder{} }

// Begin starts recording a new trace for the named op at the given
// virtual time, discarding any previous trace.
func (r *Recorder) Begin(op string, nowPs int64) {
	if r == nil {
		return
	}
	r.tr = &Trace{Op: op, StartPs: nowPs}
	r.live = true
}

// BeginReuse is Begin reusing the previous trace's storage: after the
// first few operations an always-on recorder stops allocating entirely.
// Callers that keep a trace across BeginReuse calls must Clone it.
func (r *Recorder) BeginReuse(op string, nowPs int64) {
	if r == nil {
		return
	}
	if r.tr == nil {
		r.tr = &Trace{}
	}
	r.tr.Op, r.tr.StartPs, r.tr.EndPs = op, nowPs, 0
	r.tr.Events = r.tr.Events[:0]
	r.live = true
}

// End closes the active trace at the given virtual time and returns it
// as recorded: Notef annotations are still unformatted, so hand it only
// to code that reads no notes or keeps a Clone (TailSampler.Offer).
func (r *Recorder) End(nowPs int64) *Trace {
	if r == nil || r.tr == nil {
		return nil
	}
	r.tr.EndPs = nowPs
	r.live = false
	return r.tr
}

// Trace returns the most recently recorded trace with every note
// formatted (nil before Begin).
func (r *Recorder) Trace() *Trace {
	if r == nil || r.tr == nil {
		return nil
	}
	r.tr.renderNotes()
	return r.tr
}

// Note appends a local (non-batch) annotation at the given virtual time.
func (r *Recorder) Note(stage fabric.Stage, nowPs int64, note string) {
	if r == nil || !r.live {
		return
	}
	r.tr.Events = append(r.tr.Events, Event{
		Stage: stage, StartPs: nowPs, EndPs: nowPs, Note: note,
	})
}

// Notef appends a local annotation whose text is fmt.Sprintf(format,
// args...). Up to two operands are kept and formatted only when the trace
// is cloned or returned by Trace, so an always-armed recorder formats
// nothing for the operations nobody keeps.
func (r *Recorder) Notef(stage fabric.Stage, nowPs int64, format string, args ...any) {
	if r == nil || !r.live {
		return
	}
	e := Event{Stage: stage, StartPs: nowPs, EndPs: nowPs, Note: format}
	if len(args) <= len(e.args.v) {
		e.args.lazy = true
		e.args.n = copy(e.args.v[:], args)
	} else {
		e.Note = fmt.Sprintf(format, args...)
	}
	r.tr.Events = append(r.tr.Events, e)
}

// ObserveBatch implements fabric.BatchObserver.
func (r *Recorder) ObserveBatch(ev fabric.BatchEvent) {
	if r == nil || !r.live {
		return
	}
	e := Event{
		Stage: ev.Stage, StartPs: ev.StartPs, EndPs: ev.EndPs,
		Verbs: ev.Verbs, Bytes: ev.Bytes, RoundTrips: ev.RoundTrips,
		Batch: true,
	}
	if ev.Err != nil {
		e.Err = ev.Err.Error()
	}
	r.tr.Events = append(r.tr.Events, e)
}
