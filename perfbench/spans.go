package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// opSpan is one traced op: a Session call wrapped in Session.Trace.
// Its children are the doorbell batches and annotation events the trace
// carried, stored flat in spanStore.children.
type opSpan struct {
	ID        int32
	Kind      opKind
	Client    int32
	StartPs   int64
	EndPs     int64
	WallNs    int64 // wall time the call took
	Child0    int32 `json:"-"`
	NChildren int32 `json:"-"`
}

// childSpan is one batch (Batch true) or annotation (Note set) of an op.
type childSpan struct {
	Stage   string
	StartPs int64
	EndPs   int64
	Verbs   int32
	Bytes   uint64
	RTs     uint64
	Batch   bool
	Err     string
	Note    string
}

// spanStore keeps every span of a traced window in memory; write puts
// them out once the window is over.
type spanStore struct {
	ops      []opSpan
	children []childSpan
}

// record issues o on c inside Session.Trace and keeps its spans.
func (st *spanStore) record(b *bench, c *client, o op) {
	b.issued++
	t0 := time.Now()
	tr, err := c.s.Trace(o.kind.String(), func() error { return b.exec(c, o) })
	wall := time.Since(t0)
	if err != nil {
		b.fail(err)
	}
	sp := opSpan{
		ID: int32(len(st.ops)), Kind: o.kind, Client: int32(b.heap[0]),
		StartPs: tr.StartPs, EndPs: tr.EndPs, WallNs: wall.Nanoseconds(),
		Child0: int32(len(st.children)), NChildren: int32(len(tr.Events)),
	}
	for _, e := range tr.Events {
		st.children = append(st.children, childSpan{
			Stage: e.Stage.String(), StartPs: e.StartPs, EndPs: e.EndPs,
			Verbs: int32(e.Verbs), Bytes: e.Bytes, RTs: e.RoundTrips,
			Batch: e.Batch, Err: e.Err, Note: e.Note,
		})
	}
	st.ops = append(st.ops, sp)
}

// spanTotals is what the spans account: round trips per stage and in
// all, and the ops' self time (op span minus its batches).
type spanTotals struct {
	rts    map[string]uint64
	rtSum  uint64
	selfPs int64
}

func (st *spanStore) totals() spanTotals {
	t := spanTotals{rts: map[string]uint64{}}
	for _, sp := range st.ops {
		self := sp.EndPs - sp.StartPs
		for _, ch := range st.children[sp.Child0 : sp.Child0+sp.NChildren] {
			if !ch.Batch {
				continue
			}
			t.rts[ch.Stage] += ch.RTs
			t.rtSum += ch.RTs
			self -= ch.EndPs - ch.StartPs
		}
		t.selfPs += self
	}
	return t
}

// write stores the spans as gzipped JSON lines, one op per line with its
// children inline.
func (st *spanStore) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	type line struct {
		opSpan
		Kind     string
		Children []childSpan
	}
	for _, sp := range st.ops {
		l := line{opSpan: sp, Kind: sp.Kind.String(), Children: st.children[sp.Child0 : sp.Child0+sp.NChildren]}
		if err := enc.Encode(l); err != nil {
			return fmt.Errorf("encode span %d: %w", sp.ID, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return zw.Close()
}
