package main

import (
	"fmt"
	"math/rand"

	"sphinx"
)

// client is one virtual client: a Session, its op stream and its clock.
type client struct {
	s     *sphinx.Session
	rng   *rand.Rand
	clock int64 // the session's virtual clock after its last op
}

// bench is one built cluster with its clients, keys and oracle. All ops
// are issued from one goroutine, always on the client with the smallest
// virtual clock (ties to the lowest index): a closed loop of N clients
// whose every virtual-time figure is a pure function of the seed.
type bench struct {
	w       workload
	cluster *sphinx.Cluster
	cns     []*sphinx.ComputeNode
	clients []*client
	heap    []int // client indices, a min-heap on (clock, index)
	ks      *keySource
	model   *model
	val     []byte // value scratch; its filler bytes are fixed per seed

	issued, failed uint64
	errs           []string // the first few failures, for the report
}

func newBench(w workload, seed int64) (*bench, error) {
	cl, err := sphinx.NewCluster(clusterConfig(w, seed))
	if err != nil {
		return nil, fmt.Errorf("build cluster: %w", err)
	}
	b := &bench{
		w:       w,
		cluster: cl,
		ks:      newKeySource(w, seed),
		model:   newModel(w.valueSize, w.keys),
		val:     make([]byte, w.valueSize),
	}
	rand.New(rand.NewSource(seed)).Read(b.val)
	for i := 0; i < computeNodes; i++ {
		b.cns = append(b.cns, cl.NewComputeNode())
	}
	for i := 0; i < w.clients; i++ {
		b.clients = append(b.clients, &client{
			s:   b.cns[i%computeNodes].NewSession(),
			rng: rand.New(rand.NewSource(seed*1_000_003 + int64(i))),
		})
		b.heap = append(b.heap, i)
	}
	return b, nil
}

func (b *bench) less(i, j int) bool {
	ci, cj := b.clients[b.heap[i]], b.clients[b.heap[j]]
	return ci.clock < cj.clock || (ci.clock == cj.clock && b.heap[i] < b.heap[j])
}

// advance re-reads the root client's clock after an op and restores the
// heap order; only the root ever changes.
func (b *bench) advance() {
	c := b.clients[b.heap[0]]
	c.clock = c.s.Stats().ClockPs
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < len(b.heap) && b.less(l, m) {
			m = l
		}
		if r := l + 1; r < len(b.heap) && b.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		b.heap[i], b.heap[m] = b.heap[m], b.heap[i]
		i = m
	}
}

func (b *bench) fail(err error) {
	b.failed++
	if len(b.errs) < 8 {
		b.errs = append(b.errs, err.Error())
	}
}

// exec issues one op and checks its outcome against the oracle.
func (b *bench) exec(c *client, o op) error {
	key := b.ks.keys[o.idx]
	switch o.kind {
	case opGet:
		v, ok, err := c.s.Get(key)
		if err != nil {
			return fmt.Errorf("get %q: %w", key, err)
		}
		return b.model.checkGet(o.idx, key, v, ok)
	case opUpdate:
		ver := b.model.nextVersion()
		encodeValue(b.val, key, ver)
		found, err := c.s.Update(key, b.val)
		if err != nil {
			b.model.acked(o.idx, ver, err)
			return fmt.Errorf("update %q: %w", key, err)
		}
		check := b.model.checkFound(o.idx, key, found)
		if found {
			b.model.acked(o.idx, ver, nil)
		}
		return check
	default:
		b.model.grow(o.idx + 1)
		ver := b.model.nextVersion()
		encodeValue(b.val, key, ver)
		err := c.s.Put(key, b.val)
		b.model.acked(o.idx, ver, err)
		if err != nil {
			return fmt.Errorf("insert %q: %w", key, err)
		}
		return nil
	}
}

// load inserts every loaded key once, in clock order over the clients.
func (b *bench) load() {
	for idx := 0; idx < b.ks.loaded; idx++ {
		b.issue(b.clients[b.heap[0]], op{opInsert, idx})
		b.advance()
	}
}

func (b *bench) issue(c *client, o op) {
	b.issued++
	if err := b.exec(c, o); err != nil {
		b.fail(err)
	}
}

// window collects what one measured run of ops produces.
type window struct {
	getLat, writeLat []int64 // virtual latency per op, ps
	spans            *spanStore
}

// run issues n ops of the workload. A panic inside the system ends the
// run: done reports how many ops completed, and the panic text is
// returned. With w == nil nothing is recorded (warm-up).
func (b *bench) run(n int, w *window) (done int, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	for ; done < n; done++ {
		c := b.clients[b.heap[0]]
		o := b.ks.next(&b.w, c.rng)
		start := c.clock
		if w != nil && w.spans != nil {
			w.spans.record(b, c, o)
		} else {
			b.issue(c, o)
		}
		b.advance()
		if w != nil {
			if o.kind == opGet {
				w.getLat = append(w.getLat, c.clock-start)
			} else {
				w.writeLat = append(w.writeLat, c.clock-start)
			}
		}
	}
	return done, ""
}

// verify reads back every key the run ever wrote, outside any timed
// window, and checks each against the oracle.
func (b *bench) verify() {
	for idx := range b.ks.keys {
		b.issue(b.clients[idx%len(b.clients)], op{opGet, idx})
	}
}

// sessionStats sums Session.Stats over all clients.
func (b *bench) sessionStats() sphinx.Stats {
	var t sphinx.Stats
	for _, c := range b.clients {
		s := c.s.Stats()
		t.RoundTrips += s.RoundTrips
		t.BytesRead += s.BytesRead
		t.BytesWritten += s.BytesWritten
	}
	return t
}

// maxClock is the slowest client's virtual clock.
func (b *bench) maxClock() int64 {
	var m int64
	for _, c := range b.clients {
		if c.clock > m {
			m = c.clock
		}
	}
	return m
}

func (b *bench) cacheBytes() uint64 {
	var t uint64
	for _, cn := range b.cns {
		t += cn.CacheBytes()
	}
	return t
}
