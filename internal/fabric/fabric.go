// Package fabric simulates an RDMA network connecting compute-node clients
// to memory nodes, replacing the ConnectX-6 testbed of the paper.
//
// The simulation is exact in data and virtual in time. Every verb really
// moves bytes between the client and a mem.Region, with the same atomicity
// guarantees as one-sided RDMA (8-byte atomics, torn multi-line transfers).
// Time, however, is tracked on a per-client virtual clock, advanced by a
// configurable cost model:
//
//	completion = max(clock, nicQueue) + RTT + Σ per-op NIC cost
//
// where nicQueue is a per-memory-node NIC timeline shared by all clients.
// When aggregate demand exceeds a NIC's processing rate, the queue start
// time runs ahead of client clocks and both latency inflation and
// throughput saturation emerge — the phenomena behind the paper's Fig. 5.
//
// Doorbell batching (paper §III-A, [23]) is modelled by Batch: any number
// of verbs posted together costs a single round-trip latency, while each
// verb still pays its NIC processing and byte costs.
package fabric

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sphinx/internal/mem"
)

// Config is the network cost model. All costs are in picoseconds so that
// sub-nanosecond per-byte costs stay exact in integer arithmetic.
type Config struct {
	// RTTPs is the base round-trip latency for any verb or batch.
	RTTPs int64
	// PerVerbPs is the NIC processing cost per verb (per posted work
	// request), charged on the target memory node's NIC timeline.
	PerVerbPs int64
	// PerBytePs is the NIC cost per payload byte, charged likewise.
	// 40 fs/B ≈ 25 GB/s is stored as 0.04 ps via PerKBPs below; to keep
	// integers exact we charge per byte in femtoseconds.
	PerByteFs int64
	// ClientVerbPs is the CN-side cost of posting one verb (doorbell
	// write, WQE build, completion poll). It bounds the op rate a single
	// worker can sustain even on an idle network.
	ClientVerbPs int64
}

// DefaultConfig models the paper's testbed: ~2 µs RTT, 100 Gbps-class NIC.
//
//   - RTT 2 µs.
//   - Per-verb NIC cost 8 ns → ≈125 M verbs/s per MN NIC.
//   - Per-byte cost 40 fs → 25 GB/s per MN NIC.
//   - Client verb cost 150 ns (WQE post + CQ poll share).
func DefaultConfig() Config {
	return Config{
		RTTPs:        2_000_000,
		PerVerbPs:    8_000,
		PerByteFs:    40_000,
		ClientVerbPs: 150_000,
	}
}

// InstantConfig is a zero-cost model for functional tests and examples
// where timing is irrelevant.
func InstantConfig() Config { return Config{} }

// Kind enumerates the one-sided verbs.
type Kind uint8

// The verb set available to clients (paper §II-A).
const (
	Read Kind = iota
	Write
	CAS
	FAA
)

// String names the verb.
func (k Kind) String() string {
	switch k {
	case Read:
		return "READ"
	case Write:
		return "WRITE"
	case CAS:
		return "CAS"
	case FAA:
		return "FAA"
	default:
		return fmt.Sprintf("verb(%d)", uint8(k))
	}
}

// Op is one verb within a doorbell batch. For Read, Data is the destination
// buffer; for Write, the source. For CAS, Expect/Desired are the compare
// and swap operands; for FAA, Delta is the addend. After execution, Old
// holds the pre-image for CAS and FAA.
type Op struct {
	Kind    Kind
	Addr    mem.Addr
	Data    []byte
	Expect  uint64
	Desired uint64
	Delta   uint64
	Old     uint64
}

// nicSlotPs is the granularity of the NIC capacity timeline: each slot of
// virtual time offers nicSlotPs of processing capacity. One microsecond is
// fine enough that queueing delays resolve well below a round trip.
const nicSlotPs = 1_000_000

// nicPageShift sizes the timeline's pages: 4096 slots (4.096 ms of
// virtual time) of int32 consumed capacity, 16 KiB per page.
const (
	nicPageShift = 12
	nicPageSlots = 1 << nicPageShift
)

// nicPage holds the capacity already consumed (ps, at most nicSlotPs) in
// each slot of one page of the timeline.
type nicPage [nicPageSlots]int32

// nic is one memory node's NIC processing timeline, modelled as capacity
// per virtual-time slot. Unlike a single free-pointer queue, this lets a
// request whose issue time (virtual clock) lies in the past consume the
// capacity that was genuinely idle then — necessary because worker
// goroutines reach the simulated NIC in real-scheduling order, not
// virtual-time order. Saturation still emerges: when aggregate demand
// around an instant exceeds slot capacity, requests spill into later
// slots and completion times stretch.
//
// The timeline is stored in dense pages, allocated when first touched
// and kept until ResetTimelines: 4 MB per NIC per virtual second of
// touched time. Slot s lives at pages[s>>nicPageShift][s&(nicPageSlots-1)]
// (floor division, so any int64 slot has one place); last caches the
// most recently used page, which nearly every reservation hits because
// client clocks run close together.
type nic struct {
	mu      sync.Mutex
	pages   map[int64]*nicPage
	lastIdx int64
	last    *nicPage
	// cumulative demand counters, for utilization reports
	busyPs int64
	waitPs int64 // queueing delay: reservations pushed past their ready time
	verbs  uint64
	bytes  uint64
	rts    uint64 // completed batches whose completion this NIC gated
	faults uint64 // injected faults charged to batches targeting this NIC
}

// chargeFault counts one injected fault against this NIC.
func (n *nic) chargeFault() {
	n.mu.Lock()
	n.faults++
	n.mu.Unlock()
}

// chargeRT attributes one completed doorbell batch to this NIC. Each
// batch is charged to exactly one NIC — the one whose reservation
// finish time gated the batch's completion — so summing rts across
// nodes always equals the clients' RoundTrips total, giving per-MN
// round-trip accounting that reconciles exactly.
func (n *nic) chargeRT() {
	n.mu.Lock()
	n.rts++
	n.mu.Unlock()
}

// page returns the timeline page with index p, allocating it on first
// touch. Caller holds n.mu.
func (n *nic) page(p int64) *nicPage {
	if n.last != nil && n.lastIdx == p {
		return n.last
	}
	pg := n.pages[p]
	if pg == nil {
		if n.pages == nil {
			n.pages = make(map[int64]*nicPage)
		}
		pg = new(nicPage)
		n.pages[p] = pg
	}
	n.last, n.lastIdx = pg, p
	return pg
}

// reserve books cost picoseconds of NIC time no earlier than notBefore and
// returns the start time of the reservation.
func (n *nic) reserve(notBefore, cost int64, verbs int, bytes uint64) int64 {
	n.mu.Lock()
	slot := notBefore / nicSlotPs
	start := int64(-1)
	rem := cost
	for rem > 0 {
		pg := n.page(slot >> nicPageShift)
		for i := slot & (nicPageSlots - 1); rem > 0 && i < nicPageSlots; i++ {
			avail := nicSlotPs - int64(pg[i])
			if avail > 0 {
				if start < 0 {
					start = slot * nicSlotPs
					if notBefore > start {
						start = notBefore
					}
				}
				take := avail
				if rem < take {
					take = rem
				}
				pg[i] += int32(take)
				rem -= take
			}
			slot++
		}
	}
	if start < 0 {
		start = notBefore
	}
	if start > notBefore {
		// The NIC was saturated when this batch arrived: the gap is pure
		// queueing delay, the per-MN hotspot signal load balancing watches.
		n.waitPs += start - notBefore
	}
	n.busyPs += cost
	n.verbs += uint64(verbs)
	n.bytes += bytes
	n.mu.Unlock()
	return start
}

type node struct {
	region *mem.Region
	nic    nic
}

// Fabric is the simulated cluster interconnect plus the set of attached
// memory nodes. Construct it once, attach memory nodes, then create one
// Client per worker.
type Fabric struct {
	cfg Config
	mu  sync.Mutex
	// nodes is the attached memory nodes, an immutable snapshot replaced
	// (under mu) by AddNode, so the per-verb lookups take no lock.
	nodes  atomic.Pointer[[]*node]
	plan   *FaultPlan
	nextID int

	// health is the shared per-MN breaker table; always allocated, gating
	// off by default. killed flags permanently lost nodes (KillNode) — the
	// injected ground truth, distinct from the observed breaker state.
	health *Health
	killed [mem.MaxNodes]uint32

	// Trace, if set before any client runs, is invoked after every verb
	// executes (under no locks). Test-only: used to reconstruct event
	// orders when debugging protocol races.
	Trace func(client *Client, op *Op)
}

// New creates a fabric with the given cost model.
func New(cfg Config) *Fabric { return &Fabric{cfg: cfg, health: NewHealth()} }

// Health returns the fabric's shared per-MN health tracker.
func (f *Fabric) Health() *Health { return f.health }

// KillNode permanently kills a memory node: unlike a DownWindow, the node
// never comes back. Every subsequent verb targeting it fails with
// ErrNodeKilled; the node's data is treated as lost (reads against its
// region are no longer served). The health tracker learns of the death on
// first contact (one charged round trip), after which gated clients reject
// locally at zero cost.
func (f *Fabric) KillNode(id mem.NodeID) {
	atomic.StoreUint32(&f.killed[id], 1)
}

// NodeKilled reports whether the node has been permanently killed.
func (f *Fabric) NodeKilled(id mem.NodeID) bool {
	return atomic.LoadUint32(&f.killed[id]) != 0
}

// Config returns the fabric's cost model.
func (f *Fabric) Config() Config { return f.cfg }

// SetFaultPlan installs a fault schedule. Call it before creating the
// clients that should observe it: each client derives its deterministic
// fault stream from the plan's seed at creation time. A nil plan (the
// default) injects nothing and adds no per-verb overhead.
func (f *Fabric) SetFaultPlan(p *FaultPlan) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.plan = p
}

// FaultPlan returns the installed fault schedule, or nil.
func (f *Fabric) FaultPlan() *FaultPlan {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.plan
}

// AddNode attaches a memory node with a region of the given size and
// returns its ID. The region's allocator header is initialized.
func (f *Fabric) AddNode(size uint64) mem.NodeID {
	f.mu.Lock()
	defer f.mu.Unlock()
	old := f.snapshot()
	if len(old) >= mem.MaxNodes {
		panic("fabric: too many memory nodes")
	}
	id := mem.NodeID(len(old))
	r := mem.NewRegion(id, size)
	mem.InitRegionHeader(r)
	nodes := append(old[:len(old):len(old)], &node{region: r})
	f.nodes.Store(&nodes)
	return id
}

// snapshot returns the attached nodes. The slice is never modified.
func (f *Fabric) snapshot() []*node {
	if p := f.nodes.Load(); p != nil {
		return *p
	}
	return nil
}

// NumNodes returns the number of attached memory nodes.
func (f *Fabric) NumNodes() int { return len(f.snapshot()) }

// Region exposes a node's region for bootstrap-time direct access
// (mem.DirectOps) and white-box tests. Index code must not use it.
func (f *Fabric) Region(id mem.NodeID) *mem.Region {
	return f.snapshot()[id].region
}

// Regions returns a DirectOps view over all attached regions for
// bootstrap-time allocation.
func (f *Fabric) Regions() mem.DirectOps {
	nodes := f.snapshot()
	m := make(map[mem.NodeID]*mem.Region, len(nodes))
	for i, n := range nodes {
		m[mem.NodeID(i)] = n.region
	}
	return mem.DirectOps{Regions: m}
}

func (f *Fabric) node(id mem.NodeID) (*node, error) {
	nodes := f.snapshot()
	if int(id) >= len(nodes) {
		return nil, fmt.Errorf("fabric: unknown memory node %d", id)
	}
	return nodes[id], nil
}

// peek reads the word at addr directly, outside any client's verbs: no
// clock, fault or accounting. Waiters use it only to wake from a wall-
// clock sleep early (Backoff.WatchAt).
func (f *Fabric) peek(addr mem.Addr) (uint64, bool) {
	n, err := f.node(addr.Node())
	if err != nil {
		return 0, false
	}
	return n.region.ReadUint64(addr.Offset()), true
}

// RegionSize returns the size of a node's region, so clients can clamp
// speculative over-reads (e.g., of variable-size leaves) at the region
// boundary, as a real RDMA client would clamp at its registered MR length.
func (f *Fabric) RegionSize(id mem.NodeID) uint64 {
	nodes := f.snapshot()
	if int(id) >= len(nodes) {
		return 0
	}
	return nodes[id].region.Size()
}

// ResetTimelines zeroes every NIC's queue timeline so a new measurement
// phase starts from an idle network, the way a real experiment separates
// its load and run phases. Cumulative NIC counters are preserved. Callers
// must ensure no client is mid-operation.
func (f *Fabric) ResetTimelines() {
	for _, n := range f.snapshot() {
		n.nic.mu.Lock()
		n.nic.pages, n.nic.last = nil, nil
		n.nic.mu.Unlock()
	}
}

// NICStats is a snapshot of one memory node's NIC counters.
type NICStats struct {
	Node   mem.NodeID
	BusyPs int64
	// WaitPs is cumulative queueing delay: how long arriving batches had
	// to wait for a saturated NIC. A node whose WaitPs grows much faster
	// than its peers' is a placement hotspot — the signal the elastic
	// rebalancing experiment tracks before and after a membership change.
	WaitPs int64
	Verbs  uint64
	Bytes  uint64
	// RoundTrips counts completed doorbell batches attributed to this
	// node: each batch is charged to the single NIC whose reservation
	// gated its completion (ties break to the lowest node ID), so the
	// sum over all nodes equals the clients' RoundTrips total exactly.
	RoundTrips uint64
	Faults     uint64 // injected faults on batches targeting this NIC
}

// NICStats returns the NIC counters of every node.
func (f *Fabric) NICStats() []NICStats {
	nodes := f.snapshot()
	out := make([]NICStats, len(nodes))
	for i, n := range nodes {
		n.nic.mu.Lock()
		out[i] = NICStats{Node: mem.NodeID(i), BusyPs: n.nic.busyPs, WaitPs: n.nic.waitPs, Verbs: n.nic.verbs, Bytes: n.nic.bytes, RoundTrips: n.nic.rts, Faults: n.nic.faults}
		n.nic.mu.Unlock()
	}
	return out
}

func opBytes(op *Op) uint64 {
	switch op.Kind {
	case Read, Write:
		return uint64(len(op.Data))
	default:
		return 8
	}
}
