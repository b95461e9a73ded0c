// Package core implements Sphinx, the paper's contribution: a hybrid range
// index for variable-length keys on disaggregated memory. It combines
//
//   - the ART node engine (internal/rart) for the tree itself,
//   - the Inner Node Hash Table (internal/racehash, paper §III-A): one
//     RACE-style table per memory node mapping inner-node full prefixes to
//     8-byte entries, letting a client reach the deepest relevant inner
//     node with a single hash-entry read instead of a root-to-node walk,
//   - the Succinct Filter Cache (internal/cuckoo, paper §III-B): a per-CN
//     cuckoo filter tracking which prefixes exist, so the client usually
//     knows the deepest prefix locally and reads exactly one hash entry.
//
// A warm-path Search therefore costs three network round trips: hash
// entry, inner node, leaf (paper §III-B), independent of key length and
// tree depth.
package core

import (
	"sync"
	"sync/atomic"

	"sphinx/internal/consistenthash"
	"sphinx/internal/cuckoo"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/obs"
	"sphinx/internal/racehash"
	"sphinx/internal/rart"
	"sphinx/internal/wire"
)

// sfcSeed derives the filter-cache hash from a prefix; distinct from every
// other hash use in the system.
const sfcSeed = 8

// PrefixFilterHash returns the succinct-filter-cache hash of a prefix.
func PrefixFilterHash(prefix []byte) uint64 { return wire.Hash64Seed(prefix, sfcSeed) }

// Shared is the cluster-wide descriptor of one Sphinx index. Everything
// in it is immutable except Members, which republishes the placement
// (ring + tables) when memory nodes are added or drained.
type Shared struct {
	Root   mem.Addr
	Ring   *consistenthash.Ring
	Tables map[mem.NodeID]racehash.Table
	// FT, when non-nil, enables the MN fault-tolerance layer (replicated
	// anchors, health-gated failover, online repair — see replica.go).
	// Built by BootstrapReplicated; nil keeps the original single-copy
	// behaviour byte-for-byte.
	FT *FaultTolerance
	// Members publishes epoch-versioned placement snapshots (see
	// membership.go); elastic scale-out/in swaps them atomically. When
	// nil (hand-built Shared values), clients fall back to the static
	// Ring/Tables fields above — epoch 0 forever.
	Members *Membership
	// Hot, when non-nil, enables the hot-key read-replication layer
	// (hotness-driven R-way replica records with contention-aware replica
	// choice — see hotreplica.go). Built by BootstrapHot; nil keeps
	// single-owner placement byte-for-byte.
	Hot *HotReplicas
	// versions is the cluster-wide LWW version counter of both record
	// sets (see nextVersion).
	versions *atomic.Uint64
}

// Bootstrap creates an empty Sphinx index: the root node plus one inner
// node hash table per memory node, sized for the expected number of keys
// (inner-node count is bounded by key count; tables resize beyond that).
// Runs at cluster-setup time with direct region access.
func Bootstrap(f *fabric.Fabric, ring *consistenthash.Ring, expectedKeys int) (Shared, error) {
	alloc := mem.NewAllocator(f.Regions(), 0)
	home := ring.OwnerKey(nil)
	root, err := rart.BootstrapRoot(f.Region(home), alloc, home)
	if err != nil {
		return Shared{}, err
	}
	// Inner nodes are a fraction of the key count (one per shared-prefix
	// branch point); a quarter is generous for both datasets, and the
	// table resizes itself beyond that.
	tables, err := bootstrapTables(f, alloc, ring.Nodes(), expectedKeys/(4*len(ring.Nodes()))+1, "hash")
	if err != nil {
		return Shared{}, err
	}
	sh := Shared{Root: root, Ring: ring, Tables: tables, versions: new(atomic.Uint64)}
	sh.Members = NewMembership(&Placement{Ring: ring, Tables: tables})
	return sh, nil
}

// FilterCacheMode selects the concurrency control of a FilterCache.
type FilterCacheMode int

// FilterCache concurrency modes.
const (
	// FilterModeDefault resolves to the build's default: lock-free,
	// unless the `sfc_mutex` build tag selects the serialized baseline.
	FilterModeDefault FilterCacheMode = iota
	// FilterLockFree shares the lock-free cuckoo filter directly (the
	// filter's own whole-word CAS protocols carry all synchronization).
	FilterLockFree
	// FilterMutex serializes every access behind one mutex — the
	// pre-lock-free design, retained as the CN-scaling ablation baseline
	// (see the `sphinxbench scaling` experiment).
	FilterMutex
)

func (m FilterCacheMode) resolve() FilterCacheMode {
	if m == FilterModeDefault {
		return buildFilterCacheMode
	}
	return m
}

// String names the mode as the scaling experiment's tables do.
func (m FilterCacheMode) String() string {
	switch m.resolve() {
	case FilterMutex:
		return "mutex"
	default:
		return "lockfree"
	}
}

// FilterCache is the per-compute-node Succinct Filter Cache: a cuckoo
// filter shared by all workers of one CN (paper §III-B, "a lightweight
// per-CN cache"). By default it is lock-free — Contains is two atomic
// bucket loads (plus a best-effort CAS marking hotness), so the
// read-dominant warm path scales with the CN's cores instead of
// funnelling every worker through one lock. The mutex mode keeps the old
// serialized behaviour for ablation.
type FilterCache struct {
	mu *sync.Mutex // non-nil only in FilterMutex mode
	f  *cuckoo.Filter
}

func newFilterCache(f *cuckoo.Filter, mode FilterCacheMode) *FilterCache {
	fc := &FilterCache{f: f}
	if mode.resolve() == FilterMutex {
		fc.mu = new(sync.Mutex)
	}
	return fc
}

// NewFilterCache creates a filter cache with capacity for n prefixes.
func NewFilterCache(n int, seed uint64) *FilterCache {
	return NewFilterCacheMode(n, seed, FilterModeDefault)
}

// NewFilterCacheMode creates a capacity-sized filter cache with an
// explicit concurrency mode.
func NewFilterCacheMode(n int, seed uint64, mode FilterCacheMode) *FilterCache {
	return newFilterCache(cuckoo.New(n, seed), mode)
}

// NewFilterCacheBytes creates a filter cache bounded by a CN-side memory
// budget (the quantity the paper's evaluation fixes at 20 MB).
func NewFilterCacheBytes(budget uint64, seed uint64) *FilterCache {
	return NewFilterCacheBytesPolicy(budget, seed, cuckoo.PolicySecondChance)
}

// NewFilterCacheBytesPolicy additionally selects the eviction policy —
// the paper's hotness-driven second chance, or random replacement for the
// ablation comparison.
func NewFilterCacheBytesPolicy(budget uint64, seed uint64, policy cuckoo.Policy) *FilterCache {
	return NewFilterCacheBytesPolicyMode(budget, seed, policy, FilterModeDefault)
}

// NewFilterCacheBytesPolicyMode additionally selects the concurrency
// mode. The filter fills the budget exactly (within one 8-byte bucket
// word): cuckoo bucket counts are not constrained to powers of two, so
// none of the budget is lost to rounding.
func NewFilterCacheBytesPolicyMode(budget uint64, seed uint64, policy cuckoo.Policy, mode FilterCacheMode) *FilterCache {
	if budget < 16 {
		budget = 16
	}
	return newFilterCache(cuckoo.NewBytesPolicy(budget, seed, policy), mode)
}

// Mode reports the cache's resolved concurrency mode.
func (fc *FilterCache) Mode() FilterCacheMode {
	if fc.mu != nil {
		return FilterMutex
	}
	return FilterLockFree
}

// Contains checks a prefix hash, marking it hot on a hit.
func (fc *FilterCache) Contains(h uint64) bool {
	if fc.mu != nil {
		fc.mu.Lock()
		defer fc.mu.Unlock()
	}
	return fc.f.Contains(h)
}

// Insert learns a prefix hash.
func (fc *FilterCache) Insert(h uint64) {
	if fc.mu != nil {
		fc.mu.Lock()
		defer fc.mu.Unlock()
	}
	fc.f.Insert(h)
}

// ContainsWasHot checks a prefix hash like Contains (marking it hot on a
// hit) and additionally reports whether the entry was already hot before
// this probe — the signal the hot-key tracker uses as corroborating
// evidence of skew.
func (fc *FilterCache) ContainsWasHot(h uint64) (present, wasHot bool) {
	if fc.mu != nil {
		fc.mu.Lock()
		defer fc.mu.Unlock()
	}
	return fc.f.ContainsWasHot(h)
}

// HotEntries returns how many live filter entries currently carry the
// hotness bit (exported as the sfc_hot_entries gauge).
func (fc *FilterCache) HotEntries() uint64 {
	if fc.mu != nil {
		fc.mu.Lock()
		defer fc.mu.Unlock()
	}
	return fc.f.HotEntries()
}

// Delete unlearns a prefix hash (after a detected false positive).
func (fc *FilterCache) Delete(h uint64) {
	if fc.mu != nil {
		fc.mu.Lock()
		defer fc.mu.Unlock()
	}
	fc.f.Delete(h)
}

// SizeBytes returns the filter's memory footprint.
func (fc *FilterCache) SizeBytes() uint64 { return fc.f.SizeBytes() }

// FilterStats returns the underlying filter counters.
func (fc *FilterCache) FilterStats() cuckoo.Stats { return fc.f.Stats() }

// Occupancy returns the filter's occupied slots and total slot capacity.
func (fc *FilterCache) Occupancy() (occupied, capacity uint64) {
	return fc.f.Occupancy(), uint64(fc.f.Capacity())
}

// Load returns the filter's occupied-slot fraction.
func (fc *FilterCache) Load() float64 { return fc.f.Load() }

// AnalyticFPBound returns the filter's analytic false-positive bound at
// its current load.
func (fc *FilterCache) AnalyticFPBound() float64 { return fc.f.AnalyticFPBound() }

// Options tunes one Sphinx client.
type Options struct {
	// Filter is the CN's shared Succinct Filter Cache. If nil and
	// FilterEntries > 0, the client builds a private one; if nil and
	// FilterEntries == 0, a default-sized private one is built.
	Filter *FilterCache
	// FilterEntries sizes the private filter when Filter is nil.
	FilterEntries int
	// DisableFilter turns the Succinct Filter Cache off: every operation
	// falls back to the parallel multi-prefix hash read (the Θ(L) mode of
	// §III-B's analysis). Ablation lever.
	DisableFilter bool
	// LeafCache is the CN's shared speculative leaf-address cache. If nil
	// (and not disabled), the client builds a private one sized by
	// LeafCacheEntries (default 1<<16).
	LeafCache *LeafCache
	// LeafCacheEntries sizes the private leaf-address cache when LeafCache
	// is nil.
	LeafCacheEntries int
	// DisableLeafCache turns the speculative 1-RT fast path off: every
	// Search pays the full 3-RT hash path. Ablation lever.
	DisableLeafCache bool
	// DisableDirCache drops the client-side hash-table directory caches:
	// every bucket resolution reads the meta word and directory entry
	// remotely. Ablation lever for the §IV directory cache.
	DisableDirCache bool
	// Engine passes through node-engine tuning.
	Engine rart.Config
	// Seed makes the private filter deterministic.
	Seed uint64
	// Observer, when non-nil, is installed on the fabric client so every
	// doorbell batch is reported with its stage annotation (obs.Metrics
	// implements it). Shared observers must be concurrency-safe.
	Observer fabric.BatchObserver
	// Index, when non-nil, receives index-semantic distributions: SFC
	// hit depths and probe counts per locate, INHT candidate counts per
	// hash-entry lookup. Histograms are atomic, so one IndexMetrics may
	// be shared by all workers of a CN.
	Index *obs.IndexMetrics
	// Hot is the CN's shared hot-key tracker (sketch + replica route
	// caches). If nil and Shared.Hot is active, the client builds a
	// private one sized by HotSetBytes. Share one HotSet across a CN's
	// workers so promotion decisions see the CN's aggregate traffic.
	Hot *HotSet
	// HotSetBytes sizes the private tracker when Hot is nil (0 selects
	// DefaultHotSetBytes).
	HotSetBytes int
}

// Stats counts Sphinx-level events per client.
type Stats struct {
	Searches        uint64
	Inserts         uint64
	Updates         uint64
	Deletes         uint64
	Scans           uint64
	FilterHits      uint64 // locates resolved via the filter cache
	FilterFallbacks uint64 // locates that fell back to the parallel read
	RootStarts      uint64 // locates that started at the root
	FalsePositives  uint64 // filter said yes, index said no (unlearned)
	CollisionRetry  uint64 // leaf-level common-prefix check tripped (§III-B)
	Restarts        uint64 // operation-level retries (coherence protocol)
	ParentRetries   uint64 // ErrNeedParent re-routes (structural, no backoff)
	StaleEntries    uint64 // invalid hash entries cleaned opportunistically
	FPMismatches    uint64 // candidate nodes read but failing the §III-B checks
	Failovers       uint64 // reads served from anchor replicas after node loss
	DegradedPuts    uint64 // writes/deletes served anchor-only (tree path dead)
	PartialReplicas uint64 // acked writes that reached fewer than R replicas
	AnchorConfirms  uint64 // degraded-mode absent answers verified via anchors
	SpecHits        uint64 // searches served by one speculative leaf read
	SpecMisses      uint64 // searches with no leaf-address-cache entry
	SpecRefutes     uint64 // speculative reads refuted in-place (unlearned)
	SpecAborts      uint64 // speculative reads abandoned on unstable leaf or fabric error
	EpochFallbacks  uint64 // reads served from the previous epoch mid-transition
	Cutovers        uint64 // membership transitions this client retired after convergence
	HotHits         uint64 // searches served by one verified hot-replica read
	HotRefutes      uint64 // hot-replica reads refuted in place (route unlearned)
	HotAborts       uint64 // hot-replica reads abandoned on a transient fabric fault
	HotPromotes     uint64 // keys promoted into replicated placement
	HotDemotes      uint64 // cooled keys torn back down to single-owner
	HotRefreshes    uint64 // writes that republished at least one hot record
}

// Add returns s + t, field-wise; used to aggregate workers.
func (s Stats) Add(t Stats) Stats {
	s.Searches += t.Searches
	s.Inserts += t.Inserts
	s.Updates += t.Updates
	s.Deletes += t.Deletes
	s.Scans += t.Scans
	s.FilterHits += t.FilterHits
	s.FilterFallbacks += t.FilterFallbacks
	s.RootStarts += t.RootStarts
	s.FalsePositives += t.FalsePositives
	s.CollisionRetry += t.CollisionRetry
	s.Restarts += t.Restarts
	s.ParentRetries += t.ParentRetries
	s.StaleEntries += t.StaleEntries
	s.FPMismatches += t.FPMismatches
	s.Failovers += t.Failovers
	s.DegradedPuts += t.DegradedPuts
	s.PartialReplicas += t.PartialReplicas
	s.AnchorConfirms += t.AnchorConfirms
	s.SpecHits += t.SpecHits
	s.SpecMisses += t.SpecMisses
	s.SpecRefutes += t.SpecRefutes
	s.SpecAborts += t.SpecAborts
	s.EpochFallbacks += t.EpochFallbacks
	s.Cutovers += t.Cutovers
	s.HotHits += t.HotHits
	s.HotRefutes += t.HotRefutes
	s.HotAborts += t.HotAborts
	s.HotPromotes += t.HotPromotes
	s.HotDemotes += t.HotDemotes
	s.HotRefreshes += t.HotRefreshes
	return s
}

// viewSet is a copy-on-write map of per-node hash-table views. The owning
// worker goroutine alone replaces it (growing it lazily when an elastic
// membership change introduces a node); metrics scrapes on other
// goroutines only Load and iterate a snapshot.
type viewSet struct {
	m map[mem.NodeID]*racehash.View
}

// Client is one worker's handle on a Sphinx index. Not safe for concurrent
// use; workers of one CN share only the FilterCache.
type Client struct {
	shared  Shared
	members *Membership
	eng     *rart.Engine
	views   atomic.Pointer[viewSet]
	filter  *FilterCache
	lac     *LeafCache
	opts    Options
	// stats fields are incremented atomically and loaded atomically by
	// Stats(), so a live metrics scrape can snapshot a client while its
	// worker goroutine runs operations.
	stats Stats
	index *obs.IndexMetrics // nil when index distributions are off
	rec   *obs.Recorder     // armed per-op by Session.Trace; nil when idle

	// The client's handles on the anchor store (nil without Shared.FT)
	// and the hot record store (nil without Shared.Hot).
	anchors, hot *recordStore

	// Hot-replication state (inert without Shared.Hot): the CN's hot-key
	// tracker and the SFC hotness observation of the last locate.
	hotset    *HotSet
	sfcWasHot bool

	// Warm-path scratch, reused across operations (clients are
	// single-goroutine). Valid only within one locate step.
	candScratch []racehash.Candidate
	opScratch   []fabric.Op
	bufScratch  [][]byte
	nodeScratch []*rart.Node
	// prefixScratch holds the filter hashes of the key's prefixes during
	// one locate.
	prefixScratch []uint64
}

// NewClient mounts a Sphinx index over one fabric client.
func NewClient(shared Shared, c *fabric.Client, opts Options) *Client {
	members := shared.Members
	if members == nil {
		// Hand-built Shared (tests, static deployments): synthesize the
		// epoch-0 placement from the legacy fields.
		members = NewMembership(&Placement{Ring: shared.Ring, Tables: shared.Tables})
	}
	if ft := shared.FT; ft != nil {
		// Steer new tree allocations (inner nodes, leaves) to the first
		// healthy successor on the CURRENT ring, so post-loss growth avoids
		// dead nodes and post-rebalance growth lands on the new placement.
		opts.Engine.Place = func(key []byte) mem.NodeID {
			return ft.place(members.Current().Ring, key)
		}
	} else {
		opts.Engine.Place = func(key []byte) mem.NodeID {
			return members.Current().Ring.OwnerKey(key)
		}
	}
	alloc := mem.NewAllocator(c, 0)
	cl := &Client{
		shared:  shared,
		members: members,
		eng:     rart.NewEngine(c, alloc, shared.Ring, opts.Engine),
		filter:  opts.Filter,
		lac:     opts.LeafCache,
		opts:    opts,
		index:   opts.Index,
	}
	cur := members.Current()
	views := &viewSet{m: make(map[mem.NodeID]*racehash.View, len(cur.Tables))}
	for node, t := range cur.Tables {
		views.m[node] = cl.newDirView(t, c)
	}
	cl.views.Store(views)
	if ft := shared.FT; ft != nil {
		cl.anchors = newRecordStore(ft.RecordSet, cl)
	}
	if hot := shared.Hot; hot != nil {
		cl.hot = newRecordStore(hot.RecordSet, cl)
		cl.hotset = opts.Hot
		if cl.hotset == nil {
			cl.hotset = NewHotSet(uint64(opts.HotSetBytes), opts.Seed, hot.R)
		}
	}
	if cl.filter == nil && !opts.DisableFilter {
		n := opts.FilterEntries
		if n == 0 {
			n = 1 << 16
		}
		cl.filter = NewFilterCache(n, opts.Seed|1)
	}
	if cl.lac == nil && !opts.DisableLeafCache {
		n := opts.LeafCacheEntries
		if n == 0 {
			n = 1 << 16
		}
		cl.lac = NewLeafCache(n, opts.Seed)
	}
	if opts.Observer != nil {
		c.SetObserver(opts.Observer)
	}
	return cl
}

// SetRecorder arms (or, with nil, disarms) a per-operation trace
// recorder: locate and the op entry points annotate local events —
// filter probes, collisions, restarts — on it. Batch events reach the
// recorder through the fabric observer; Session.Trace wires both ends.
func (c *Client) SetRecorder(r *obs.Recorder) { c.rec = r }

// Engine exposes the node engine (fabric client, allocator) for stats.
func (c *Client) Engine() *rart.Engine { return c.eng }

// Stats returns a snapshot of the client's counters, loaded atomically so
// it is safe to call concurrently with the worker driving the client.
func (c *Client) Stats() Stats {
	var s Stats
	s.Searches = atomic.LoadUint64(&c.stats.Searches)
	s.Inserts = atomic.LoadUint64(&c.stats.Inserts)
	s.Updates = atomic.LoadUint64(&c.stats.Updates)
	s.Deletes = atomic.LoadUint64(&c.stats.Deletes)
	s.Scans = atomic.LoadUint64(&c.stats.Scans)
	s.FilterHits = atomic.LoadUint64(&c.stats.FilterHits)
	s.FilterFallbacks = atomic.LoadUint64(&c.stats.FilterFallbacks)
	s.RootStarts = atomic.LoadUint64(&c.stats.RootStarts)
	s.FalsePositives = atomic.LoadUint64(&c.stats.FalsePositives)
	s.CollisionRetry = atomic.LoadUint64(&c.stats.CollisionRetry)
	s.Restarts = atomic.LoadUint64(&c.stats.Restarts)
	s.ParentRetries = atomic.LoadUint64(&c.stats.ParentRetries)
	s.StaleEntries = atomic.LoadUint64(&c.stats.StaleEntries)
	s.FPMismatches = atomic.LoadUint64(&c.stats.FPMismatches)
	s.Failovers = atomic.LoadUint64(&c.stats.Failovers)
	s.DegradedPuts = atomic.LoadUint64(&c.stats.DegradedPuts)
	s.PartialReplicas = atomic.LoadUint64(&c.stats.PartialReplicas)
	s.AnchorConfirms = atomic.LoadUint64(&c.stats.AnchorConfirms)
	s.SpecHits = atomic.LoadUint64(&c.stats.SpecHits)
	s.SpecMisses = atomic.LoadUint64(&c.stats.SpecMisses)
	s.SpecRefutes = atomic.LoadUint64(&c.stats.SpecRefutes)
	s.SpecAborts = atomic.LoadUint64(&c.stats.SpecAborts)
	s.EpochFallbacks = atomic.LoadUint64(&c.stats.EpochFallbacks)
	s.Cutovers = atomic.LoadUint64(&c.stats.Cutovers)
	s.HotHits = atomic.LoadUint64(&c.stats.HotHits)
	s.HotRefutes = atomic.LoadUint64(&c.stats.HotRefutes)
	s.HotAborts = atomic.LoadUint64(&c.stats.HotAborts)
	s.HotPromotes = atomic.LoadUint64(&c.stats.HotPromotes)
	s.HotDemotes = atomic.LoadUint64(&c.stats.HotDemotes)
	s.HotRefreshes = atomic.LoadUint64(&c.stats.HotRefreshes)
	return s
}

// HashStats aggregates the inner-node-hash-table view counters across all
// memory nodes this client talks to. Safe to call from scrape goroutines:
// the view set is copy-on-write.
func (c *Client) HashStats() racehash.Stats {
	var total racehash.Stats
	for _, v := range c.views.Load().m {
		total = total.Add(v.Stats())
	}
	return total
}

// Filter returns the client's filter cache (nil when disabled).
func (c *Client) Filter() *FilterCache { return c.filter }

// LeafCache returns the client's speculative leaf-address cache (nil when
// disabled).
func (c *Client) LeafCache() *LeafCache { return c.lac }

// HotSet returns the client's hot-key tracker (nil when the hot layer is
// off for this client).
func (c *Client) HotSet() *HotSet { return c.hotset }

// CacheBytes reports the client's total CN-side cache consumption: the
// succinct filter cache plus the hash-table directory caches (paper §IV:
// "typically 2-5% of the succinct filter cache size").
func (c *Client) CacheBytes() uint64 {
	var total uint64
	if c.filter != nil {
		total += c.filter.SizeBytes()
	}
	if c.lac != nil {
		total += c.lac.SizeBytes()
	}
	for _, v := range c.views.Load().m {
		total += v.DirCacheBytes()
	}
	return total
}

// newDirView builds an INHT view honoring the directory-cache ablation.
func (c *Client) newDirView(t racehash.Table, fc *fabric.Client) *racehash.View {
	if c.opts.DisableDirCache {
		return racehash.NewViewNoCache(t, fc)
	}
	return racehash.NewView(t, fc)
}

// ring returns the current epoch's consistent-hash ring.
func (c *Client) ring() *consistenthash.Ring { return c.members.Current().Ring }

// placeIn resolves the memory node owning key under placement p: the ring
// owner, or (with fault tolerance) the first healthy successor.
func (c *Client) placeIn(p *Placement, key []byte) mem.NodeID {
	if ft := c.shared.FT; ft != nil {
		return ft.place(p.Ring, key)
	}
	return p.Ring.OwnerKey(key)
}

// viewOf returns the client's view on node's inner-node hash table,
// creating it lazily for nodes that joined after the client did. The
// table is resolved from the current placement, falling back to the
// in-transition previous epoch. Returns nil for an unknown node.
func (c *Client) viewOf(node mem.NodeID) *racehash.View {
	if v, ok := c.views.Load().m[node]; ok {
		return v
	}
	p := c.members.Current()
	t, ok := p.Tables[node]
	if !ok && p.Prev != nil {
		t, ok = p.Prev.Tables[node]
	}
	if !ok {
		return nil
	}
	v := c.newDirView(t, c.eng.C)
	c.storeView(&c.views, node, v)
	return v
}

// storeView publishes a grown copy of a view set. Only the owning worker
// goroutine mutates view sets, so a plain load-copy-store suffices; the
// atomic pointer is for concurrent metrics scrapes.
func (c *Client) storeView(set *atomic.Pointer[viewSet], node mem.NodeID, v *racehash.View) {
	old := set.Load()
	next := &viewSet{m: make(map[mem.NodeID]*racehash.View, len(old.m)+1)}
	for n, ov := range old.m {
		next.m[n] = ov
	}
	next.m[node] = v
	set.Store(next)
}

// viewFor returns the hash-table view of the memory node owning a prefix
// under the current placement. With fault tolerance active, ownership
// skips dead nodes: new entries and lookups for prefixes whose ring owner
// died consistently use the first healthy successor's table.
func (c *Client) viewFor(prefix []byte) *racehash.View {
	return c.viewOf(c.placeIn(c.members.Current(), prefix))
}

// prevViewFor returns the previous epoch's view for a prefix during a
// membership transition, or nil when there is no transition or the owner
// did not change — reads then need no second probe.
func (c *Client) prevViewFor(p *Placement, prefix []byte) *racehash.View {
	if p.Prev == nil {
		return nil
	}
	prevOwner := c.placeIn(p.Prev, prefix)
	if prevOwner == c.placeIn(p, prefix) {
		return nil
	}
	return c.viewOf(prevOwner)
}
