// Package bench is the experiment harness that regenerates the paper's
// evaluation (§V): it builds simulated DM clusters, loads datasets, drives
// YCSB workloads through each of the four compared systems and reports
// throughput, latency and memory in the same shape as the paper's figures.
package bench

import (
	"fmt"
	"math/rand"
	"sync"

	"sphinx/internal/cuckoo"

	"sphinx/internal/artdm"
	"sphinx/internal/consistenthash"
	"sphinx/internal/core"
	"sphinx/internal/dataset"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/obs"
	"sphinx/internal/racehash"
	"sphinx/internal/rart"
	"sphinx/internal/smart"
	"sphinx/internal/ycsb"
)

// System identifies one compared index (paper §V-A Comparisons), plus the
// ablation variants this repository adds.
type System int

// The compared systems.
const (
	Sphinx System = iota
	SMART
	SMARTC // SMART with the 10× cache (paper's SMART+C)
	ART    // the original ART ported to DM

	// Ablations (not in the paper's figures; see DESIGN.md).
	SphinxNoSFC      // inner-node hash table only, filter cache disabled
	SphinxNoBatch    // doorbell batching disabled
	SphinxTinySFC    // capacity-starved filter cache (eviction pressure)
	SphinxTinyRand   // starved filter with random eviction (vs second chance)
	SphinxNoDirCache // hash-table directory caches disabled
	SphinxNoLAC      // speculative leaf-address cache disabled (3-RT warm reads)
	SphinxHot        // hotness-driven read replication enabled (skew experiment)
)

// String names the system as the paper's figures do.
func (s System) String() string {
	switch s {
	case Sphinx:
		return "Sphinx"
	case SMART:
		return "SMART"
	case SMARTC:
		return "SMART+C"
	case ART:
		return "ART"
	case SphinxNoSFC:
		return "Sphinx-noSFC"
	case SphinxNoBatch:
		return "Sphinx-noDB"
	case SphinxTinySFC:
		return "Sphinx-tinySFC"
	case SphinxTinyRand:
		return "Sphinx-tinyRnd"
	case SphinxNoDirCache:
		return "Sphinx-noDirC"
	case SphinxNoLAC:
		return "Sphinx-noLAC"
	case SphinxHot:
		return "Sphinx-hot"
	default:
		return fmt.Sprintf("system(%d)", int(s))
	}
}

// PaperSystems lists the four systems of Fig. 4 and Fig. 5.
var PaperSystems = []System{Sphinx, SMART, SMARTC, ART}

// ThetaUniform is the Config.Theta sentinel selecting a truly uniform
// request distribution (zipfian theta 0). Config.Theta == 0 means
// "unset, use the paper's default 0.99", so uniform must be asked for
// explicitly.
const ThetaUniform = -1.0

// Config describes one cluster/experiment setup. Zero values select the
// defaults matching the paper's testbed shape at reduced scale.
type Config struct {
	Dataset      dataset.Kind
	Keys         int // loaded key count (paper: 60 M; default here: 100 k)
	ValueSize    int // paper: 64
	MNs, CNs     int // paper: 3 and 3 (colocated)
	Workers      int // total workers, split across CNs (paper: 6–192)
	OpsPerWorker int
	Net          fabric.Config
	Seed         int64
	// Theta is the zipfian skew of the request distribution (default the
	// paper's 0.99; lower it toward 0 for near-uniform requests). The
	// zero value means "default skew" — a truly uniform run must be
	// requested with the explicit ThetaUniform sentinel (or any negative
	// value), because 0 is indistinguishable from unset.
	Theta float64

	// Depth is the per-worker issue depth: how many operations each
	// worker keeps in flight during the run phase, with same-stage verbs
	// of concurrent ops coalesced into shared doorbell batches. 1 (the
	// default) is the sequential client; >1 applies to the Sphinx-family
	// systems only — SMART and ART keep their sequential clients, as in
	// the paper. The load phase is always sequential.
	Depth int

	// Cache budgets in bytes. Zero selects the paper's ratios: Sphinx and
	// SMART get 20 MB per 480 MB of u64 key bytes (≈4.17%), SMART+C 10×
	// that — both computed against the u64-equivalent key volume so that
	// email runs see the same absolute budget, as in §V-A.
	SphinxCache uint64
	SmartCache  uint64
	SmartCCache uint64

	// LeafCacheBytes is the Sphinx-family per-CN budget for the speculative
	// leaf-address cache (default 512 KiB — 64K packed 8-byte entries).
	// SphinxNoLAC ignores it.
	LeafCacheBytes uint64

	// SFCMode selects the Succinct Filter Cache's concurrency control for
	// the Sphinx-family systems: the default lock-free filter, or the
	// mutex-serialized baseline the scaling experiment ablates against.
	SFCMode core.FilterCacheMode

	// HotReplicas enables the hotness-driven read-replication layer for
	// the Sphinx-family systems: each CN tracks its hottest read keys and
	// promotes them into this many replicated, immutable, versioned
	// records spread over ring-successor MNs; hot reads then pick among
	// replicas with power-of-two-choices on NIC load. 0 (the default)
	// disables the layer; the SphinxHot system forces
	// core.DefaultHotReplication when unset.
	HotReplicas int

	// HotSetBytes is the per-CN budget for the hot-key tracker (frequency
	// sketch + replica route caches). 0 selects core.DefaultHotSetBytes.
	HotSetBytes uint64

	// Replication enables the memory-node fault-tolerance layer for the
	// Sphinx-family systems: every published entry is replicated to this
	// many distinct MNs, reads fail over behind the per-node health
	// breaker, and repair sweeps re-replicate after a loss. 0 (the
	// default) disables the layer; the failover experiment forces >= 2.
	Replication int

	// Faults, when non-nil, is installed on the fabric at cluster
	// creation: every phase (load and run) then exercises the retry,
	// backoff and recovery paths, and each result's fault/recovery
	// counters (Result.FaultLine) become nonzero. See
	// docs/failure-model.md.
	Faults *fabric.FaultPlan

	// Metrics enables per-phase observability: every worker client gets a
	// shared obs.Metrics batch observer and each operation's latency and
	// round trips are recorded, producing a Result.Metrics section whose
	// per-stage round-trip totals reconcile against the fabric counters.
	// Sphinx-family results additionally carry SFC and INHT efficacy
	// sections (hit-depth distribution, measured FP rate vs the analytic
	// bound, hash-table load factor).
	Metrics bool

	// Tail enables tail-latency trace sampling: sequential (depth-1)
	// workers record each op's round-trip timeline, and ops above the
	// moving per-kind p99 keep their trace, pre-explained. Counts land in
	// the Result.Metrics tail fields; the traces themselves are servable
	// via Live.
	Tail bool

	// Live, when non-nil, accumulates every phase's metrics, index
	// distributions and tail samples into a harness-lifetime surface
	// servable over HTTP while experiments run (sphinxbench -serve). It
	// implies Tail.
	Live *Live
}

func (c Config) withDefaults() Config {
	if c.Keys == 0 {
		c.Keys = 100_000
	}
	if c.ValueSize == 0 {
		c.ValueSize = 64
	}
	if c.MNs == 0 {
		c.MNs = 3
	}
	if c.CNs == 0 {
		c.CNs = 3
	}
	if c.Workers == 0 {
		c.Workers = 24
	}
	if c.OpsPerWorker == 0 {
		c.OpsPerWorker = 2000
	}
	if c.Net == (fabric.Config{}) {
		c.Net = fabric.DefaultConfig()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Theta == 0 {
		c.Theta = ycsb.DefaultTheta
	}
	if c.Theta < 0 {
		// ThetaUniform (or any negative sentinel): a genuinely uniform
		// request distribution. Previously `-theta 0` silently became the
		// default 0.99 skew through the zero-value branch above.
		c.Theta = 0
	}
	if c.Depth == 0 {
		c.Depth = 1
	}
	u64Bytes := uint64(c.Keys) * 8
	if c.SphinxCache == 0 {
		c.SphinxCache = u64Bytes * 417 / 10000
	}
	if c.SmartCache == 0 {
		c.SmartCache = u64Bytes * 417 / 10000
	}
	if c.SmartCCache == 0 {
		c.SmartCCache = u64Bytes * 4170 / 10000
	}
	if c.LeafCacheBytes == 0 {
		c.LeafCacheBytes = 512 << 10
	}
	return c
}

// Index is the operation surface shared by all compared systems.
type Index interface {
	Search(key []byte) ([]byte, bool, error)
	Insert(key, value []byte) (bool, error)
	Update(key, value []byte) (bool, error)
	Delete(key []byte) (bool, error)
	ScanN(lo []byte, n int) ([]rart.KV, error)
}

// Cluster is one bootstrapped system instance plus its dataset and
// workload state.
type Cluster struct {
	Sys  System
	Cfg  Config
	F    *fabric.Fabric
	Ring *consistenthash.Ring

	keys  [][]byte
	space *ycsb.KeySpace
	zipf  *ycsb.Zipfian
	value []byte

	sphinxShared core.Shared
	smartShared  smart.Shared
	artShared    artdm.Shared
	filters      []*core.FilterCache // per CN
	lacs         []*core.LeafCache   // per CN (nil for SphinxNoLAC)
	hotsets      []*core.HotSet      // per CN (nil unless hot replication is on)
	caches       []*smart.NodeCache  // per CN

	// runMetrics is the current measurement phase's metric set, created
	// fresh at the top of Load and Run when Cfg.Metrics is set and shared
	// by every worker client of that phase (obs.Metrics is atomic).
	runMetrics *obs.Metrics
	// live is Cfg.Live: the harness-lifetime surface every phase also
	// reports into (teed with runMetrics on each worker client).
	live *Live
	// index receives SFC/INHT distribution observations from every
	// Sphinx worker; per-phase sections diff against the *Base snapshots
	// taken at phase start (the set itself accumulates, so a live scrape
	// mid-phase sees it moving).
	index        *obs.IndexMetrics
	hitDepthBase obs.HistSnapshot
	probesBase   obs.HistSnapshot
	candBase     obs.HistSnapshot
	filterBase   cuckoo.Stats
	lacBase      core.LACStats
	// tail samples slow-op timelines from sequential workers.
	tail                     *obs.TailSampler
	tailBaseOff, tailBaseCap uint64

	// doneMu guards the lifetime core/hash counter totals folded in at
	// each phase end, read by live-registry scrape goroutines.
	doneMu   sync.Mutex
	doneCore core.Stats
	doneHash racehash.Stats
}

// NewCluster builds the fabric, bootstraps the system and generates the
// dataset (not yet loaded into the index).
func NewCluster(sys System, cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	f := fabric.New(cfg.Net)
	if cfg.Faults != nil {
		f.SetFaultPlan(cfg.Faults)
	}
	nodes := make([]mem.NodeID, cfg.MNs)
	perMN := uint64(64<<20) + uint64(cfg.Keys)*6*1024/uint64(cfg.MNs)
	for i := range nodes {
		nodes[i] = f.AddNode(perMN)
	}
	ring, err := consistenthash.NewChecked(nodes, 0)
	if err != nil {
		return nil, fmt.Errorf("bench: building placement ring: %w", err)
	}

	cl := &Cluster{Sys: sys, Cfg: cfg, F: f, Ring: ring, live: cfg.Live}
	switch {
	case cfg.Live != nil:
		cl.index = cfg.Live.Index
		cl.tail = cfg.Live.Tail
	default:
		if cfg.Metrics {
			cl.index = obs.NewIndexMetrics()
		}
		if cfg.Tail {
			cl.tail = obs.NewTailSampler(0, 0)
		}
	}
	cl.keys = dataset.Generate(cfg.Dataset, cfg.Keys, cfg.Seed)
	cl.space = ycsb.NewKeySpace(cl.keys, dataset.Novel(cfg.Dataset, cfg.Seed+7))
	cl.zipf = ycsb.NewZipfian(uint64(cfg.Keys), cfg.Theta)
	cl.value = make([]byte, cfg.ValueSize)
	rand.New(rand.NewSource(cfg.Seed)).Read(cl.value)

	switch sys {
	case Sphinx, SphinxNoSFC, SphinxNoBatch, SphinxTinySFC, SphinxTinyRand, SphinxNoDirCache, SphinxNoLAC, SphinxHot:
		if cfg.Replication > 0 {
			cl.sphinxShared, err = core.BootstrapReplicated(f, ring, cfg.Keys, cfg.Replication)
		} else {
			cl.sphinxShared, err = core.Bootstrap(f, ring, cfg.Keys)
		}
		hotR := cfg.HotReplicas
		if sys == SphinxHot && hotR == 0 {
			hotR = core.DefaultHotReplication
		}
		if err == nil && hotR > 0 {
			if err = core.BootstrapHot(f, &cl.sphinxShared, 4096, hotR); err == nil {
				cl.hotsets = make([]*core.HotSet, cfg.CNs)
				for i := range cl.hotsets {
					cl.hotsets[i] = core.NewHotSet(cfg.HotSetBytes, uint64(cfg.Seed)+uint64(i)*7919+3, cl.sphinxShared.Hot.R)
				}
			}
		}
		cl.filters = make([]*core.FilterCache, cfg.CNs)
		for i := range cl.filters {
			budget := cfg.SphinxCache
			policy := cuckoo.PolicySecondChance
			switch sys {
			case SphinxTinySFC:
				budget /= 64
			case SphinxTinyRand:
				budget /= 64
				policy = cuckoo.PolicyRandom
			}
			cl.filters[i] = core.NewFilterCacheBytesPolicyMode(budget, uint64(cfg.Seed)+uint64(i)|1, policy, cfg.SFCMode)
		}
		if sys != SphinxNoLAC {
			cl.lacs = make([]*core.LeafCache, cfg.CNs)
			for i := range cl.lacs {
				cl.lacs[i] = core.NewLeafCacheBytes(cfg.LeafCacheBytes, uint64(cfg.Seed)+uint64(i))
			}
		}
	case SMART, SMARTC:
		cl.smartShared, err = smart.Bootstrap(f, ring)
		budget := cfg.SmartCache
		if sys == SMARTC {
			budget = cfg.SmartCCache
		}
		cl.caches = make([]*smart.NodeCache, cfg.CNs)
		for i := range cl.caches {
			cl.caches[i] = smart.NewNodeCache(budget)
		}
	case ART:
		cl.artShared, err = artdm.Bootstrap(f, ring)
	default:
		return nil, fmt.Errorf("bench: unknown system %v", sys)
	}
	if err != nil {
		return nil, err
	}
	if cfg.Live != nil {
		cfg.Live.attach(cl)
	}
	return cl, nil
}

// phaseObs composes the harness-lifetime and per-phase batch observers
// for a worker client, returning nil when neither is active. The nil
// check matters at the call sites: installing a typed-nil observer would
// make the interface non-nil and panic on the first batch.
func (cl *Cluster) phaseObs() fabric.BatchObserver {
	var live, phase fabric.BatchObserver
	if cl.live != nil {
		live = cl.live.Metrics
	}
	if cl.runMetrics != nil {
		phase = cl.runMetrics
	}
	switch {
	case live != nil && phase != nil:
		return obs.Tee{A: live, B: phase}
	case live != nil:
		return live
	default:
		return phase
	}
}

// observeOp records one finished operation into the per-phase and
// harness-lifetime metric sets (whichever are active).
func (cl *Cluster) observeOp(k obs.OpKind, latencyPs int64, roundTrips uint64) {
	if cl.runMetrics != nil {
		cl.runMetrics.ObserveOp(k, latencyPs, roundTrips)
	}
	if cl.live != nil {
		cl.live.Metrics.ObserveOp(k, latencyPs, roundTrips)
	}
}

// scanAdapter bridges the per-system Scan(lo, hi, limit) signatures to the
// YCSB scan(start, count) shape.
type sphinxIndex struct{ c *core.Client }

func (s sphinxIndex) Search(k []byte) ([]byte, bool, error) { return s.c.Search(k) }
func (s sphinxIndex) Insert(k, v []byte) (bool, error)      { return s.c.Insert(k, v) }
func (s sphinxIndex) Update(k, v []byte) (bool, error)      { return s.c.Update(k, v) }
func (s sphinxIndex) Delete(k []byte) (bool, error)         { return s.c.Delete(k) }
func (s sphinxIndex) ScanN(lo []byte, n int) ([]rart.KV, error) {
	return s.c.Scan(lo, nil, n)
}
func (s sphinxIndex) engine() *rart.Engine { return s.c.Engine() }

type smartIndex struct{ c *smart.Client }

func (s smartIndex) Search(k []byte) ([]byte, bool, error) { return s.c.Search(k) }
func (s smartIndex) Insert(k, v []byte) (bool, error)      { return s.c.Insert(k, v) }
func (s smartIndex) Update(k, v []byte) (bool, error)      { return s.c.Update(k, v) }
func (s smartIndex) Delete(k []byte) (bool, error)         { return s.c.Delete(k) }
func (s smartIndex) ScanN(lo []byte, n int) ([]rart.KV, error) {
	return s.c.Scan(lo, nil, n)
}
func (s smartIndex) engine() *rart.Engine { return s.c.Engine() }

type artIndex struct{ c *artdm.Client }

func (s artIndex) Search(k []byte) ([]byte, bool, error) { return s.c.Search(k) }
func (s artIndex) Insert(k, v []byte) (bool, error)      { return s.c.Insert(k, v) }
func (s artIndex) Update(k, v []byte) (bool, error)      { return s.c.Update(k, v) }
func (s artIndex) Delete(k []byte) (bool, error)         { return s.c.Delete(k) }
func (s artIndex) ScanN(lo []byte, n int) ([]rart.KV, error) {
	return s.c.Scan(lo, nil, n)
}
func (s artIndex) engine() *rart.Engine { return s.c.Engine() }

// sphinxOptions returns the core.Options for one worker of a
// Sphinx-family system on the given compute node, or ok=false for the
// baselines.
func (cl *Cluster) sphinxOptions(cn int) (core.Options, bool) {
	var o core.Options
	switch cl.Sys {
	case Sphinx, SphinxNoBatch, SphinxTinySFC, SphinxTinyRand, SphinxNoLAC, SphinxHot:
		o = core.Options{Filter: cl.filters[cn%len(cl.filters)]}
	case SphinxNoSFC:
		o = core.Options{DisableFilter: true}
	case SphinxNoDirCache:
		o = core.Options{
			Filter:          cl.filters[cn%len(cl.filters)],
			DisableDirCache: true,
		}
	default:
		return core.Options{}, false
	}
	// Every Sphinx-family variant shares its CN's leaf-address cache, so
	// that (like the filter) warmth crosses worker and phase boundaries;
	// SphinxNoLAC has none and runs with the fast path disabled.
	if len(cl.lacs) > 0 {
		o.LeafCache = cl.lacs[cn%len(cl.lacs)]
	} else {
		o.DisableLeafCache = true
	}
	// Workers of one CN share that CN's hot-key tracker, like the filter:
	// the promotion claim bit then arbitrates one promoter per CN and the
	// learned replica routes are visible to every worker on the node.
	if len(cl.hotsets) > 0 {
		o.Hot = cl.hotsets[cn%len(cl.hotsets)]
	}
	// The nil guard matters: assigning a nil observer interface
	// unconditionally would make the field non-nil and panic on first
	// event.
	if observer := cl.phaseObs(); observer != nil {
		o.Observer = observer
	}
	o.Index = cl.index
	return o, true
}

// NewIndex mounts the cluster's system for one worker on the given compute
// node. The returned index is single-worker; CN-level caches are shared.
func (cl *Cluster) NewIndex(cn int) (Index, *fabric.Client) {
	fc := cl.F.NewClient()
	if cl.Sys == SphinxNoBatch {
		fc.SetNoBatch(true)
	}
	if observer := cl.phaseObs(); observer != nil {
		fc.SetObserver(observer)
	}
	if opts, ok := cl.sphinxOptions(cn); ok {
		return sphinxIndex{core.NewClient(cl.sphinxShared, fc, opts)}, fc
	}
	switch cl.Sys {
	case SMART, SMARTC:
		c := smart.NewClient(cl.smartShared, fc, smart.Options{Cache: cl.caches[cn%len(cl.caches)]})
		return smartIndex{c}, fc
	case ART:
		c := artdm.NewClient(cl.artShared, fc, rart.Config{})
		return artIndex{c}, fc
	default:
		panic("bench: unknown system")
	}
}

// NewIndexNoSpec mounts a Sphinx-family worker like NewIndex but with
// the speculative leaf-address cache disabled. The elastic chaos run's
// measured workers use this: the LAC's 1-RT hits mask most of a
// migration's epoch-fallback cost, and its shared-slot collision
// refutes cost the same 4 round trips as a fallback — latency-
// indistinguishable from chaos. With it off the warm read path is
// deterministic, so the run's latency SLO cleanly separates steady
// windows from transitions. Baselines (no speculation) fall through to
// NewIndex.
func (cl *Cluster) NewIndexNoSpec(cn int) (Index, *fabric.Client) {
	opts, ok := cl.sphinxOptions(cn)
	if !ok {
		return cl.NewIndex(cn)
	}
	opts.LeafCache = nil
	opts.DisableLeafCache = true
	fc := cl.F.NewClient()
	if cl.Sys == SphinxNoBatch {
		fc.SetNoBatch(true)
	}
	if observer := cl.phaseObs(); observer != nil {
		fc.SetObserver(observer)
	}
	return sphinxIndex{core.NewClient(cl.sphinxShared, fc, opts)}, fc
}

// NewPipeline mounts a pipelined Sphinx executor for one worker, or
// ok=false for the baseline systems, which keep sequential clients. The
// returned fabric client is the executor's main client: all round trips
// and bytes account there, exactly as for a sequential worker.
func (cl *Cluster) NewPipeline(cn int) (*core.Pipeline, *fabric.Client, bool) {
	opts, ok := cl.sphinxOptions(cn)
	if !ok {
		return nil, nil, false
	}
	fc := cl.F.NewClient()
	if cl.Sys == SphinxNoBatch {
		fc.SetNoBatch(true)
	}
	if observer := cl.phaseObs(); observer != nil {
		fc.SetObserver(observer)
	}
	return core.NewPipeline(cl.sphinxShared, fc, opts), fc, true
}

// Keys exposes the loaded key set (for verification in tests).
func (cl *Cluster) Keys() [][]byte { return cl.keys }

// Value returns the run's value payload.
func (cl *Cluster) Value() []byte { return cl.value }
