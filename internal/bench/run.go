package bench

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"sphinx/internal/core"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/obs"
	"sphinx/internal/rart"
	"sphinx/internal/ycsb"
)

// Result is one (system, workload) measurement in the units the paper
// reports: throughput in Mops/s and latency in microseconds, both in
// virtual network time.
type Result struct {
	System   string `json:"system"`
	Workload string `json:"workload"`
	Dataset  string `json:"dataset"`
	Workers  int    `json:"workers"`
	// Depth is the per-worker issue depth the run phase used (1 =
	// sequential clients).
	Depth int `json:"depth"`
	// Phase labels the measurement pass when RunPhases splits a run into
	// a warmup pass and a steady-state pass over the same workload
	// ("warmup" / "steady"); empty for single-pass runs.
	Phase string `json:"phase,omitempty"`

	Ops            uint64  `json:"ops"`
	ElapsedPs      int64   `json:"elapsed_ps"`
	ThroughputMops float64 `json:"tput_mops"`
	AvgLatUs       float64 `json:"avg_us"`
	P50LatUs       float64 `json:"p50_us"`
	P99LatUs       float64 `json:"p99_us"`

	RoundTripsPerOp float64 `json:"rt_per_op"`
	VerbsPerOp      float64 `json:"verbs_per_op"`
	BytesPerOp      float64 `json:"bytes_per_op"`

	// Wall-clock counterparts of the virtual-time numbers: the phase's
	// real elapsed time and throughput. The virtual clock is deterministic
	// and blind to CN-side CPU work, so lock contention and cache-line
	// ping-pong between workers only ever show up here — the scaling
	// experiment reads these fields. Noisy by nature (real scheduling),
	// unlike everything above.
	WallElapsedNs int64   `json:"wall_ns,omitempty"`
	WallMops      float64 `json:"wall_tput_mops,omitempty"`
	// ParallelEfficiency is set by the scaling sweep: this point's
	// per-worker wall-clock throughput relative to the sweep's first
	// point (1.0 = perfect scaling when the sweep starts at 1 worker).
	ParallelEfficiency float64 `json:"parallel_efficiency,omitempty"`

	// Sphinx-only diagnostics (zero for other systems): how operations
	// were routed and how often the probabilistic machinery misfired.
	SphinxFilterHitPct   float64 `json:"filter_hit_pct,omitempty"`
	SphinxFPPerKOp       float64 `json:"fp_per_kop,omitempty"`
	SphinxRestartsPerKOp float64 `json:"restarts_per_kop,omitempty"`
	SphinxCollisions     uint64  `json:"collisions,omitempty"`

	// Fault and recovery accounting, all systems: nonzero only when a
	// fault plan is active or locks were contended. Restarts counts
	// operation-level re-descents; the rest count injected fabric faults
	// survived and the stuck-lock recovery work performed.
	Restarts        uint64 `json:"restarts,omitempty"`
	TransientFaults uint64 `json:"transients,omitempty"`
	Timeouts        uint64 `json:"timeouts,omitempty"`
	NodeDownRejects uint64 `json:"node_down,omitempty"`
	LockSteals      uint64 `json:"lock_steals,omitempty"`
	LeafLockBreaks  uint64 `json:"leaf_breaks,omitempty"`
	DeleteRepairs   uint64 `json:"delete_repairs,omitempty"`

	// RoundTrips is the phase's absolute fabric round-trip total (the
	// right-hand side of the round-trip verdicts). Present only when
	// Config.Metrics is set.
	RoundTrips uint64 `json:"round_trips,omitempty"`

	// MNShares is the per-memory-node breakdown of this measurement
	// window's fabric round trips (each Load/Run phase is one window:
	// NIC counters are snapshotted at phase start and diffed at the end).
	// MNImbalance is the window's normalized hotspot scalar: the busiest
	// member node's round-trip share over the mean share (1.0 = perfectly
	// balanced, N = everything on one of N nodes). Present only when
	// Config.Metrics is set.
	MNShares    []MNShare `json:"mn_shares,omitempty"`
	MNImbalance float64   `json:"mn_imbalance,omitempty"`

	// Metrics is the phase's observability section: per-op and per-stage
	// histograms and the index-semantic efficacy sections. Present only
	// when Config.Metrics is set.
	Metrics *MetricsBlock `json:"metrics,omitempty"`
	// Verdicts are the phase's accounting identities (metrics runs only),
	// declared next to the counters they compare in attachMetrics and
	// attachIndexBlocks.
	Verdicts []Verdict `json:"verdicts,omitempty"`
}

// Diag renders the Sphinx diagnostics line, or "" for other systems.
func (r Result) Diag() string {
	if r.SphinxFilterHitPct == 0 && r.SphinxFPPerKOp == 0 && r.SphinxRestartsPerKOp == 0 {
		return ""
	}
	return fmt.Sprintf("    [sphinx] filter-hit %.1f%%  falsePos %.2f/kop  restarts %.2f/kop  collisions %d",
		r.SphinxFilterHitPct, r.SphinxFPPerKOp, r.SphinxRestartsPerKOp, r.SphinxCollisions)
}

// FaultLine renders the fault/recovery counters, or "" when the run saw
// neither injected faults nor lock recovery.
func (r Result) FaultLine() string {
	if r.Restarts == 0 && r.TransientFaults == 0 && r.Timeouts == 0 &&
		r.NodeDownRejects == 0 && r.LockSteals == 0 && r.LeafLockBreaks == 0 &&
		r.DeleteRepairs == 0 {
		return ""
	}
	return fmt.Sprintf("    [faults] restarts %d  transients %d  timeouts %d  nodeDown %d  lockSteals %d  leafBreaks %d  deleteRepairs %d",
		r.Restarts, r.TransientFaults, r.Timeouts, r.NodeDownRejects,
		r.LockSteals, r.LeafLockBreaks, r.DeleteRepairs)
}

// header returns the column header matching Result.Row.
func ResultHeader() string {
	return fmt.Sprintf("%-14s %-8s %-6s %7s %12s %10s %10s %10s %8s %8s %10s",
		"system", "workload", "data", "workers", "tput(Mops)", "avg(us)", "p50(us)", "p99(us)", "RT/op", "verbs/op", "bytes/op")
}

// Row renders the result as one aligned table line.
func (r Result) Row() string {
	return fmt.Sprintf("%-14s %-8s %-6s %7d %12.3f %10.2f %10.2f %10.2f %8.2f %8.2f %10.0f",
		r.System, r.Workload, r.Dataset, r.Workers,
		r.ThroughputMops, r.AvgLatUs, r.P50LatUs, r.P99LatUs,
		r.RoundTripsPerOp, r.VerbsPerOp, r.BytesPerOp)
}

// Load inserts the full dataset with the given number of workers. When
// measured, the insert phase itself is the benchmark (the paper's LOAD
// workload); otherwise it is just population.
func (cl *Cluster) Load(workers int) (Result, error) {
	if workers <= 0 {
		workers = cl.Cfg.Workers
	}
	cl.F.ResetTimelines() // fresh measurement phase: idle network
	cl.beginPhaseMetrics()
	nicBase := cl.nicBase()
	keys := cl.keys
	value := cl.value
	wallStart := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	lats := make([][]int64, workers)
	clients := make([]*fabric.Client, workers)
	idxs := make([]Index, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			idx, fc := cl.NewIndex(w % cl.Cfg.CNs)
			clients[w] = fc
			idxs[w] = idx
			rec := cl.armTail(idx, fc)
			lat := make([]int64, 0, len(keys)/workers+1)
			for i := w; i < len(keys); i += workers {
				start, rt0 := fc.Clock(), fc.RoundTrips()
				if rec != nil {
					rec.BeginReuse(obs.OpPut.String(), start)
				}
				if _, err := idx.Insert(keys[i], value); err != nil {
					errCh <- fmt.Errorf("load worker %d key %d: %w", w, i, err)
					return
				}
				lat = append(lat, fc.Clock()-start)
				cl.observeOp(obs.OpPut, fc.Clock()-start, fc.RoundTrips()-rt0)
				if rec != nil {
					cl.tail.Offer(obs.OpPut, rec.End(fc.Clock()))
				}
			}
			lats[w] = lat
		}(w)
	}
	wg.Wait()
	wall := time.Since(wallStart)
	close(errCh)
	for err := range errCh {
		return Result{}, err
	}
	r := cl.summarize("LOAD", workers, clients, lats)
	attachWall(&r, wall)
	r.Depth = 1 // loading is always sequential
	coreAgg, hashAgg, isSphinx := cl.aggSphinx(idxs, nil)
	cl.attachSphinxDiag(&r, coreAgg, isSphinx)
	attachRecoveryDiag(&r, idxs, nil)
	cl.attachMetrics(&r)
	cl.attachMNShares(&r, nicBase)
	cl.attachIndexBlocks(&r, coreAgg, hashAgg, isSphinx)
	return r, nil
}

// armTail gives one sequential worker a trace recorder feeding the tail
// sampler: teed into the client's batch observer chain, and (for Sphinx
// workers) installed on the core client so locate annotations — false
// positives, collisions, restarts — arrive in the captured timelines.
// Returns nil when tail sampling is off.
func (cl *Cluster) armTail(idx Index, fc *fabric.Client) *obs.Recorder {
	if cl.tail == nil {
		return nil
	}
	rec := obs.NewRecorder()
	if observer := cl.phaseObs(); observer != nil {
		fc.SetObserver(obs.Tee{A: observer, B: rec})
	} else {
		fc.SetObserver(rec)
	}
	if si, ok := idx.(sphinxIndex); ok {
		si.c.SetRecorder(rec)
	}
	return rec
}

// Run drives one YCSB workload. The index must already be loaded. Every
// worker gets a fresh fabric client (clock zero) so that the measurement
// window is clean; CN-level caches keep the warmth they gained during
// loading, as on a real cluster.
func (cl *Cluster) Run(w ycsb.Workload, workers, opsPerWorker int) (Result, error) {
	if workers <= 0 {
		workers = cl.Cfg.Workers
	}
	if opsPerWorker <= 0 {
		opsPerWorker = cl.Cfg.OpsPerWorker
	}
	depth := cl.Cfg.Depth
	if depth < 1 {
		depth = 1
	}
	cl.F.ResetTimelines() // fresh measurement phase: idle network
	cl.beginPhaseMetrics()
	nicBase := cl.nicBase()
	wallStart := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	lats := make([][]int64, workers)
	clients := make([]*fabric.Client, workers)
	idxs := make([]Index, workers)
	pls := make([]*core.Pipeline, workers)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			gen := ycsb.NewGenerator(w, cl.space, cl.zipf, cl.Cfg.Seed+int64(wk)*7919)
			if depth > 1 {
				if pl, fc, ok := cl.NewPipeline(wk % cl.Cfg.CNs); ok {
					clients[wk] = fc
					pls[wk] = pl
					lat, err := runPipelined(cl, pl, gen, cl.value, opsPerWorker, depth)
					if err != nil {
						errCh <- fmt.Errorf("worker %d: %w", wk, err)
						return
					}
					lats[wk] = lat
					return
				}
			}
			idx, fc := cl.NewIndex(wk % cl.Cfg.CNs)
			clients[wk] = fc
			idxs[wk] = idx
			rec := cl.armTail(idx, fc)
			lat := make([]int64, 0, opsPerWorker)
			for i := 0; i < opsPerWorker; i++ {
				op := gen.Next()
				kind := ycsbOpKind(op.Kind)
				start, rt0 := fc.Clock(), fc.RoundTrips()
				if rec != nil {
					rec.BeginReuse(kind.String(), start)
				}
				var err error
				switch op.Kind {
				case ycsb.OpRead:
					_, _, err = idx.Search(op.Key)
				case ycsb.OpUpdate:
					_, err = idx.Update(op.Key, cl.value)
				case ycsb.OpInsert:
					_, err = idx.Insert(op.Key, cl.value)
				case ycsb.OpScan:
					_, err = idx.ScanN(op.Key, op.ScanLen)
				}
				if err != nil {
					errCh <- fmt.Errorf("worker %d op %d (%v): %w", wk, i, op.Kind, err)
					return
				}
				lat = append(lat, fc.Clock()-start)
				cl.observeOp(kind, fc.Clock()-start, fc.RoundTrips()-rt0)
				if rec != nil {
					cl.tail.Offer(kind, rec.End(fc.Clock()))
				}
			}
			lats[wk] = lat
		}(wk)
	}
	wg.Wait()
	wall := time.Since(wallStart)
	close(errCh)
	for err := range errCh {
		return Result{}, err
	}
	r := cl.summarize(w.Name, workers, clients, lats)
	attachWall(&r, wall)
	r.Depth = depth
	coreAgg, hashAgg, isSphinx := cl.aggSphinx(idxs, pls)
	cl.attachSphinxDiag(&r, coreAgg, isSphinx)
	attachRecoveryDiag(&r, idxs, pls)
	cl.attachMetrics(&r)
	cl.attachMNShares(&r, nicBase)
	cl.attachIndexBlocks(&r, coreAgg, hashAgg, isSphinx)
	return r, nil
}

// RunPhases drives one workload twice, labelling the passes "warmup" and
// "steady". Each Run gets fresh fabric clients (clock zero), but the
// CN-level caches — succinct filter and leaf-address cache — keep what
// they learned, so the pair exposes cache learning as a measurement
// instead of averaging the cold ramp into the steady state: the warmup
// pass pays the misses, the steady pass shows the converged RT/op. The
// generator seeds repeat across passes, so under a skewed distribution
// the steady pass is maximally warm for exactly the keys that matter.
func (cl *Cluster) RunPhases(w ycsb.Workload, workers, opsPerWorker int) (warmup, steady Result, err error) {
	warmup, err = cl.Run(w, workers, opsPerWorker)
	if err != nil {
		return warmup, steady, err
	}
	warmup.Phase = "warmup"
	steady, err = cl.Run(w, workers, opsPerWorker)
	if err != nil {
		return warmup, steady, err
	}
	steady.Phase = "steady"
	return warmup, steady, nil
}

// attachWall fills the wall-clock throughput fields from a measured
// phase duration.
func attachWall(r *Result, wall time.Duration) {
	if wall <= 0 {
		return
	}
	r.WallElapsedNs = wall.Nanoseconds()
	r.WallMops = float64(r.Ops) / wall.Seconds() / 1e6
}

// ycsbOpKind maps a YCSB op to its metrics op kind.
func ycsbOpKind(k ycsb.OpKind) obs.OpKind {
	switch k {
	case ycsb.OpUpdate:
		return obs.OpUpdate
	case ycsb.OpInsert:
		return obs.OpPut
	case ycsb.OpScan:
		return obs.OpScan
	default:
		return obs.OpGet
	}
}

// runPipelined drives one worker's share of a workload through a
// pipelined executor, one issue window at a time: depth ops in flight,
// windows of a few depths so that generation (which for YCSB-D tracks
// the growing key space) never runs far ahead of execution. Per-op
// latency spans each op's own in-flight window.
func runPipelined(cl *Cluster, pl *core.Pipeline, gen *ycsb.Generator, value []byte, total, depth int) ([]int64, error) {
	lat := make([]int64, 0, total)
	window := depth * 8
	opBuf := make([]ycsb.Op, 0, window)
	pipeOps := make([]*core.PipeOp, window)
	for i := range pipeOps {
		pipeOps[i] = &core.PipeOp{}
	}
	for done := 0; done < total; {
		n := window
		if total-done < n {
			n = total - done
		}
		opBuf = gen.NextN(opBuf[:0], n)
		for i, op := range opBuf {
			po := pipeOps[i]
			*po = core.PipeOp{Key: op.Key}
			switch op.Kind {
			case ycsb.OpRead:
				po.Kind = core.PipeGet
			case ycsb.OpUpdate:
				po.Kind = core.PipeUpdate
				po.Value = value
			case ycsb.OpInsert:
				po.Kind = core.PipePut
				po.Value = value
			case ycsb.OpScan:
				po.Kind = core.PipeScan
				po.Limit = op.ScanLen
			}
		}
		pl.Run(pipeOps[:n], depth)
		for i, po := range pipeOps[:n] {
			if po.Err != nil {
				return nil, fmt.Errorf("op %d (%v): %w", done+i, opBuf[i].Kind, po.Err)
			}
			lat = append(lat, po.EndPs-po.StartPs)
			// Round trips are shared across in-flight ops (doorbell
			// coalescing), so no per-op attribution exists at depth>1;
			// the per-stage histograms carry the RT accounting instead.
			cl.observeOp(pipeOpKind(po.Kind), po.EndPs-po.StartPs, 0)
		}
		done += n
	}
	return lat, nil
}

// attachSphinxDiag folds the phase's aggregated Sphinx client counters
// (see aggSphinx) into the result's diagnostic fields.
func (cl *Cluster) attachSphinxDiag(r *Result, agg core.Stats, found bool) {
	if !found || r.Ops == 0 {
		return
	}
	locates := agg.FilterHits + agg.FilterFallbacks + agg.RootStarts
	if locates > 0 {
		r.SphinxFilterHitPct = 100 * float64(agg.FilterHits) / float64(locates)
	}
	r.SphinxFPPerKOp = 1000 * float64(agg.FalsePositives) / float64(r.Ops)
	r.SphinxRestartsPerKOp = 1000 * float64(agg.Restarts) / float64(r.Ops)
	r.SphinxCollisions = agg.CollisionRetry
	r.Restarts = agg.Restarts
}

// attachRecoveryDiag aggregates node-engine lock-recovery counters; every
// system's index wrapper exposes its engine, and pipelined executors
// aggregate over their lanes.
func attachRecoveryDiag(r *Result, idxs []Index, pls []*core.Pipeline) {
	var agg rart.EngineStats
	for _, ix := range idxs {
		if ex, ok := ix.(interface{ engine() *rart.Engine }); ok {
			if e := ex.engine(); e != nil {
				agg = agg.Add(e.Stats())
			}
		}
	}
	for _, pl := range pls {
		if pl != nil {
			agg = agg.Add(pl.EngineStats())
		}
	}
	r.LockSteals = agg.LockSteals
	r.LeafLockBreaks = agg.LeafLockBreaks
	r.DeleteRepairs = agg.DeleteRepairs
}

// summarize folds per-worker clocks, latencies and network stats into a
// Result. Throughput is total operations over the slowest worker's virtual
// time, matching how a wall-clock experiment would measure a fixed
// per-worker op count.
func (cl *Cluster) summarize(workload string, workers int, clients []*fabric.Client, lats [][]int64) Result {
	var all []int64
	var elapsed int64
	var net fabric.Stats
	var ops uint64
	for w := range clients {
		if clients[w] == nil {
			continue
		}
		if c := clients[w].Clock(); c > elapsed {
			elapsed = c
		}
		net = net.Add(clients[w].Stats())
		all = append(all, lats[w]...)
		ops += uint64(len(lats[w]))
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	r := Result{
		System:   cl.Sys.String(),
		Workload: workload,
		Dataset:  cl.Cfg.Dataset.String(),
		Workers:  workers,
		Ops:      ops,
	}
	if elapsed > 0 {
		r.ElapsedPs = elapsed
		// ops / (ps → s): ops * 1e12 / ps, reported in Mops.
		r.ThroughputMops = float64(ops) / (float64(elapsed) / 1e12) / 1e6
	}
	if len(all) > 0 {
		var sum int64
		for _, l := range all {
			sum += l
		}
		r.AvgLatUs = float64(sum) / float64(len(all)) / 1e6
		r.P50LatUs = float64(all[len(all)/2]) / 1e6
		r.P99LatUs = float64(all[len(all)*99/100]) / 1e6
	}
	if ops > 0 {
		r.RoundTripsPerOp = float64(net.RoundTrips) / float64(ops)
		r.VerbsPerOp = float64(net.Verbs) / float64(ops)
		r.BytesPerOp = float64(net.BytesRead+net.BytesWrite) / float64(ops)
	}
	r.TransientFaults = net.Transients
	r.Timeouts = net.Timeouts
	r.NodeDownRejects = net.NodeDownRejects
	if cl.runMetrics != nil {
		r.RoundTrips = net.RoundTrips
	}
	return r
}

// MemUsage aggregates MN-side memory by allocation class (Fig. 6).
type MemUsage struct {
	System  string
	Dataset string
	ByClass [mem.NumClasses]uint64
	Total   uint64 // all classes (the index's MN footprint)
}

// IndexBytes is the tree footprint (inner + leaf), the baseline the
// paper's INHT-overhead percentage is computed against.
func (m MemUsage) IndexBytes() uint64 {
	return m.ByClass[mem.ClassInner] + m.ByClass[mem.ClassLeaf]
}

// HashBytes is the inner-node-hash-table footprint.
func (m MemUsage) HashBytes() uint64 { return m.ByClass[mem.ClassHash] }

// MemoryUsage reads every memory node's allocator counters.
func (cl *Cluster) MemoryUsage() (MemUsage, error) {
	mu := MemUsage{System: cl.Sys.String(), Dataset: cl.Cfg.Dataset.String()}
	ops := cl.F.Regions()
	for _, node := range cl.memberNodes() {
		u, err := mem.ReadUsage(ops, node)
		if err != nil {
			return mu, err
		}
		for c := 0; c < int(mem.NumClasses); c++ {
			mu.ByClass[c] += u.ByClass[c]
		}
	}
	for _, b := range mu.ByClass {
		mu.Total += b
	}
	return mu, nil
}
