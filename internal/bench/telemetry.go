package bench

import (
	"sync/atomic"

	"sphinx/internal/core"
	"sphinx/internal/cuckoo"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/obs"
	"sphinx/internal/racehash"
)

// Live is the harness's cluster-spanning observability surface: one
// metric set, index-distribution set and tail sampler that every cluster
// the harness creates feeds for its whole lifetime, servable over HTTP
// while experiments run (sphinxbench -serve). Per-phase Result sections
// are unaffected — they diff against phase baselines; Live accumulates.
//
// Experiments create clusters one after another; the gauge sources (SFC
// load, INHT usage) read through the most recent Sphinx-family cluster,
// which is the one currently running.
type Live struct {
	Metrics *obs.Metrics
	Index   *obs.IndexMetrics
	Tail    *obs.TailSampler
	// Plane is the cluster observability plane behind /mn, /slo and
	// /alerts: per-MN windowed load series, SLO burn rates over the live
	// histograms, and the default alert rules. Its collector follows the
	// current cluster like the gauge sources do; -serve mode ticks it
	// from a wall-clock sampler.
	Plane *obs.Plane

	reg *obs.Registry
	cur atomic.Pointer[Cluster]
}

// NewLive creates the live telemetry surface. Pass it via Config.Live to
// every cluster that should report into it.
func NewLive() *Live {
	lv := &Live{
		Metrics: obs.NewMetrics(),
		Index:   obs.NewIndexMetrics(),
		Tail:    obs.NewTailSampler(0, 0),
	}
	// The read-p99 objective is deliberately loose for a simulated
	// fabric (25 µs); it exists so /slo and the burn-rate alerts have a
	// live series to chew on, not as a tuned production target.
	lv.Plane, _ = obs.NewPlane(obs.PlaneOptions{
		Collect: func() []obs.MNSample {
			if cl := lv.cur.Load(); cl != nil {
				return cl.collectMNs()
			}
			return nil
		},
		Latency: func(k obs.OpKind) obs.HistSnapshot { return lv.Metrics.OpLatency(k) },
		SLOs: []obs.SLO{
			{Name: "read-p99", Op: obs.OpGet, Quantile: 0.99, LatencyPs: 25_000_000},
		},
	})
	return lv
}

// attach points the gauge sources at a newly created cluster.
func (lv *Live) attach(cl *Cluster) {
	if len(cl.filters) > 0 {
		lv.cur.Store(cl)
	}
}

// Registry assembles (once) the registry behind /metrics and /snapshot:
// the live histograms, index distributions, tail counters, and gauge/
// counter sources that follow the current cluster. Every source is
// scrape-safe concurrently with running workers: filter cache stats are
// padded atomics (lock-free SFC), INHT usage scans go through the region
// locks, and the finished-phase core/hash counters are mutex-guarded on
// the cluster.
func (lv *Live) Registry() *obs.Registry {
	if lv.reg != nil {
		return lv.reg
	}
	r := obs.NewRegistry()
	r.AddMetrics("bench", lv.Metrics)
	lv.Index.Register(r)
	lv.Plane.Register(r)
	r.AddCounters("tail", lv.Tail.Counters)
	r.AddCounterStruct("core", func() any {
		if cl := lv.cur.Load(); cl != nil {
			return cl.phaseDoneCore()
		}
		return core.Stats{}
	})
	r.AddCounterStruct("inht", func() any {
		if cl := lv.cur.Load(); cl != nil {
			return cl.phaseDoneHash()
		}
		return racehash.Stats{}
	})
	r.AddCounterStruct("filter", func() any {
		if cl := lv.cur.Load(); cl != nil {
			return cl.filterStatsAgg()
		}
		return cuckoo.Stats{}
	})
	r.AddGauges("sfc", func() map[string]float64 {
		cl := lv.cur.Load()
		if cl == nil {
			return nil
		}
		occupied, capacity, load, bound := cl.filterOccupancy()
		g := map[string]float64{
			"occupied_slots":    float64(occupied),
			"capacity_slots":    float64(capacity),
			"load":              load,
			"analytic_fp_bound": bound,
		}
		fst := cl.filterStatsAgg()
		if probes := fst.Hits + fst.Misses; probes > 0 {
			g["false_positive_rate"] = float64(cl.phaseDoneCore().FalsePositives) / float64(probes)
		}
		return g
	})
	r.AddCounterStruct("lac", func() any {
		if cl := lv.cur.Load(); cl != nil {
			return cl.lacStatsAgg()
		}
		return core.LACStats{}
	})
	r.AddGauges("lac", func() map[string]float64 {
		cl := lv.cur.Load()
		if cl == nil || len(cl.lacs) == 0 {
			return nil
		}
		occupied, capacity, bytes := cl.lacOccupancy()
		g := map[string]float64{
			"occupied_slots": float64(occupied),
			"capacity_slots": float64(capacity),
			"size_bytes":     float64(bytes),
		}
		if capacity > 0 {
			g["occupancy"] = float64(occupied) / float64(capacity)
		}
		st := cl.phaseDoneCore()
		if probes := st.SpecHits + st.SpecMisses + st.SpecRefutes + st.SpecAborts; probes > 0 {
			g["hit_rate"] = float64(st.SpecHits) / float64(probes)
		}
		return g
	})
	r.AddGauges("inht", func() map[string]float64 {
		cl := lv.cur.Load()
		if cl == nil {
			return nil
		}
		u := cl.inhtUsage()
		return map[string]float64{
			"load_factor":      u.LoadFactor(),
			"entries":          float64(u.Entries),
			"capacity_entries": float64(u.Capacity),
			"segments":         float64(u.Segments),
			"dir_entries":      float64(u.DirEntries),
		}
	})
	lv.reg = r
	return r
}

// SFCBlock is the per-phase succinct-filter-cache efficacy section of a
// result's metrics: where locates landed in the prefix walk, and how the
// measured false-positive rate compares to the cuckoo filter's analytic
// bound.
type SFCBlock struct {
	// HitDepth is the distribution of the longest-prefix-hit depth (key
	// bytes matched) over filter-resolved locates; Probes is the local
	// filter probes spent per locate.
	HitDepth HistJSON `json:"hit_depth"`
	Probes   HistJSON `json:"probes"`

	Load          float64 `json:"load"`
	OccupiedSlots uint64  `json:"occupied_slots"`
	CapacitySlots uint64  `json:"capacity_slots"`

	FilterHits     uint64 `json:"filter_hits"`
	FalsePositives uint64 `json:"false_positives"`
	// Evictions and HotMarks are this phase's share of eviction and
	// hotness-bit churn across the CN filter caches.
	Evictions uint64 `json:"evictions,omitempty"`
	HotMarks  uint64 `json:"hot_marks,omitempty"`

	MeasuredFPRate  float64 `json:"measured_fp_rate"`
	AnalyticFPBound float64 `json:"analytic_fp_bound"`
}

// INHTBlock is the per-phase inner-node-hash-table section: structural
// load from an MN-side scan plus this phase's lookup/maintenance
// counters.
type INHTBlock struct {
	// Candidates is the distribution of fingerprint-matching candidates
	// per lookup (>1 means fingerprint collisions bought wasted reads).
	Candidates HistJSON `json:"candidates"`

	LoadFactor      float64 `json:"load_factor"`
	Entries         uint64  `json:"entries"`
	CapacityEntries uint64  `json:"capacity_entries"`
	Segments        uint64  `json:"segments"`
	DirEntries      uint64  `json:"dir_entries"`

	Lookups         uint64 `json:"lookups"`
	RetryReads      uint64 `json:"retry_reads,omitempty"`
	Refreshes       uint64 `json:"refreshes,omitempty"`
	StaleEntries    uint64 `json:"stale_entries,omitempty"`
	FPMismatches    uint64 `json:"fp_mismatches,omitempty"`
	BucketOverflows uint64 `json:"bucket_overflows,omitempty"`
	Splits          uint64 `json:"splits,omitempty"`
}

// LACBlock is the per-phase leaf-address-cache efficacy section of a
// result's metrics: how warm-read speculation performed (one-RT hits vs
// misses, refutes and aborts) and the cache's maintenance churn.
type LACBlock struct {
	// SpecHits..SpecAborts are this phase's speculative-read outcomes:
	// hits served in one verified round trip, misses that went straight
	// to the hash path, refutes that unlearned a stale entry and fell
	// back, and aborts (unstable leaf image or transient fabric error)
	// that fell back without unlearning.
	SpecHits    uint64 `json:"spec_hits"`
	SpecMisses  uint64 `json:"spec_misses"`
	SpecRefutes uint64 `json:"spec_refutes,omitempty"`
	SpecAborts  uint64 `json:"spec_aborts,omitempty"`
	// HitRate is hits over all speculative decisions (hits + misses +
	// refutes + aborts).
	HitRate float64 `json:"hit_rate"`

	// Learns/Unlearns/Evictions are this phase's share of cache
	// maintenance across the CN leaf-address caches.
	Learns    uint64 `json:"learns,omitempty"`
	Unlearns  uint64 `json:"unlearns,omitempty"`
	Evictions uint64 `json:"evictions,omitempty"`

	Occupancy     float64 `json:"occupancy"`
	OccupiedSlots uint64  `json:"occupied_slots"`
	CapacitySlots uint64  `json:"capacity_slots"`
	SizeBytes     uint64  `json:"size_bytes"`
}

// HotBlock is the per-phase hot read-replication section of a result's
// metrics: how the hotness-driven replica read path performed (verified
// 1-RT hits vs refutations of retired record images) and the promotion
// and write-refresh churn.
type HotBlock struct {
	// HotHits..HotAborts are this phase's replica-read outcomes: hits
	// served in one verified round trip, refutations that unlearned a
	// stale route and fell back, and aborts (transient fabric errors)
	// that fell back without a verdict.
	HotHits    uint64 `json:"hot_hits"`
	HotRefutes uint64 `json:"hot_refutes,omitempty"`
	HotAborts  uint64 `json:"hot_aborts,omitempty"`
	// Promotes/Demotes/Refreshes are the layer's maintenance churn:
	// keys promoted into replicated placement, demoted back out, and
	// writes that republished at least one hot record.
	Promotes  uint64 `json:"promotes,omitempty"`
	Demotes   uint64 `json:"demotes,omitempty"`
	Refreshes uint64 `json:"refreshes,omitempty"`
	// HitRate is hits over all replica-read attempts.
	HitRate float64 `json:"hit_rate"`
	// TrackerBytes is the CN hot-key trackers' total footprint.
	TrackerBytes uint64 `json:"tracker_bytes,omitempty"`
}

// nicBase snapshots the per-MN NIC counters at phase start (the window
// baseline for attachMNShares), or nil when metrics are off.
func (cl *Cluster) nicBase() []fabric.NICStats {
	if !cl.Cfg.Metrics {
		return nil
	}
	return cl.F.NICStats()
}

// MNShare is one memory node's slice of a measurement window's fabric
// round trips, with the NIC busy/queued-wait time that round-trip load
// produced (the hotspot signal the contention-aware replica choice
// steers by).
type MNShare struct {
	Node       int     `json:"node"`
	RoundTrips uint64  `json:"round_trips"`
	Share      float64 `json:"share"`
	BusyPs     int64   `json:"busy_ps,omitempty"`
	WaitPs     int64   `json:"wait_ps,omitempty"`
}

// attachMNShares diffs the per-MN NIC counters against the phase-start
// baseline and attaches the window's shares plus the normalized
// max/mean imbalance scalar (computed over current member nodes, so a
// killed or drained node does not deflate the mean).
func (cl *Cluster) attachMNShares(r *Result, base []fabric.NICStats) {
	if base == nil {
		return
	}
	cur := cl.F.NICStats()
	baseByNode := make(map[mem.NodeID]fabric.NICStats, len(base))
	for _, b := range base {
		baseByNode[b.Node] = b
	}
	members := make(map[mem.NodeID]bool)
	for _, n := range cl.memberNodes() {
		members[n] = true
	}
	var total, maxMemberRT uint64
	shares := make([]MNShare, 0, len(cur))
	for _, st := range cur {
		b := baseByNode[st.Node]
		rt := st.RoundTrips - b.RoundTrips
		total += rt
		if members[st.Node] && rt > maxMemberRT {
			maxMemberRT = rt
		}
		if rt == 0 && !members[st.Node] {
			continue
		}
		shares = append(shares, MNShare{
			Node:       int(st.Node),
			RoundTrips: rt,
			BusyPs:     st.BusyPs - b.BusyPs,
			WaitPs:     st.WaitPs - b.WaitPs,
		})
	}
	if total == 0 {
		return
	}
	for i := range shares {
		shares[i].Share = float64(shares[i].RoundTrips) / float64(total)
	}
	r.MNShares = shares
	if n := len(members); n > 0 {
		mean := float64(total) / float64(n)
		r.MNImbalance = float64(maxMemberRT) / mean
	}
}

// lacStatsAgg sums the CN leaf-address caches' maintenance counters
// (empty for systems without one).
func (cl *Cluster) lacStatsAgg() core.LACStats {
	var agg core.LACStats
	for _, lc := range cl.lacs {
		agg = agg.Add(lc.Stats())
	}
	return agg
}

// lacOccupancy aggregates live entries, slot capacity and byte footprint
// across the CN leaf-address caches.
func (cl *Cluster) lacOccupancy() (occupied, capacity, bytes uint64) {
	for _, lc := range cl.lacs {
		o, c := lc.Occupancy()
		occupied += o
		capacity += c
		bytes += lc.SizeBytes()
	}
	return occupied, capacity, bytes
}

// filterStatsAgg sums the CN filter caches' counters (empty for systems
// without a filter).
func (cl *Cluster) filterStatsAgg() cuckoo.Stats {
	var agg cuckoo.Stats
	for _, f := range cl.filters {
		st := f.FilterStats()
		agg.Inserts += st.Inserts
		agg.Duplicates += st.Duplicates
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.SecondWins += st.SecondWins
		agg.Relocations += st.Relocations
		agg.Evictions += st.Evictions
		agg.KickDrops += st.KickDrops
		agg.HotMarks += st.HotMarks
		agg.Deletes += st.Deletes
	}
	return agg
}

// filterOccupancy aggregates slot occupancy across the CN filter caches;
// the analytic bound is averaged (the caches share one geometry).
func (cl *Cluster) filterOccupancy() (occupied, capacity uint64, load, bound float64) {
	for _, f := range cl.filters {
		o, c := f.Occupancy()
		occupied += o
		capacity += c
		bound += f.AnalyticFPBound()
	}
	if capacity > 0 {
		load = float64(occupied) / float64(capacity)
	}
	if n := len(cl.filters); n > 0 {
		bound /= float64(n)
	}
	return occupied, capacity, load, bound
}

// collectMNs samples every memory node for the observability plane:
// fabric NIC accounting (cumulative — the plane windows the deltas),
// breaker health, hash-table load for nodes holding an INHT, and arena
// occupancy (skipped for killed nodes, whose regions are gone).
func (cl *Cluster) collectMNs() []obs.MNSample {
	h := cl.F.Health()
	members := make(map[mem.NodeID]bool)
	for _, n := range cl.memberNodes() {
		members[n] = true
	}
	tables := cl.sphinxShared.Tables
	if m := cl.sphinxShared.Members; m != nil {
		tables = m.Current().Tables
	}
	ops := cl.F.Regions()
	stats := cl.F.NICStats()
	out := make([]obs.MNSample, 0, len(stats))
	for _, st := range stats {
		n := st.Node
		state := h.State(n)
		s := obs.MNSample{
			Node: int(n), Member: members[n],
			Health: state.String(), HealthCode: float64(state),
			RoundTrips: st.RoundTrips, Verbs: st.Verbs, Bytes: st.Bytes,
			Faults: st.Faults, BusyPs: st.BusyPs, WaitPs: st.WaitPs,
		}
		if t, ok := tables[n]; ok {
			u := racehash.ReadUsage(cl.F.Region(n), t)
			s.HashLoad = u.LoadFactor()
			s.HashEntries = u.Entries
		}
		if !cl.F.NodeKilled(n) {
			if mu, err := mem.ReadUsage(ops, n); err == nil {
				for _, b := range mu.ByClass {
					s.ArenaUsed += b
				}
				s.ArenaCap = cl.F.RegionSize(n)
			}
		}
		out = append(out, s)
	}
	return out
}

// memberNodes returns the memory nodes of the current placement — the
// epoch-versioned ring when the system publishes one (elastic membership
// may have added or drained nodes since bootstrap), the static bootstrap
// ring otherwise.
func (cl *Cluster) memberNodes() []mem.NodeID {
	if m := cl.sphinxShared.Members; m != nil {
		return m.Current().Ring.Nodes()
	}
	return cl.Ring.Nodes()
}

// inhtUsage scans every memory node's hash-table structure MN-side (no
// virtual-clock cost; race-clean through the region locks). The table set
// comes from the current placement, so tables bootstrapped by an elastic
// add are counted and drained ones are not.
func (cl *Cluster) inhtUsage() racehash.Usage {
	var u racehash.Usage
	tables := cl.sphinxShared.Tables
	if m := cl.sphinxShared.Members; m != nil {
		tables = m.Current().Tables
	}
	for node, t := range tables {
		u = u.Add(racehash.ReadUsage(cl.F.Region(node), t))
	}
	return u
}

// phaseDoneCore and phaseDoneHash return the core/hash counters of all
// finished phases (live scrape sources; per-phase worker clients are
// aggregated into these at each phase end).
func (cl *Cluster) phaseDoneCore() core.Stats {
	cl.doneMu.Lock()
	defer cl.doneMu.Unlock()
	return cl.doneCore
}

func (cl *Cluster) phaseDoneHash() racehash.Stats {
	cl.doneMu.Lock()
	defer cl.doneMu.Unlock()
	return cl.doneHash
}

// aggSphinx folds the phase's Sphinx worker counters (sequential clients
// and pipelined executors) into one pair of core/hash totals.
func (cl *Cluster) aggSphinx(idxs []Index, pls []*core.Pipeline) (core.Stats, racehash.Stats, bool) {
	var coreAgg core.Stats
	var hashAgg racehash.Stats
	found := false
	for _, ix := range idxs {
		if si, ok := ix.(sphinxIndex); ok && si.c != nil {
			coreAgg = coreAgg.Add(si.c.Stats())
			hashAgg = hashAgg.Add(si.c.HashStats())
			found = true
		}
	}
	for _, pl := range pls {
		if pl != nil {
			coreAgg = coreAgg.Add(pl.Stats())
			hashAgg = hashAgg.Add(pl.HashStats())
			found = true
		}
	}
	return coreAgg, hashAgg, found
}

// readOnlyPhase is the precondition of the SFC, LAC and hot-replica
// identities: the phase ran sequential reads on a healthy index with
// metrics on. Writes and restarts add hash-stage traffic of their own,
// stale entries cost extra reads, and pipelining coalesces many lookups
// into shared round trips.
func (cl *Cluster) readOnlyPhase(depth int, st core.Stats) bool {
	return cl.runMetrics != nil && depth == 1 &&
		st.Inserts == 0 && st.Updates == 0 && st.Deletes == 0 &&
		st.Scans == 0 && st.Restarts == 0 && st.StaleEntries == 0
}

// attachIndexBlocks fills the result's SFC, INHT, LAC and hot sections
// from the phase deltas, declares their identities for read-only phases,
// and folds the phase's worker counters into the cluster's lifetime
// totals for the live registry.
func (cl *Cluster) attachIndexBlocks(r *Result, coreAgg core.Stats, hashAgg racehash.Stats, isSphinx bool) {
	if !isSphinx {
		return
	}
	cl.doneMu.Lock()
	cl.doneCore = cl.doneCore.Add(coreAgg)
	cl.doneHash = cl.doneHash.Add(hashAgg)
	cl.doneMu.Unlock()
	if r.Metrics == nil || cl.index == nil {
		return
	}
	readOnly := cl.readOnlyPhase(r.Depth, coreAgg)
	stageRT := func(s fabric.Stage) uint64 { return cl.runMetrics.StageRT(s).Sum }

	inht := &INHTBlock{
		Candidates:      histJSON(cl.index.INHTCandidates.Snapshot().Sub(cl.candBase), 1),
		Lookups:         hashAgg.Lookups,
		RetryReads:      hashAgg.RetryReads,
		Refreshes:       hashAgg.Refreshes,
		StaleEntries:    coreAgg.StaleEntries,
		FPMismatches:    coreAgg.FPMismatches,
		BucketOverflows: hashAgg.BucketOverflows,
		Splits:          hashAgg.Splits,
	}
	u := cl.inhtUsage()
	inht.LoadFactor = u.LoadFactor()
	inht.Entries = u.Entries
	inht.CapacityEntries = u.Capacity
	inht.Segments = u.Segments
	inht.DirEntries = u.DirEntries
	r.Metrics.INHT = inht

	// Leaf-address-cache section (absent for the SphinxNoLAC ablation).
	if len(cl.lacs) > 0 {
		lacSt := cl.lacStatsAgg()
		occupied, capacity, bytes := cl.lacOccupancy()
		lac := &LACBlock{
			SpecHits:      coreAgg.SpecHits,
			SpecMisses:    coreAgg.SpecMisses,
			SpecRefutes:   coreAgg.SpecRefutes,
			SpecAborts:    coreAgg.SpecAborts,
			Learns:        lacSt.Learns - cl.lacBase.Learns,
			Unlearns:      lacSt.Unlearns - cl.lacBase.Unlearns,
			Evictions:     lacSt.Evictions - cl.lacBase.Evictions,
			OccupiedSlots: occupied,
			CapacitySlots: capacity,
			SizeBytes:     bytes,
		}
		if probes := coreAgg.SpecHits + coreAgg.SpecMisses + coreAgg.SpecRefutes + coreAgg.SpecAborts; probes > 0 {
			lac.HitRate = float64(coreAgg.SpecHits) / float64(probes)
		}
		if capacity > 0 {
			lac.Occupancy = float64(occupied) / float64(capacity)
		}
		// In a read-only phase every speculative read costs exactly one
		// leaf-spec round trip (hit or refute, never an abort), and the
		// read stages — plus the hot-replica read and maintenance stages
		// when the hot layer is on — sum to the fabric's own counter: every
		// fallback re-descent is accounted and the fast path never
		// double-pays.
		if readOnly {
			specRT := stageRT(fabric.StageLeafSpec)
			readRT := stageRT(fabric.StageHashRead) + stageRT(fabric.StageNodeRead) +
				stageRT(fabric.StageLeafRead) + specRT +
				stageRT(fabric.StageHotRead) + stageRT(fabric.StageHotPub)
			r.Verdicts = append(r.Verdicts,
				equal("lac_reconciled", specRT, coreAgg.SpecHits+coreAgg.SpecRefutes),
				equal("lac_aborts", coreAgg.SpecAborts, 0),
				equal("read_stages_reconciled", readRT, r.RoundTrips))
		}
		r.Metrics.LAC = lac
	}

	// Hot read-replication section (absent unless the layer was
	// bootstrapped for this cluster).
	if cl.sphinxShared.Hot != nil && r.Metrics != nil {
		hot := &HotBlock{
			HotHits:    coreAgg.HotHits,
			HotRefutes: coreAgg.HotRefutes,
			HotAborts:  coreAgg.HotAborts,
			Promotes:   coreAgg.HotPromotes,
			Demotes:    coreAgg.HotDemotes,
			Refreshes:  coreAgg.HotRefreshes,
		}
		if attempts := coreAgg.HotHits + coreAgg.HotRefutes + coreAgg.HotAborts; attempts > 0 {
			hot.HitRate = float64(coreAgg.HotHits) / float64(attempts)
		}
		for _, hs := range cl.hotsets {
			hot.TrackerBytes += hs.SizeBytes()
		}
		// Trust-but-verify accounting: in a read-only phase every hot-read
		// stage round trip is exactly one verified hit or one refutation
		// (never a wrong value, never a double-pay), with no aborts. The
		// full stage sum is read_stages_reconciled above.
		if readOnly {
			r.Verdicts = append(r.Verdicts,
				equal("hot_reconciled", stageRT(fabric.StageHotRead), coreAgg.HotHits+coreAgg.HotRefutes),
				equal("hot_aborts", coreAgg.HotAborts, 0))
		}
		r.Metrics.Hot = hot
	}

	// The filter-less ablation allocates no filter traffic even though
	// the CN filter caches exist; it gets no SFC section.
	if len(cl.filters) == 0 || cl.Sys == SphinxNoSFC {
		return
	}
	fst := cl.filterStatsAgg()
	probes := fst.Hits + fst.Misses - cl.filterBase.Hits - cl.filterBase.Misses
	occupied, capacity, load, bound := cl.filterOccupancy()
	sfc := &SFCBlock{
		HitDepth:        histJSON(cl.index.SFCHitDepth.Snapshot().Sub(cl.hitDepthBase), 1),
		Probes:          histJSON(cl.index.SFCProbes.Snapshot().Sub(cl.probesBase), 1),
		Load:            load,
		OccupiedSlots:   occupied,
		CapacitySlots:   capacity,
		FilterHits:      coreAgg.FilterHits,
		FalsePositives:  coreAgg.FalsePositives,
		Evictions:       fst.Evictions - cl.filterBase.Evictions,
		HotMarks:        fst.HotMarks - cl.filterBase.HotMarks,
		AnalyticFPBound: bound,
	}
	if probes > 0 {
		sfc.MeasuredFPRate = float64(coreAgg.FalsePositives) / float64(probes)
	}
	// In a read-only phase every filter hit, true or false, costs one hash
	// lookup, and the hash-read stage pays exactly one round trip per
	// lookup plus stale-directory retries and refreshes: each false
	// positive shows up as one extra hash-entry round trip (DESIGN.md
	// §5.9).
	if readOnly {
		r.Verdicts = append(r.Verdicts,
			equal("fp_reconciled", hashAgg.Lookups, coreAgg.FilterHits+coreAgg.FalsePositives),
			equal("hash_rt_reconciled", stageRT(fabric.StageHashRead),
				hashAgg.Lookups+hashAgg.RetryReads+2*hashAgg.Refreshes))
	}
	r.Metrics.SFC = sfc
}
