package bench

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"sphinx/internal/core"
	"sphinx/internal/fabric"
)

// FailoverReport is the MN-loss chaos experiment's result: did killing a
// memory node mid-run lose any acknowledged write, how much did the tail
// degrade, and did online repair restore full replication while the
// cluster kept serving. Verdicts holds the answers (see gates).
type FailoverReport struct {
	System      string `json:"system"`
	Dataset     string `json:"dataset"`
	MNs         int    `json:"mns"`
	Replication int    `json:"replication"`
	Workers     int    `json:"workers"`
	KilledNode  int    `json:"killed_node"`

	// Durability: every write acknowledged to a worker (before or after
	// the kill) is re-read in the verification phase. A lost write is a
	// verified read that found nothing; a wrong value is a verified read
	// that found a stale value. Both must be zero.
	AckedWrites     uint64 `json:"acked_writes"`
	VerifiedReads   uint64 `json:"verified_reads"`
	LostAckedWrites uint64 `json:"lost_acked_writes"`
	WrongValueReads uint64 `json:"wrong_value_reads"`

	// Latency split at the kill: the post-kill window includes the
	// breaker's discovery cost and every failover read, so its tail shows
	// the degradation the paper's availability story must bound.
	PreKillOps    uint64  `json:"pre_kill_ops"`
	PostKillOps   uint64  `json:"post_kill_ops"`
	PreKillP50Us  float64 `json:"pre_kill_p50_us"`
	PreKillP99Us  float64 `json:"pre_kill_p99_us"`
	PostKillP50Us float64 `json:"post_kill_p50_us"`
	PostKillP99Us float64 `json:"post_kill_p99_us"`
	// MaxPostKillUs is the single worst post-kill operation — it bounds
	// the one-shot failover decision latency (discovery + replica read).
	MaxPostKillUs float64 `json:"max_post_kill_us"`

	// Fault-tolerance counters aggregated across workers.
	Failovers       uint64 `json:"failovers"`
	DegradedPuts    uint64 `json:"degraded_puts"`
	PartialReplicas uint64 `json:"partial_replicas"`
	HealthRejects   uint64 `json:"health_rejects"`

	// Online repair: sweeps until one reported zero deficits, replicas
	// re-published, the final under-replicated gauge (must be 0), and the
	// reads served concurrently with repair (all must have succeeded).
	RepairSweeps         uint64 `json:"repair_sweeps"`
	RepairCopied         uint64 `json:"repair_copied"`
	UnderReplicatedFinal uint64 `json:"under_replicated_final"`
	ReadsDuringRepair    uint64 `json:"reads_during_repair"`

	Verdicts []Verdict `json:"verdicts"`
}

// ackedWrite is one worker's record of an acknowledged write: the value
// the cluster promised to hold for the key.
type ackedWrite struct {
	key   []byte
	value []byte
}

// Failover is the MN-loss chaos experiment: load a replicated Sphinx
// cluster, drive a 50/50 read/update workload over per-worker key
// partitions (unique value per write, so verification detects silent
// loss), kill one memory node halfway through, and require that every
// acknowledged write stays readable, that reads fail over in one
// decision, and that repair sweeps restore full replication while a
// reader keeps being served.
func Failover(cfg Config, out io.Writer) (*FailoverReport, error) {
	if cfg.Replication < 2 {
		cfg.Replication = core.DefaultReplication
	}
	cfg = cfg.withDefaults()
	if cfg.MNs < 3 {
		return nil, fmt.Errorf("failover: need >= 3 memory nodes, have %d", cfg.MNs)
	}
	fmt.Fprintf(out, "# Failover — kill 1 of %d MNs mid-run, R=%d, dataset=%v keys=%d workers=%d\n",
		cfg.MNs, cfg.Replication, cfg.Dataset, cfg.Keys, cfg.Workers)
	cl, err := NewCluster(Sphinx, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := cl.Load(0); err != nil {
		return nil, fmt.Errorf("failover load: %w", err)
	}

	rep := &FailoverReport{
		System:      Sphinx.String(),
		Dataset:     cfg.Dataset.String(),
		MNs:         cfg.MNs,
		Replication: cfg.Replication,
		Workers:     cfg.Workers,
	}

	// The victim is the ring owner of the first key, so the kill is
	// guaranteed to sever live tree paths and hash entries.
	nodes := cl.Ring.Nodes()
	victim := cl.Ring.OwnerKey(cl.keys[0])
	for i, n := range nodes {
		if n == victim {
			rep.KilledNode = i
		}
	}

	workers := cfg.Workers
	ops := cfg.OpsPerWorker
	killAt := ops / 2
	var killOnce sync.Once
	var killed uint32

	type workerOut struct {
		acked    []ackedWrite
		preLats  []int64
		postLats []int64
		stats    core.Stats
		fstats   fabric.Stats
	}
	outs := make([]workerOut, workers)
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			idx, fc := cl.NewIndex(w % cfg.CNs)
			si := idx.(sphinxIndex)
			// Partitioned key shard: single writer per key, so the last
			// acknowledged value per key is the exact expected value.
			shard := make([][]byte, 0, len(cl.keys)/workers+1)
			for i := w; i < len(cl.keys); i += workers {
				shard = append(shard, cl.keys[i])
			}
			lastAcked := make(map[int][]byte, len(shard))
			o := &outs[w]
			rng := uint64(cfg.Seed)*0x9e3779b97f4a7c15 + uint64(w+1)
			for i := 0; i < ops; i++ {
				if w == 0 && i == killAt {
					killOnce.Do(func() {
						cl.F.KillNode(victim)
						atomic.StoreUint32(&killed, 1)
					})
				}
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				ki := int(rng>>33) % len(shard)
				key := shard[ki]
				start := fc.Clock()
				if rng&1 == 0 {
					v, ok, err := idx.Search(key)
					if err != nil {
						errCh <- fmt.Errorf("worker %d read op %d: %w", w, i, err)
						return
					}
					if want, wrote := lastAcked[ki]; wrote && (!ok || !bytes.Equal(v, want)) {
						errCh <- fmt.Errorf("worker %d op %d: read-your-write violated for %q", w, i, key)
						return
					}
				} else {
					val := []byte(fmt.Sprintf("w%d-op%d", w, i))
					if _, err := idx.Update(key, val); err != nil {
						errCh <- fmt.Errorf("worker %d update op %d: %w", w, i, err)
						return
					}
					// Acknowledged: the cluster must never lose it.
					lastAcked[ki] = val
				}
				lat := fc.Clock() - start
				if atomic.LoadUint32(&killed) == 1 {
					o.postLats = append(o.postLats, lat)
				} else {
					o.preLats = append(o.preLats, lat)
				}
			}
			for ki, val := range lastAcked {
				o.acked = append(o.acked, ackedWrite{key: shard[ki], value: val})
			}
			o.stats = si.c.Stats()
			o.fstats = fc.Stats()
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return nil, err
	}

	var pre, post []int64
	for w := range outs {
		o := &outs[w]
		pre = append(pre, o.preLats...)
		post = append(post, o.postLats...)
		rep.AckedWrites += uint64(len(o.acked))
		rep.Failovers += o.stats.Failovers
		rep.DegradedPuts += o.stats.DegradedPuts
		rep.PartialReplicas += o.stats.PartialReplicas
		rep.HealthRejects += o.fstats.HealthRejects
	}
	rep.PreKillOps = uint64(len(pre))
	rep.PostKillOps = uint64(len(post))
	rep.PreKillP50Us, rep.PreKillP99Us = latPercentiles(pre)
	rep.PostKillP50Us, rep.PostKillP99Us = latPercentiles(post)
	for _, l := range post {
		if us := float64(l) / 1e6; us > rep.MaxPostKillUs {
			rep.MaxPostKillUs = us
		}
	}

	// Verification: a fresh client re-reads every acknowledged write.
	vidx, _ := cl.NewIndex(0)
	for w := range outs {
		for _, aw := range outs[w].acked {
			v, ok, err := vidx.Search(aw.key)
			rep.VerifiedReads++
			switch {
			case err != nil || !ok:
				rep.LostAckedWrites++
			case !bytes.Equal(v, aw.value):
				rep.WrongValueReads++
			}
		}
	}

	// Online repair: sweep until a pass reports zero deficits, reading
	// live keys between sweeps to prove the cluster serves throughout.
	ridx, _ := cl.NewIndex(1 % cfg.CNs)
	rc := ridx.(sphinxIndex).c
	reader, _ := cl.NewIndex(2 % cfg.CNs)
	for sweep := 0; sweep < 10; sweep++ {
		srep, err := rc.RepairSweep()
		if err != nil {
			return nil, fmt.Errorf("repair sweep %d: %w", sweep, err)
		}
		for i := 0; i < 32 && i < len(cl.keys); i++ {
			if _, _, err := reader.Search(cl.keys[i*(len(cl.keys)/32+1)%len(cl.keys)]); err != nil {
				return nil, fmt.Errorf("read during repair sweep %d: %w", sweep, err)
			}
			rep.ReadsDuringRepair++
		}
		if srep.Deficits == 0 {
			break
		}
	}
	if ft := cl.sphinxShared.FT; ft != nil {
		rep.UnderReplicatedFinal = ft.UnderReplicated()
		rep.RepairSweeps, rep.RepairCopied = ft.RepairTotals()
	}

	fmt.Fprintf(out, "killed MN %d at op %d/%d per worker\n", rep.KilledNode, killAt, ops)
	fmt.Fprintf(out, "acked writes %d, verified %d: lost %d, wrong %d\n",
		rep.AckedWrites, rep.VerifiedReads, rep.LostAckedWrites, rep.WrongValueReads)
	fmt.Fprintf(out, "latency p50/p99 us: pre-kill %.2f/%.2f  post-kill %.2f/%.2f  (max post %.2f)\n",
		rep.PreKillP50Us, rep.PreKillP99Us, rep.PostKillP50Us, rep.PostKillP99Us, rep.MaxPostKillUs)
	fmt.Fprintf(out, "failovers %d  degraded puts %d  partial replicas %d  breaker rejects %d\n",
		rep.Failovers, rep.DegradedPuts, rep.PartialReplicas, rep.HealthRejects)
	fmt.Fprintf(out, "repair: %d sweeps, %d replicas copied, under-replicated %d, %d reads served during repair\n",
		rep.RepairSweeps, rep.RepairCopied, rep.UnderReplicatedFinal, rep.ReadsDuringRepair)
	rep.Verdicts = rep.gates()
	return rep, nil
}

// gates evaluates the experiment's acceptance verdicts from the report
// alone: every acknowledged write verified, none lost or stale; the kill
// landed mid-run (ops on both sides of it) and reads failed over; repair
// copied replicas back to zero deficits while reads kept being served.
func (rep *FailoverReport) gates() []Verdict {
	return []Verdict{
		atLeast("acked_writes", rep.AckedWrites, 1),
		equal("verified_reads", rep.VerifiedReads, rep.AckedWrites),
		equal("lost_acked_writes", rep.LostAckedWrites, 0),
		equal("wrong_value_reads", rep.WrongValueReads, 0),
		atLeast("pre_kill_ops", rep.PreKillOps, 1),
		atLeast("post_kill_ops", rep.PostKillOps, 1),
		atLeast("failovers", rep.Failovers, 1),
		equal("under_replicated_final", rep.UnderReplicatedFinal, 0),
		atLeast("repair_copied", rep.RepairCopied, 1),
		atLeast("reads_during_repair", rep.ReadsDuringRepair, 1),
	}
}

// latPercentiles returns the p50 and p99 of a latency sample in
// microseconds (0, 0 for an empty sample).
func latPercentiles(lats []int64) (p50, p99 float64) {
	if len(lats) == 0 {
		return 0, 0
	}
	s := make([]int64, len(lats))
	copy(s, lats)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[len(s)/2]) / 1e6, float64(s[len(s)*99/100]) / 1e6
}
