// MN fault tolerance: replicated anchor placement, health-gated failover
// and online anti-entropy repair.
//
// The tree and the inner-node hash table shard entries across MNs with no
// redundancy, so a permanently lost MN takes its slice of both with it.
// The fault-tolerance layer adds a replicated "anchor" store beside them:
// every acknowledged write also publishes an immutable anchor record —
// (key, value, version) — to the first R healthy memory nodes clockwise
// from the key on the consistent-hash ring, each node holding its replicas
// in a dedicated RACE-style table. Writes acknowledge only after the
// anchor publish completes, so:
//
//   - a read that hits a killed node on its tree path fails over to the
//     key's anchor replicas in one decision (the fabric health breaker
//     rejects suspect nodes locally, at zero virtual-time cost);
//   - killing any single MN of an R=2 placement loses no acknowledged
//     write: the surviving replica of every acked key is, by construction,
//     the first healthy successor at read time;
//   - a background repair sweep walks every live node's anchor table and
//     re-replicates entries whose replica set fell below R onto the next
//     healthy successors, returning the system to full replication while
//     CNs keep serving.
//
// Anchors are one configuration of the versioned record layer
// (records.go): health-filtered targets, per-epoch tables, untagged
// traffic, superseded images left in place. Last-writer-wins per replica
// is exact when a key has one writer, as the failover benchmark arranges,
// and keeps one of the racing values under concurrent writers to the same
// key, like the tree itself.
package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"sphinx/internal/consistenthash"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
)

// DefaultReplication is the replication factor the paper-scale clusters
// use: every anchor on two distinct MNs, surviving any single MN loss.
const DefaultReplication = 2

// FaultTolerance is the cluster-wide descriptor of the replication layer,
// created by BootstrapReplicated and shared read-only (its counters are
// atomic) by every client.
type FaultTolerance struct {
	// RecordSet is the anchor store: each anchor targets the first R
	// healthy distinct successors of its key on the ring (Health is the
	// fabric's shared per-MN breaker table), in the per-epoch tables of
	// Placement.Anchors.
	*RecordSet

	// underReplicated is the gauge the repair sweeper maintains: replica
	// deficits found by the latest sweep (0 once repair has converged).
	underReplicated uint64
	// repairSweeps / repairCopied accumulate across sweeps for metrics.
	repairSweeps uint64
	repairCopied uint64
}

// UnderReplicated returns the latest sweep's replica-deficit gauge.
func (ft *FaultTolerance) UnderReplicated() uint64 {
	return atomic.LoadUint64(&ft.underReplicated)
}

// RepairTotals returns the cumulative sweep count and copied-replica count.
func (ft *FaultTolerance) RepairTotals() (sweeps, copied uint64) {
	return atomic.LoadUint64(&ft.repairSweeps), atomic.LoadUint64(&ft.repairCopied)
}

// place returns the first healthy successor of key — the node that must
// hold every acknowledged key, and where new tree allocations and hash
// entries go so they avoid dead nodes.
func (ft *FaultTolerance) place(ring *consistenthash.Ring, key []byte) mem.NodeID {
	var buf [16]mem.NodeID
	owners := ring.AppendOwnersKey(buf[:0], key, len(ring.Nodes()))
	for _, o := range owners {
		if ft.Health.Alive(o) {
			return o
		}
	}
	return owners[0]
}

// anyDead reports whether any ring node is known permanently lost — the
// cluster's degraded mode, in which tree-"absent" answers are confirmed
// against the anchors (degraded writes are anchor-only).
func (ft *FaultTolerance) anyDead(ring *consistenthash.Ring) bool {
	for _, n := range ring.Nodes() {
		if !ft.Health.Alive(n) {
			return true
		}
	}
	return false
}

// BootstrapReplicated is Bootstrap plus the fault-tolerance layer: one
// anchor table per memory node (sized for the expected keys at replication
// factor r), the shared FaultTolerance descriptor, and health-breaker
// gating enabled on the fabric. r < 2 selects DefaultReplication.
func BootstrapReplicated(f *fabric.Fabric, ring *consistenthash.Ring, expectedKeys, r int) (Shared, error) {
	if r < 2 {
		r = DefaultReplication
	}
	sh, err := Bootstrap(f, ring, expectedKeys)
	if err != nil {
		return Shared{}, err
	}
	anchors, err := bootstrapTables(f, mem.NewAllocator(f.Regions(), 0), ring.Nodes(),
		expectedKeys*r/len(ring.Nodes())+1, "anchor")
	if err != nil {
		return Shared{}, err
	}
	sh.FT = &FaultTolerance{RecordSet: &RecordSet{R: r, Health: f.Health(), name: "anchor"}}
	// Republish the epoch-0 placement with the anchor tables included, so
	// elastic membership changes can carry them forward.
	sh.Members = NewMembership(&Placement{Ring: ring, Tables: sh.Tables, Anchors: anchors})
	f.Health().EnableGating(true)
	return sh, nil
}

// anchorUpsert publishes the write at version to the key's replica set,
// publish-to-completion: the caller acknowledges only after it returns.
// Dead or unreachable replicas are skipped (counted as partial); if no
// replica is reachable the write fails with ErrReplicaSetUnavailable.
func (c *Client) anchorUpsert(key, value []byte, version uint64) (existed bool, err error) {
	targets, _ := c.anchors.targetsOf(key, false)
	written := 0
	for _, t := range targets {
		res, err := c.anchors.put(t, key, value, version, true)
		if err != nil {
			if errors.Is(err, fabric.ErrNodeDown) {
				continue
			}
			return false, err
		}
		existed = existed || res.existed
		written++
	}
	if written == 0 {
		return false, fmt.Errorf("%w: no anchor replica reachable for %q", ErrReplicaSetUnavailable, key)
	}
	if written < c.anchors.R {
		atomic.AddUint64(&c.stats.PartialReplicas, 1)
	}
	return existed, nil
}

// anchorGet reads the key from its replica set, returning the freshest
// version found across reachable replicas. Absence on every reachable
// replica is an authoritative "not found" for acknowledged data: an acked
// write reached all (then-healthy) replicas, so any one surviving replica
// suffices. Mid-transition the migrator may not have copied this key's
// anchors to the new epoch's replica set yet, so a miss there consults
// the previous epoch's. If no replica is reachable,
// ErrReplicaSetUnavailable.
func (c *Client) anchorGet(key []byte) (value []byte, ok bool, err error) {
	targets, curN := c.anchors.targetsOf(key, true)
	reached := 0
	var bestVer uint64
	fellBack := false
	for i, t := range targets {
		if i == curN && ok {
			break // the current epoch answered; the previous one is moot
		}
		cands, best, err := c.anchors.lookup(t, key)
		if err != nil {
			if errors.Is(err, fabric.ErrNodeDown) {
				continue
			}
			return nil, false, err
		}
		reached++
		if best >= 0 && (!ok || cands[best].version > bestVer) {
			ok, bestVer, fellBack = true, cands[best].version, i >= curN
			value = append([]byte(nil), cands[best].value...)
		}
	}
	if fellBack {
		atomic.AddUint64(&c.stats.EpochFallbacks, 1)
	}
	if reached == 0 {
		return nil, false, fmt.Errorf("%w: no anchor replica reachable for %q", ErrReplicaSetUnavailable, key)
	}
	return value, ok, nil
}

// anchorRemove deletes the key from every reachable replica. No
// tombstones: a replica that was unreachable during the delete and later
// repairs from a stale peer can resurrect the key (documented in
// docs/failure-model.md). Mid-transition it deletes from the UNION of the
// new and old replica sets: a replica left behind on the previous epoch's
// targets would otherwise resurrect the key when the migration sweep
// LWW-copies it forward.
func (c *Client) anchorRemove(key []byte) (present bool, err error) {
	targets, _ := c.anchors.targetsOf(key, true)
	reached := 0
	for _, t := range targets {
		held, err := c.anchors.remove(t, key)
		if err != nil {
			if errors.Is(err, fabric.ErrNodeDown) {
				continue
			}
			return false, err
		}
		present = present || held
		reached++
	}
	if reached == 0 {
		return false, fmt.Errorf("%w: no anchor replica reachable for %q", ErrReplicaSetUnavailable, key)
	}
	return present, nil
}

// RepairReport summarizes one anti-entropy sweep.
type RepairReport struct {
	// Scanned counts anchor records visited across all live nodes (each
	// replica counts once, so a fully replicated key at R=2 contributes 2).
	Scanned uint64
	// Deficits counts missing or stale replica slots found by this sweep —
	// the under-replicated gauge. 0 means the sweep found the system fully
	// replicated.
	Deficits uint64
	// Copied counts replicas this sweep re-published.
	Copied uint64
	// Remaining counts deficits the sweep could not repair (unreachable
	// target, lost race); they stay for the next sweep.
	Remaining uint64
}

// RepairSweep runs one online anti-entropy pass: walk every live node's
// anchor table, and for each record make sure the key is present at its
// record's version on all current replica targets, re-publishing where a
// target is missing it or holds an older version. Serving continues
// throughout — the sweep uses only the same one-sided protocols as
// foreground writes, and last-writer-wins versioning makes it idempotent
// and safe against concurrent updates.
//
// The walk is a best-effort snapshot under concurrent splits, so
// convergence is judged across sweeps: once a sweep reports zero deficits,
// the system is fully replicated. The sweep updates the shared
// under-replicated gauge with its deficit count.
func (c *Client) RepairSweep() (RepairReport, error) {
	ft := c.shared.FT
	if ft == nil {
		return RepairReport{}, errors.New("core: repair sweep on a cluster without fault tolerance")
	}
	var t replicateTally
	var werr error
	ring := c.ring()
	for _, src := range ring.Nodes() {
		if !ft.Health.Alive(src) {
			continue
		}
		err := c.anchors.rereplicate(src, ring, false, &t)
		if err == nil {
			continue
		}
		if !errors.Is(err, fabric.ErrNodeDown) {
			werr = fmt.Errorf("core: repair walk of node %d: %w", src, err)
			break
		}
		// src died mid-walk: its records are repaired from the surviving
		// replicas on later sweeps. Counted as a deficit so this sweep
		// cannot report convergence.
		t.unsettled++
	}
	rep := RepairReport{
		Scanned:   t.scanned,
		Deficits:  t.copied + t.unsettled,
		Copied:    t.copied,
		Remaining: t.unsettled + t.unread,
	}
	if werr != nil {
		return rep, werr
	}
	atomic.StoreUint64(&ft.underReplicated, rep.Deficits)
	atomic.AddUint64(&ft.repairSweeps, 1)
	atomic.AddUint64(&ft.repairCopied, rep.Copied)
	return rep, nil
}

// failoverable reports whether an error should trigger replica failover
// rather than backoff-and-retry: the fault-tolerance layer is active and
// the error says the target node is permanently gone (killed) or
// breaker-rejected (suspected down). Plain down-window errors keep the
// retry path — the node will come back.
func (c *Client) failoverable(err error) bool {
	return c.shared.FT != nil &&
		(errors.Is(err, fabric.ErrNodeKilled) || errors.Is(err, fabric.ErrBreakerOpen))
}

// degraded reports whether the cluster has lost a node permanently; in
// that mode tree-"absent" answers are double-checked against the anchors,
// because degraded writes land only there.
func (c *Client) degraded() bool {
	return c.shared.FT != nil && c.shared.FT.anyDead(c.ring())
}
