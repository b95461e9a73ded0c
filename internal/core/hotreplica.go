// Hot-spot tolerance: hotness-driven read replication with
// contention-aware replica choice.
//
// Single-owner placement concentrates a Zipfian workload's head keys on
// one MN's NIC. This layer lets each CN promote the keys its HotSet
// tracker finds hot into R-way replicated placement: the key's value is
// republished as immutable versioned records into dedicated per-MN hot
// tables on the key's first R ring successors, one configuration of the
// versioned record layer (records.go). A promoted read then takes one
// round trip to a replica chosen by power-of-two-choices on the fabric's
// cached per-MN queued-wait signal, spreading the head of the
// distribution across NICs.
//
// The read keeps the trust-but-verify shape of the leaf-address cache:
// the cached record address is only a hint, the record image is verified
// in place (status word, full key), and any mismatch refutes the route
// and falls back to the authoritative path. Staleness is prevented by the
// write path: a put or delete to a promoted key LWW-swaps (or removes)
// every matching record on the replica set before acknowledging, and
// retires the superseded image by overwriting its status word, so a
// reader holding the old address refutes instead of serving old data.
//
// Promotion closes the publish-vs-write race with a placeholder phase:
//
//	open the writers' gate        // Published() true from here on
//	v0 := nextVersion()           // drawn before anything else
//	publish Locked placeholders   // key now discoverable to writers
//	v1 := nextVersion()           // still before the read
//	value := authoritative read
//	swap records in at v1         // swap-only: absence aborts
//
// Any write committing after the promoter's read draws a version > v1
// (the counter is cluster-ordered) and finds a record to swap — the
// placeholder guarantees discoverability — so the promoter's value can
// never overwrite a fresher one, and a record the promoter replaces is
// always older than what it read. The swap-only final phase means a
// concurrent delete (which removes records before acking) simply makes
// the promotion fizzle. The gate ordering is load-bearing: writers skip
// the per-write replica probe while Published() is false, so the flag
// must be set before the first placeholder can be seen — were it set
// only after the promotion completed, a write committing between the
// placeholder publish and the promoter's read would skip the swap that
// outranks v1, and the promoter would bury the fresher value under a
// verified-servable stale record.
//
// Benign imperfections, all bounded by verification: duplicate records
// from racing promoters (deduplicated by the next swap), placeholders
// orphaned by a promoter error (swapped live by the next write, removed
// by the next delete or demotion, never readable — routes only learn
// Idle records), records orphaned by a sketch-slot steal (still
// write-refreshed via the tables; still correct to serve).
package core

import (
	"bytes"
	"errors"
	"sync/atomic"

	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/racehash"
	"sphinx/internal/wire"
)

// DefaultHotReplication is the replica factor hot keys are promoted to:
// the head of a Zipfian distribution spread over three NICs, which keeps
// the hottest key's share below the per-MN fair share for the cluster
// sizes the skew experiment runs.
const DefaultHotReplication = 3

// HotReplicas is the cluster-wide descriptor of the hot-replication
// layer, created by BootstrapHot and shared read-only (counters atomic)
// by every client. It is independent of the fault-tolerance layer: hot
// records are a performance cache of the tree, not a durability store.
type HotReplicas struct {
	// RecordSet is the hot record store: R replicas per key over the ring
	// successors that host one of its static bootstrap-time tables (nodes
	// added by elastic scale-out simply host none), superseded images
	// retired, traffic tagged StageHotPub.
	*RecordSet
	// Load is the shared per-MN contention snapshot cache driving the
	// power-of-two-choices replica pick.
	Load *fabric.LoadCache

	// published is nonzero once a hot record — including a promotion
	// placeholder — may be discoverable; writers skip the per-write
	// replica probe while it is still zero (nothing can be stale). Set
	// by hotPlacehold BEFORE the first insert, never after a promotion
	// completes: see the gate-ordering note in the package comment.
	published uint64
}

// Published reports whether any hot record may ever have been
// discoverable (records or placeholders, including since-removed ones).
func (hr *HotReplicas) Published() bool {
	return atomic.LoadUint64(&hr.published) != 0
}

// BootstrapHot adds the hot-replication layer to a bootstrapped cluster:
// one hot-record table per current memory node (sized for expectedHot
// promoted keys at replica factor r) plus the shared descriptor, stored
// in sh.Hot. r < 2 selects DefaultHotReplication; r is clamped to the
// node count. Call after Bootstrap/BootstrapReplicated, before clients
// are created.
func BootstrapHot(f *fabric.Fabric, sh *Shared, expectedHot, r int) error {
	if r < 2 {
		r = DefaultHotReplication
	}
	nodes := sh.Ring.Nodes()
	if r > len(nodes) {
		r = len(nodes)
	}
	if expectedHot < 1 {
		expectedHot = 1
	}
	tables, err := bootstrapTables(f, mem.NewAllocator(f.Regions(), 0), nodes, expectedHot*r/len(nodes)+1, "hot")
	if err != nil {
		return err
	}
	sh.Hot = &HotReplicas{
		RecordSet: &RecordSet{R: r, Tables: tables, retire: true, stage: fabric.StageHotPub, name: "hot"},
		Load:      f.NewLoadCache(0),
	}
	return nil
}

// hotUnits converts a record image length to the route cache's 64-byte
// unit count; 0 (unroutable) when the record exceeds the 8-bit field.
func hotUnits(imgLen int) uint8 {
	u := (imgLen + 63) / 64
	if u > 255 {
		return 0
	}
	return uint8(u)
}

// hotRoutable reports whether a (key, value) pair still fits the route
// cache's 8-bit unit field once encoded as a record image (~16 KiB).
// Oversized pairs are excluded from the hot layer up front, at the
// hotTouch observation gate: promoting one would publish records no
// route can hold, so every promotion would end at routed=0, unclaim,
// and be retried as soon as the sketch re-crossed the threshold —
// steady candidate-lookup churn plus orphaned records, zero benefit.
func hotRoutable(key []byte, valLen int) bool {
	return hotUnits(recDataOff+len(key)+valLen) != 0
}

// hotPlacehold publishes a Locked placeholder at version v0 on every
// target that holds nothing for the key yet, making the key discoverable
// to concurrent writers before the promoter's authoritative read.
func (c *Client) hotPlacehold(targets []mem.NodeID, key []byte, v0 uint64) error {
	defer c.eng.C.SetStage(c.hot.tag())
	for _, t := range targets {
		cands, _, err := c.hot.lookup(t, key)
		if err != nil {
			if errors.Is(err, fabric.ErrNodeKilled) {
				continue // no reader can fetch from a killed node either
			}
			return err
		}
		if len(cands) > 0 {
			continue // already discoverable (record or racing placeholder)
		}
		entry, _, err := c.hot.writeImage(t, wire.StatusLocked, key, nil, v0)
		if err != nil {
			return err
		}
		// Open the writers' probe gate before the placeholder becomes
		// discoverable: a put/delete committing between this insert and
		// the promoter's authoritative read must see Published() true and
		// run the swap that outranks v1, or the promoter's pre-write
		// value would stick as a verified-servable stale record. Once the
		// gate opened it stays open even if this promotion fizzles —
		// correctness over the probe's cost.
		atomic.StoreUint64(&c.shared.Hot.published, 1)
		if err := c.hot.view(t).Insert(racehash.PlacementHash(key), entry, c.eng.Alloc); err != nil {
			return err
		}
	}
	return nil
}

// hotAbandon removes the promoter's own placeholders (exact version v0,
// still Locked) after an aborted promotion. CAS-exact: a placeholder a
// writer already swapped live is left alone.
func (c *Client) hotAbandon(targets []mem.NodeID, key []byte, v0 uint64) {
	defer c.eng.C.SetStage(c.hot.tag())
	for _, t := range targets {
		cands, _, err := c.hot.lookup(t, key)
		if err != nil {
			continue
		}
		mine := cands[:0]
		for _, r := range cands {
			if r.version == v0 && r.status == wire.StatusLocked {
				mine = append(mine, r)
			}
		}
		_ = c.hot.drop(t, key, mine, -1) // best effort: leftovers are benign
	}
}

// hotPromote publishes a hot key into R-way replicated placement. Best
// effort: any failure unclaims the key in the sketch so a later Observe
// retries; leftover placeholders are benign (see the package comment).
//
// Targets that already hold an Idle record for the key are ADOPTED, not
// republished: an Idle record was placed by a completed promotion or
// write refresh (publish-to-completion + LWW), so its image is at least
// as fresh as the last acknowledged write, and learning its address
// costs one lookup. Republishing instead would retire the record every
// other CN has routes to, and with one independent promoter per CN the
// cluster would churn through refute → re-promote cycles — each CN's
// promotion invalidating everyone else's routes — instead of serving
// hot reads. The placeholder/versioned-swap protocol below runs only
// against targets that hold nothing yet.
func (c *Client) hotPromote(key []byte) {
	targets, _ := c.hot.targetsOf(key, false)
	if len(targets) == 0 {
		c.hotset.Unclaim(key)
		return
	}
	routed := 0
	fresh := targets[:0]
	freshRanks := make([]int, 0, len(targets))
	for i, t := range targets {
		cands, _, err := c.hot.lookup(t, key)
		if err != nil {
			continue // killed or transient: forgo this rank
		}
		best := -1
		for j := range cands {
			if cands[j].status == wire.StatusIdle && (best < 0 || cands[j].version > cands[best].version) {
				best = j
			}
		}
		if best >= 0 {
			if units := hotUnits(cands[best].imgLen); units != 0 && i < c.hotset.Ranks() {
				c.hotset.Rank(i).Learn(key, cands[best].entry.Addr, units)
				routed++
			}
			continue
		}
		fresh = append(fresh, t)
		freshRanks = append(freshRanks, i)
	}
	if len(fresh) > 0 {
		v0 := c.nextVersion()
		if err := c.hotPlacehold(fresh, key, v0); err != nil {
			c.hotset.Unclaim(key)
			return
		}
		// Both versions are drawn before the read: any write committing
		// after it outranks v1, so our swap below can never bury a fresher
		// value.
		v1 := c.nextVersion()
		val, ok, err := c.searchTree(key, c.lacHash(key))
		if err != nil {
			c.hotset.Unclaim(key)
			return
		}
		if !ok {
			c.hotAbandon(fresh, key, v0)
			c.hotset.Unclaim(key)
			return
		}
		if !hotRoutable(key, len(val)) {
			// The value outgrew the routable bound between the observation
			// and this read: retract our placeholders and stand down —
			// the hotTouch size gate keeps the key from being re-claimed,
			// so this is a terminal demotion, not a retry loop.
			c.hotAbandon(fresh, key, v0)
			c.hotset.Unclaim(key)
			return
		}
		for i, t := range fresh {
			res, err := c.hot.put(t, key, val, v1, false)
			if err != nil {
				continue
			}
			if units := hotUnits(res.imgLen); units != 0 && freshRanks[i] < c.hotset.Ranks() {
				c.hotset.Rank(freshRanks[i]).Learn(key, res.addr, units)
				routed++
			}
		}
	}
	if routed == 0 {
		c.hotset.Unclaim(key)
		return
	}
	atomic.AddUint64(&c.stats.HotPromotes, 1)
}

// hotRefresh republishes a committed write at version over the key's hot
// records, called by put between tree commit and acknowledgement.
// LWW-idempotent, so the caller's retry machinery can re-run it. Killed
// targets are skipped — no reader can fetch their records; any other
// failure propagates so the write is not acknowledged with a stale
// replica readable.
func (c *Client) hotRefresh(key, value []byte, version uint64) error {
	if !c.shared.Hot.Published() {
		return nil
	}
	refreshed := false
	targets, curN := c.hot.targetsOf(key, true)
	for i, t := range targets {
		res, err := c.hot.put(t, key, value, version, false)
		if err != nil {
			if errors.Is(err, fabric.ErrNodeKilled) {
				continue
			}
			return err
		}
		refreshed = refreshed || res.imgLen != 0
		// The old record was just retired, so this CN's route to it is
		// stale; re-learn the fresh address in the same breath (rank =
		// position among the current ring's targets). Other CNs refute
		// once and re-promote — see hotGet.
		if units := hotUnits(res.imgLen); units != 0 && c.hotset != nil && i < curN && i < c.hotset.Ranks() {
			c.hotset.Rank(i).Learn(key, res.addr, units)
		}
	}
	if refreshed {
		atomic.AddUint64(&c.stats.HotRefreshes, 1)
	}
	return nil
}

// hotRemove removes and retires every hot record of the key, called by
// Delete between tree commit and acknowledgement (strict=true: failures
// other than killed nodes propagate) and by demotion (strict=false: best
// effort).
func (c *Client) hotRemove(key []byte, strict bool) error {
	if !c.shared.Hot.Published() {
		return nil
	}
	targets, _ := c.hot.targetsOf(key, true)
	for _, t := range targets {
		if _, err := c.hot.remove(t, key); err != nil && strict && !errors.Is(err, fabric.ErrNodeKilled) {
			return err
		}
	}
	return nil
}

// hotDemote tears down a cooled key: forget the routes, best-effort
// remove the records. Other CNs still tracking the key re-promote it
// (their reads refute the retired records and their sketches stay hot),
// which is churn, not wrongness.
func (c *Client) hotDemote(key []byte) {
	for i := 0; i < c.hotset.Ranks(); i++ {
		c.hotset.Rank(i).Unlearn(key)
	}
	_ = c.hotRemove(key, false)
	atomic.AddUint64(&c.stats.HotDemotes, 1)
}

// hotTouch feeds one served read into the tracker and runs whatever
// maintenance the observation triggered. Skipped in degraded mode (the
// hot layer is entirely off there — degraded writes land anchor-only and
// would leave records stale) and for values too large to route (see
// hotRoutable) — valLen is the length of the value the read served, and
// hotHash the key's sketch hash.
func (c *Client) hotTouch(key []byte, hotHash uint64, valLen int, sfcHot bool) {
	if c.hotset == nil || !hotRoutable(key, valLen) {
		return
	}
	switch c.hotset.observeHash(hotHash, sfcHot) {
	case HotPromoteNow:
		if c.degraded() {
			c.hotset.Unclaim(key)
			return
		}
		c.hotPromote(key)
	case HotDemoteNow:
		c.hotDemote(key)
	}
}

// Outcomes of one speculative hot-record read attempt.
const (
	hotReadHit    = iota // verified; value served
	hotReadRefute        // provably stale route; unlearn (1 RT paid)
	hotReadAbort         // transient fault; keep route, fall back (1 RT paid)
	hotReadSkip          // locally dropped before any round trip
)

// hotReadRecord speculatively reads one replica record in a single round
// trip and verifies it in place: Idle status and the exact key bytes. No
// follow-up reads — the route cache learned the record's exact size, and
// records are immutable, so a size mismatch already proves staleness.
func (c *Client) hotReadRecord(addr mem.Addr, units uint8, key []byte) ([]byte, int) {
	defer c.eng.C.SetStage(c.eng.C.SetStage(fabric.StageHotRead))
	regionSize := c.eng.C.Fabric().RegionSize(addr.Node())
	size := uint64(units) * 64
	if addr.Offset() >= regionSize {
		return nil, hotReadSkip
	}
	if addr.Offset()+size > regionSize {
		size = regionSize - addr.Offset()
	}
	if size < recDataOff {
		return nil, hotReadSkip
	}
	buf := make([]byte, size)
	if err := c.eng.C.Read(addr, buf); err != nil {
		if errors.Is(err, fabric.ErrNodeKilled) || errors.Is(err, fabric.ErrBreakerOpen) {
			return nil, hotReadRefute
		}
		return nil, hotReadAbort
	}
	r, ok := decodeRecord(buf)
	if !ok || r.status != wire.StatusIdle || !bytes.Equal(r.key, key) {
		return nil, hotReadRefute
	}
	return append([]byte(nil), r.value...), hotReadHit
}

// hotGet attempts the replicated 1-RT fast path: gather the key's routes
// from the rank caches, pick a starting replica by power-of-two-choices
// on the cached per-MN contention snapshot, and read-verify records until
// one serves or all refute. Aborts (transient faults) stop the attempt
// with routes kept. Only a verified hit is served. kh carries the key's
// rank-cache hashes; before any hot record was published (!kh.routed)
// the route caches are empty and nothing is claimed without a publish,
// so the attempt ends before any lookup.
func (c *Client) hotGet(key []byte, kh *keyHashes) ([]byte, bool) {
	hs := c.hotset
	if hs == nil {
		return nil, false
	}
	hs.FlushRoutes(c.members.Current().Epoch)
	if !kh.routed {
		return nil, false
	}
	type route struct {
		rank  int
		addr  mem.Addr
		units uint8
	}
	var routes [8]route
	n := 0
	for i := 0; i < hs.Ranks() && n < len(routes); i++ {
		if a, u, ok := hs.Rank(i).lookupHash(kh.rank(hs, i, key)); ok {
			routes[n] = route{i, a, u}
			n++
		}
	}
	if n == 0 {
		// Claimed but routeless: another CN's write retired the records
		// this CN's routes pointed at (each refutation unlearned one), or
		// an epoch flush dropped them. Rebuild by re-promoting — one
		// authoritative read plus the swap-only republish — so the hot
		// path recovers instead of staying dead until demotion. A failed
		// re-promotion unclaims, letting the sketch decide again.
		if hs.Claimed(key) && !c.degraded() {
			c.hotPromote(key)
		}
		return nil, false
	}
	start := 0
	if n >= 2 {
		// Two choices, one comparison against the tick-refreshed per-MN
		// queued-wait snapshot; ~zero cost, no extra round trips.
		x := int(hs.NextPick() % uint64(n))
		y := (x + 1) % n
		start = x
		if c.shared.Hot.Load.PickLighter(routes[x].addr.Node(), routes[y].addr.Node()) == routes[y].addr.Node() {
			start = y
		}
	}
	for k := 0; k < n; k++ {
		r := routes[(start+k)%n]
		val, verdict := c.hotReadRecord(r.addr, r.units, key)
		switch verdict {
		case hotReadHit:
			atomic.AddUint64(&c.stats.HotHits, 1)
			return val, true
		case hotReadRefute:
			atomic.AddUint64(&c.stats.HotRefutes, 1)
			hs.Rank(r.rank).unlearnHash(kh.rank(hs, r.rank, key))
		case hotReadAbort:
			atomic.AddUint64(&c.stats.HotAborts, 1)
			return nil, false
		case hotReadSkip:
			hs.Rank(r.rank).unlearnHash(kh.rank(hs, r.rank, key))
		}
	}
	return nil, false
}
