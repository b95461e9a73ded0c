package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"

	"sphinx/internal/fabric"
	"sphinx/internal/racehash"
	"sphinx/internal/rart"
	"sphinx/internal/wire"
)

// hooks wires tree events into Sphinx's side structures: descent
// discoveries feed the filter cache; structural changes maintain the inner
// node hash table (paper §IV).
type hooks struct{ c *Client }

// SawNode learns every prefix encountered during a descent into the filter
// cache ("the client updates the succinct filter cache for any prefixes
// not present in the cache", §IV Search).
func (h hooks) SawNode(prefix []byte, n *rart.Node) {
	if len(prefix) == 0 || h.c.filter == nil {
		return
	}
	h.c.filter.Insert(PrefixFilterHash(prefix))
}

// NewInner publishes a fresh inner node: an 8-byte entry keyed by its full
// prefix goes into the owning memory node's hash table, and the local
// filter learns the prefix. Remote CNs learn it lazily during traversals
// (§IV Insert: "synchronization of caches on other CNs is deferred").
func (h hooks) NewInner(prefix []byte, n *rart.Node) error {
	entry := wire.HashEntry{Valid: true, FP: wire.FP12(prefix), Type: n.Hdr.Type, Addr: n.Addr}
	if err := h.c.viewFor(prefix).Insert(n.Hdr.PrefixHash, entry, h.c.eng.Alloc); err != nil {
		return err
	}
	if h.c.filter != nil {
		h.c.filter.Insert(PrefixFilterHash(prefix))
	}
	return nil
}

// TypeSwitched swaps the node's hash entry for the grown copy with one CAS
// (§IV Insert: "This update can be performed atomically using an RDMA CAS,
// as the client modifies only one 8-byte hash entry"). The full prefix —
// the entry's key — is unchanged, so no other state moves.
//
// During a membership transition the old entry may still live in the
// PREVIOUS epoch's table (the migrator has not moved this prefix yet), so
// the hook locates the holding table first: held by the current table →
// plain Replace; held by the previous one → Insert into the current table,
// then retire the old entry (in that order, so a concurrent locate always
// finds at least one of the two). The caller holds the node's lease, which
// serializes all entry movement for this prefix. The migrator's node-copy
// publication reuses this hook verbatim.
func (h hooks) TypeSwitched(prefix []byte, old, grown *rart.Node) error {
	c := h.c
	fp := wire.FP12(prefix)
	oldE := wire.HashEntry{Valid: true, FP: fp, Type: old.Hdr.Type, Addr: old.Addr}
	newE := wire.HashEntry{Valid: true, FP: fp, Type: grown.Hdr.Type, Addr: grown.Addr}
	h42 := old.Hdr.PrefixHash
	p := c.members.Current()
	cur := c.viewOf(c.placeIn(p, prefix))
	prev := c.prevViewFor(p, prefix)
	if prev == nil {
		return cur.Replace(h42, oldE, newE)
	}
	if held, err := viewHolds(cur, h42, fp, oldE); err != nil {
		return err
	} else if held {
		return cur.Replace(h42, oldE, newE)
	}
	if held, err := viewHolds(prev, h42, fp, oldE); err != nil {
		return err
	} else if held {
		if err := cur.Insert(h42, newE, c.eng.Alloc); err != nil {
			return err
		}
		return prev.Remove(h42, oldE)
	}
	// Neither table holds the entry yet: an in-flight publication into the
	// current table (Insert CAS between our lookups). Replace spin-waits
	// for it to land.
	return cur.Replace(h42, oldE, newE)
}

// viewHolds reports whether a table currently holds exactly this entry.
func viewHolds(v *racehash.View, h42 uint64, fp uint16, e wire.HashEntry) (bool, error) {
	cands, err := v.Lookup(h42, fp)
	if err != nil {
		return false, err
	}
	for _, cand := range cands {
		if cand.Entry == e {
			return true, nil
		}
	}
	return false, nil
}

// noteRestart annotates an operation-level restart on the armed trace
// recorder; the text is formatted only if the trace is kept.
func (c *Client) noteRestart(err error) {
	if c.rec != nil {
		c.rec.Notef(fabric.StageNone, c.eng.C.Clock(), "restart: %v", err)
	}
}

func (c *Client) checkKey(key []byte) error {
	if len(key) == 0 || len(key) > wire.MaxDepth {
		return fmt.Errorf("core: key length %d out of range [1,%d]", len(key), wire.MaxDepth)
	}
	return nil
}

// retriable reports whether an error is worth re-running the operation
// for: a lost structural race, or an injected fabric fault that a later
// attempt can outlive. Budget exhaustion and client crashes are terminal.
func retriable(err error) bool {
	return errors.Is(err, rart.ErrRestart) ||
		errors.Is(err, fabric.ErrTransient) ||
		errors.Is(err, fabric.ErrTimeout) ||
		errors.Is(err, fabric.ErrNodeDown)
}

// keyHashes are one key's hashes for the CN-side caches keyed by the
// full key: the leaf-address cache, the hot-set sketch and, once hot
// records may exist (routed), the hot route caches of the first
// len(ranks) replica ranks.
type keyHashes struct {
	lac, hot uint64
	routed   bool
	ranks    [6]uint64
}

// rank returns replica rank i's route-cache hash of key.
func (kh *keyHashes) rank(hs *HotSet, i int, key []byte) uint64 {
	if i < len(kh.ranks) {
		return kh.ranks[i]
	}
	return hs.Rank(i).hash(key)
}

// hashKey computes the key's cache hashes in one pass over the key. A
// nil cache's lane hashes with seed 0 and is never read.
func (c *Client) hashKey(key []byte) (kh keyHashes) {
	var seeds, out [2 + len(kh.ranks)]uint64
	n := 2
	if c.lac != nil {
		seeds[0] = c.lac.hashSeed()
	}
	if hs := c.hotset; hs != nil {
		seeds[1] = hs.hashSeed()
		// Routes are learned only from published records, so before the
		// first publish every rank cache is provably empty.
		if kh.routed = c.shared.Hot.Published(); kh.routed {
			for i := 0; i < hs.Ranks() && i < len(kh.ranks); i++ {
				seeds[n] = hs.Rank(i).hashSeed()
				n++
			}
		}
	}
	wire.Hash64Seeds(key, seeds[:n], out[:n])
	kh.lac, kh.hot = out[0], out[1]
	copy(kh.ranks[:], out[2:n])
	return kh
}

// Search returns the value stored for key (paper §IV Search). Warm path:
// one hash-entry round trip, one inner-node round trip, one leaf round
// trip.
func (c *Client) Search(key []byte) ([]byte, bool, error) {
	if err := c.checkKey(key); err != nil {
		return nil, false, err
	}
	atomic.AddUint64(&c.stats.Searches, 1)
	if c.degraded() {
		// A node is permanently lost, so the tree is not authoritative:
		// degraded writes land only in the anchor store, while a tree read
		// may still succeed on a stale leaf via a path that happens to
		// avoid the dead node. Serve from the replicated anchors — for any
		// acked key a healthy replica exists by the placement invariant.
		atomic.AddUint64(&c.stats.Failovers, 1)
		return c.anchorGet(key)
	}
	// Hottest path: a key promoted into replicated placement serves from a
	// contention-chosen replica record in one verified round trip (see
	// hotreplica.go). A refute or abort falls through with a fresh budget,
	// like the speculative path below.
	kh := c.hashKey(key)
	if val, served := c.hotGet(key, &kh); served {
		c.hotTouch(key, kh.hot, len(val), false)
		return val, true, nil
	}
	// Speculative fast path: if the leaf-address cache has an opinion, one
	// doorbell read against the cached address, verified in place. A refuted
	// or aborted speculation falls through to the 3-RT hash path below with
	// a FRESH backoff — the fallback is a routing decision, not contention,
	// so it consumes no retry budget and injects no sleep (same contract as
	// the ErrNeedParent re-route in put).
	if val, served := c.specGet(key, kh.lac); served {
		c.hotTouch(key, kh.hot, len(val), false)
		return val, true, nil
	}
	// The authoritative walk below probes the filter inside locate, which
	// records the SFC hotness observation into sfcWasHot for hotTouch.
	c.sfcWasHot = false
	val, ok, err := c.searchTree(key, kh.lac)
	if err == nil && ok {
		c.hotTouch(key, kh.hot, len(val), c.sfcWasHot)
	}
	return val, ok, err
}

// searchTree is the authoritative read: locate (filter-guided jump) plus
// the tree walk, with collision narrowing, failover and retry. Factored
// out of Search so hot promotion can fetch an authoritative value without
// recursing through the fast paths or the operation counters. lacHash is
// the key's leaf-address-cache hash, for learning the leaf found.
func (c *Client) searchTree(key []byte, lacHash uint64) ([]byte, bool, error) {
	maxLen := len(key)
	var last error
	for bo := c.eng.Backoff(); ; {
		start, startLen, err := c.locate(key, maxLen)
		if err == nil {
			var leaf *rart.Leaf
			leaf, err = c.eng.SearchFrom(start, key, hooks{c})
			if err == nil {
				if leaf == nil {
					return c.searchAbsent(key)
				}
				if !bytes.Equal(leaf.Key, key) {
					if cp := rart.CommonPrefixLen(leaf.Key, key); cp < startLen {
						// The start node was not on the key's path after
						// all: the filter fingerprint and the 42-bit prefix
						// hash both collided. Unlearn and retry with a
						// shorter prefix (paper §III-B's leaf-level
						// detection).
						c.noteCollision(key, startLen)
						maxLen = startLen - 1
						continue
					}
					return c.searchAbsent(key)
				}
				c.learn(lacHash, leaf)
				return leaf.Value, true, nil
			}
		}
		if c.failoverable(err) {
			// The key's tree path crosses a lost node: answer from the
			// anchor replicas in one decision, no backoff (acked writes
			// reached every replica, so any survivor is authoritative).
			atomic.AddUint64(&c.stats.Failovers, 1)
			c.noteRestart(err)
			return c.anchorGet(key)
		}
		if !retriable(err) {
			return nil, false, err
		}
		atomic.AddUint64(&c.stats.Restarts, 1)
		c.noteRestart(err)
		last = err
		// maxLen stays narrowed: a retriable fabric fault says nothing
		// about the collided prefix, and SawNode re-learns it into the
		// filter during descents, so widening here would re-detect the
		// same collision on every retry (§III-B narrowing must survive
		// restarts).
		if !rart.RetryWait(bo, err) {
			return nil, false, exhausted("search", key, last)
		}
	}
}

// specGet attempts the speculative 1-RT fast path (trust-but-verify, the
// SFC's shape applied to the whole traversal): read the leaf at the cached
// address in one round trip and verify the image in place — checksum (the
// read decoded), status word (Idle), and the full key the leaf stores.
// Only a positive, verified hit is served; a mismatched leaf proves
// nothing about absence, so misses always take the authoritative path.
//
//   - Verified hit: value served, one round trip total.
//   - Refuted (Invalid status, wrong key, or the address is on a lost
//     node): the entry is unlearned and the caller falls back.
//   - Aborted (torn or locked image, transient fabric error): nothing is
//     provable either way; the entry survives — an in-flight writer's
//     in-place update keeps the address valid.
//
// Never called in degraded mode: degraded writes land anchor-only, so a
// cached tree address could serve a stale value with a clean checksum.
// Search's degraded() check precedes this call.
func (c *Client) specGet(key []byte, lacHash uint64) ([]byte, bool) {
	if c.lac == nil {
		return nil, false
	}
	addr, units, ok := c.lac.lookupHash(lacHash)
	if !ok {
		atomic.AddUint64(&c.stats.SpecMisses, 1)
		return nil, false
	}
	leaf, err := c.eng.SpecReadLeaf(addr, units)
	if err != nil {
		if errors.Is(err, fabric.ErrNodeKilled) || errors.Is(err, fabric.ErrBreakerOpen) {
			// The cached address points into permanently lost memory.
			c.lac.unlearnHash(lacHash)
			atomic.AddUint64(&c.stats.SpecRefutes, 1)
			c.noteSpec(key, "lac refuted: node lost, unlearned")
		} else {
			atomic.AddUint64(&c.stats.SpecAborts, 1)
			c.noteSpec(key, "lac aborted: fabric error, entry kept")
		}
		return nil, false
	}
	if leaf == nil {
		// Torn or locked image: an in-flight single-WRITE updater. The
		// address is still the key's leaf, so keep the entry.
		atomic.AddUint64(&c.stats.SpecAborts, 1)
		c.noteSpec(key, "lac aborted: leaf unstable, entry kept")
		return nil, false
	}
	if leaf.Status != wire.StatusIdle || !bytes.Equal(leaf.Key, key) {
		c.lac.unlearnHash(lacHash)
		atomic.AddUint64(&c.stats.SpecRefutes, 1)
		c.noteSpec(key, "lac refuted: verification failed, unlearned")
		return nil, false
	}
	atomic.AddUint64(&c.stats.SpecHits, 1)
	c.noteSpec(key, "lac hit: leaf verified in one round trip")
	return leaf.Value, true
}

// lacHash returns the key's leaf-address-cache hash (0 without a cache).
func (c *Client) lacHash(key []byte) uint64 {
	if c.lac == nil {
		return 0
	}
	return c.lac.hash(key)
}

// learn records a verified (key → leaf) binding in the leaf-address cache
// after a successful authoritative traversal, given the key's cache hash.
func (c *Client) learn(lacHash uint64, leaf *rart.Leaf) {
	if c.lac == nil || leaf.Units == 0 {
		return
	}
	c.lac.learnHash(lacHash, leaf.Addr, leaf.Units)
}

// noteSpec annotates a speculative fast-path decision on the armed trace
// recorder.
func (c *Client) noteSpec(key []byte, msg string) {
	if c.rec != nil {
		c.rec.Note(fabric.StageLeafSpec, c.eng.C.Clock(), msg)
	}
}

// searchAbsent finalizes a tree search that found nothing. In degraded
// mode (a node permanently lost) absence in the tree is not authoritative:
// degraded writes land only in the anchors, so confirm there.
func (c *Client) searchAbsent(key []byte) ([]byte, bool, error) {
	if !c.degraded() {
		return nil, false, nil
	}
	atomic.AddUint64(&c.stats.AnchorConfirms, 1)
	return c.anchorGet(key)
}

func (c *Client) noteCollision(key []byte, startLen int) {
	atomic.AddUint64(&c.stats.CollisionRetry, 1)
	if c.filter != nil {
		c.filter.Delete(PrefixFilterHash(key[:startLen]))
	}
	if c.rec != nil {
		c.rec.Notef(fabric.StageFilterProbe, c.eng.C.Clock(),
			"prefix collision at %d: unlearned, narrowing to %d", startLen, startLen-1)
	}
}

// Insert stores value for key, overwriting any existing value (paper §IV
// Insert). It reports whether the key already existed. Counters track
// validated operations only, so malformed arguments do not skew per-op
// metrics (same policy as Scan).
func (c *Client) Insert(key, value []byte) (bool, error) {
	if err := c.checkKey(key); err != nil {
		return false, err
	}
	atomic.AddUint64(&c.stats.Inserts, 1)
	return c.put(key, value, rart.PutUpsert)
}

// Update overwrites an existing key's value (paper §IV Update: in place
// when the new value fits the leaf, out of place otherwise). It reports
// whether the key was present.
func (c *Client) Update(key, value []byte) (bool, error) {
	if err := c.checkKey(key); err != nil {
		return false, err
	}
	atomic.AddUint64(&c.stats.Updates, 1)
	return c.put(key, value, rart.PutUpdateOnly)
}

func (c *Client) put(key, value []byte, mode rart.PutMode) (bool, error) {
	maxLen := len(key)
	var last error
	for bo := c.eng.Backoff(); ; {
		start, startLen, err := c.locate(key, maxLen)
		if err == nil {
			var existed bool
			existed, err = c.eng.PutFrom(start, key, value, mode, hooks{c})
			switch {
			case errors.Is(err, rart.ErrNeedParent) && startLen > 0:
				// A split is needed at or above the jump target. This is a
				// deterministic structural condition, not contention: re-route
				// immediately through a path that knows the parent, without
				// consuming retry budget or injecting backoff sleep.
				atomic.AddUint64(&c.stats.ParentRetries, 1)
				if c.rec != nil {
					c.rec.Notef(fabric.StagePublish, c.eng.C.Clock(),
						"need parent: re-routing via prefix %d, no backoff", startLen-1)
				}
				maxLen = startLen - 1
				continue
			case c.failoverable(err):
				return c.degradedPut(key, value, mode)
			case retriable(err) || errors.Is(err, rart.ErrNeedParent):
				atomic.AddUint64(&c.stats.Restarts, 1)
				c.noteRestart(err)
				maxLen = len(key)
			case err != nil:
				return false, err
			default:
				// One version, drawn after the tree commit, orders this write
				// in both record sets. Drawing it here is what lets a hot
				// promotion trust its own read: a write committing after
				// the promoter's read outranks the promoter's version.
				var version uint64
				if c.anchors != nil || c.hot != nil {
					version = c.nextVersion()
				}
				// Publish-to-completion to the replica set before the write
				// is acknowledged: from here on, losing any single replica
				// cannot lose this write. An update-only miss wrote nothing
				// to the tree, so nothing is published either — except in
				// degraded mode, where the key may live only in the anchors.
				if c.anchors != nil && (mode == rart.PutUpsert || existed || c.degraded()) {
					anchorExisted, aerr := c.anchorUpsert(key, value, version)
					if aerr != nil {
						return false, aerr
					}
					existed = existed || anchorExisted
				}
				// Same publish-to-completion contract for the hot replica
				// records: a promoted key's replicas carry this write (LWW)
				// before it is acknowledged, so no reader can verify a hit
				// on the superseded value afterwards.
				if c.hot != nil && (mode == rart.PutUpsert || existed) {
					if herr := c.hotRefresh(key, value, version); herr != nil {
						return false, herr
					}
				}
				return existed, nil
			}
		} else if c.failoverable(err) {
			return c.degradedPut(key, value, mode)
		} else if retriable(err) {
			atomic.AddUint64(&c.stats.Restarts, 1)
			c.noteRestart(err)
			maxLen = len(key)
		} else {
			return false, err
		}
		last = err
		if !rart.RetryWait(bo, err) {
			return false, exhausted("put", key, last)
		}
	}
}

// degradedPut serves a write whose tree path crosses a permanently lost
// node: the value goes to the anchor replicas only, acknowledged once the
// reachable replica set holds it. Update-only semantics are preserved by
// checking anchor presence first — an absent key stays absent. The tree
// copy is reconstructed offline (tree rebuild is future work; degraded
// reads are served from the anchors, so the gap is invisible).
func (c *Client) degradedPut(key, value []byte, mode rart.PutMode) (bool, error) {
	atomic.AddUint64(&c.stats.DegradedPuts, 1)
	if mode == rart.PutUpdateOnly {
		if _, ok, err := c.anchorGet(key); err != nil {
			return false, err
		} else if !ok {
			return false, nil
		}
	}
	return c.anchorUpsert(key, value, c.nextVersion())
}

// Delete removes key (paper §IV Delete), reporting whether it was present.
func (c *Client) Delete(key []byte) (bool, error) {
	if err := c.checkKey(key); err != nil {
		return false, err
	}
	atomic.AddUint64(&c.stats.Deletes, 1)
	maxLen := len(key)
	var last error
	for bo := c.eng.Backoff(); ; {
		start, startLen, err := c.locate(key, maxLen)
		if err == nil {
			var ok bool
			ok, err = c.eng.DeleteFrom(start, key, hooks{c})
			if err == nil && !ok && startLen > 0 {
				// The jump may have landed beside the key (hash collision):
				// deletes must not report absence on a collided path, so
				// confirm through a shallower start once. A confirm error
				// flows into the shared retry machinery below — a transient
				// fault here must restart the operation, never turn into a
				// fabricated "absent" answer.
				var leafCheck *rart.Leaf
				leafCheck, err = c.eng.SearchFrom(start, key, hooks{c})
				if err == nil && leafCheck != nil && !bytes.Equal(leafCheck.Key, key) {
					if cp := rart.CommonPrefixLen(leafCheck.Key, key); cp < startLen {
						c.noteCollision(key, startLen)
						maxLen = startLen - 1
						continue
					}
				}
			}
			if err == nil {
				if c.anchors != nil {
					// Remove the anchors before acknowledging, mirroring the
					// put path's publish-to-completion.
					anchorPresent, aerr := c.anchorRemove(key)
					if aerr != nil {
						return false, aerr
					}
					ok = ok || anchorPresent
				}
				// Hot replica records go before the ack too: a reader must
				// not verify a hit on a key whose delete was acknowledged.
				if c.hot != nil {
					if herr := c.hotRemove(key, true); herr != nil {
						return false, herr
					}
				}
				return ok, nil
			}
		}
		if c.failoverable(err) {
			// Tree path lost: delete the anchors only; presence is judged
			// from them (acked writes reached every replica).
			atomic.AddUint64(&c.stats.DegradedPuts, 1)
			c.noteRestart(err)
			return c.anchorRemove(key)
		}
		if !retriable(err) {
			return false, err
		}
		atomic.AddUint64(&c.stats.Restarts, 1)
		c.noteRestart(err)
		last = err
		maxLen = len(key)
		if !rart.RetryWait(bo, err) {
			return false, exhausted("delete", key, last)
		}
	}
}

// Scan returns up to limit key-value pairs in [lo, hi], ascending (paper
// §IV Scan: root-anchored traversal with doorbell-batched node and leaf
// reads). A nil or empty bound means unbounded on that side; limit 0 means
// unlimited. Malformed arguments fail with ErrInvalidScan before any round
// trip is paid.
func (c *Client) Scan(lo, hi []byte, limit int) ([]rart.KV, error) {
	if len(lo) == 0 {
		lo = nil
	}
	if len(hi) == 0 {
		hi = nil
	}
	if limit < 0 {
		return nil, fmt.Errorf("%w: negative limit %d", ErrInvalidScan, limit)
	}
	if lo != nil && hi != nil && bytes.Compare(lo, hi) > 0 {
		return nil, fmt.Errorf("%w: lo %q > hi %q", ErrInvalidScan, lo, hi)
	}
	// Counted after validation: rejected calls pay no round trip and must
	// not inflate per-op metrics.
	atomic.AddUint64(&c.stats.Scans, 1)
	if c.degraded() {
		// Degraded writes live only in the unordered anchor store, so a
		// tree traversal — even one that avoids the dead node — could
		// return stale values. Scans fail fast rather than lie; point
		// reads keep full coverage via the anchors.
		return nil, fmt.Errorf("%w: scan %q..%q while a memory node is lost (tree not authoritative)",
			ErrReplicaSetUnavailable, lo, hi)
	}
	var last error
	for bo := c.eng.Backoff(); ; {
		root, err := c.readRoot()
		if err == nil {
			var kvs []rart.KV
			kvs, err = c.eng.ScanFrom(root, lo, hi, limit, true)
			if err == nil {
				return kvs, nil
			}
		}
		if errors.Is(err, fabric.ErrNodeKilled) || errors.Is(err, fabric.ErrBreakerOpen) {
			// The traversal crossed a permanently lost (or breaker-
			// rejected) node. Anchors are unordered, so scans cannot fail
			// over to them; fail fast with a typed error instead of
			// sleeping out the backoff budget. Post-loss scans regain full
			// coverage only after a tree rebuild (future work).
			return nil, fmt.Errorf("%w: scan range %q..%q crosses a lost node (%v)",
				ErrReplicaSetUnavailable, lo, hi, err)
		}
		if !retriable(err) {
			return nil, err
		}
		atomic.AddUint64(&c.stats.Restarts, 1)
		c.noteRestart(err)
		last = err
		if !rart.RetryWait(bo, err) {
			return nil, exhausted("scan", lo, last)
		}
	}
}
