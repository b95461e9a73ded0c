package core

import (
	"fmt"
	"sync/atomic"

	"sphinx/internal/fabric"
	"sphinx/internal/racehash"
	"sphinx/internal/rart"
	"sphinx/internal/wire"
)

// locate finds the deepest inner node whose full prefix is a prefix of
// key, considering only prefixes of length ≤ maxLen (a false-positive
// retry shrinks maxLen, per §III-B). It returns the node and the prefix
// length the jump targeted (0 for the root).
//
// With the filter cache this is the paper's warm path: local existence
// checks pick the longest live prefix, then one hash-entry round trip and
// one node round trip. Without it (ablation / cold fallback), all prefix
// buckets are fetched in a single doorbell batch (§III-A).
func (c *Client) locate(key []byte, maxLen int) (*rart.Node, int, error) {
	if maxLen > len(key) {
		maxLen = len(key)
	}
	if c.opts.DisableFilter {
		return c.locateParallel(key, maxLen)
	}
	// ph[l-1] is PrefixFilterHash(key[:l]), all from one pass over the key.
	ph := wire.AppendPrefixHashes(c.prefixScratch[:0], key[:maxLen], sfcSeed)
	c.prefixScratch = ph
	var probes uint64
	for l := maxLen; l >= 1; l-- {
		prefix := key[:l]
		h := ph[l-1]
		probes++
		present, wasHot := c.filter.ContainsWasHot(h)
		if !present {
			continue
		}
		// The deepest prefix's pre-probe hotness bit seeds the hot-key
		// tracker (hotTouch reads this after the walk): a prefix the SFC
		// already marked recently-used corroborates skew.
		c.sfcWasHot = wasHot
		if c.rec != nil {
			c.rec.Notef(fabric.StageFilterProbe, c.eng.C.Clock(),
				"sfc probe hit: prefix %d/%d, fetching", l, len(key))
		}
		n, err := c.fetchValidated(prefix)
		if err != nil {
			return nil, 0, err
		}
		if n != nil {
			atomic.AddUint64(&c.stats.FilterHits, 1)
			if c.index != nil {
				c.index.SFCHitDepth.Observe(uint64(l))
				c.index.SFCProbes.Observe(probes)
			}
			return n, l, nil
		}
		// The filter claimed a prefix the index does not have: unlearn it
		// and retry shorter (paper §III-B false-positive handling).
		atomic.AddUint64(&c.stats.FalsePositives, 1)
		c.filter.Delete(h)
		if c.rec != nil {
			c.rec.Notef(fabric.StageFilterProbe, c.eng.C.Clock(),
				"sfc false positive at prefix %d: unlearned", l)
		}
	}
	atomic.AddUint64(&c.stats.RootStarts, 1)
	if c.index != nil {
		c.index.SFCProbes.Observe(probes)
	}
	if c.rec != nil {
		c.rec.Note(fabric.StageFilterProbe, c.eng.C.Clock(), "sfc miss on all prefixes: root start")
	}
	root, err := c.readRoot()
	return root, 0, err
}

// fetchValidated looks the prefix up in the inner node hash table, reads
// all fingerprint-matching candidate nodes in one doorbell batch, and
// returns the first that passes the metadata checks of Fig. 3: live
// status, matching depth and matching 42-bit full-prefix hash. Stale
// entries pointing at retired nodes are removed opportunistically.
//
// During a membership transition, a miss on the current epoch's table
// falls back to the previous owner's table: an entry the migrator has
// not moved yet is still authoritative there.
func (c *Client) fetchValidated(prefix []byte) (*rart.Node, error) {
	p := c.members.Current()
	n, err := c.fetchValidatedIn(c.viewOf(c.placeIn(p, prefix)), prefix)
	if n != nil || err != nil {
		return n, err
	}
	if prev := c.prevViewFor(p, prefix); prev != nil {
		n, err = c.fetchValidatedIn(prev, prefix)
		if n != nil && err == nil {
			atomic.AddUint64(&c.stats.EpochFallbacks, 1)
		}
	}
	return n, err
}

func (c *Client) fetchValidatedIn(view *racehash.View, prefix []byte) (*rart.Node, error) {
	if view == nil {
		return nil, nil
	}
	defer c.eng.C.SetStage(c.eng.C.SetStage(fabric.StageHashRead))
	h42 := racehash.PlacementHash(prefix)
	fp := wire.FP12(prefix)
	cands, err := view.LookupAppend(c.candScratch[:0], h42, fp)
	c.candScratch = cands
	if err != nil {
		return nil, err
	}
	if c.index != nil {
		c.index.INHTCandidates.Observe(uint64(len(cands)))
	}
	if len(cands) == 0 {
		return nil, nil
	}
	nodes, err := c.readCandidates(cands)
	if err != nil {
		return nil, err
	}
	var found *rart.Node
	for i, n := range nodes {
		if n == nil {
			continue
		}
		switch {
		case n.Hdr.Status == wire.StatusInvalid:
			// Retired by a type switch whose table update this entry
			// predates; clean it up so future lookups stay single-read.
			atomic.AddUint64(&c.stats.StaleEntries, 1)
			if err := view.Remove(h42, cands[i].Entry); err != nil {
				return nil, err
			}
		case !c.validPrefixNode(n, prefix):
			// The 12-bit entry fingerprint matched, but the node's depth or
			// 42-bit full-prefix hash did not: a hash-table-level
			// fingerprint collision, paid for with a wasted node read.
			atomic.AddUint64(&c.stats.FPMismatches, 1)
		case found == nil:
			found = n
		}
	}
	return found, nil
}

// validPrefixNode applies the §III-B metadata checks.
func (c *Client) validPrefixNode(n *rart.Node, prefix []byte) bool {
	return int(n.Hdr.Depth) == len(prefix) && n.Hdr.PrefixHash == wire.PrefixHash42(prefix)
}

// readCandidates fetches candidate inner nodes in one doorbell batch.
// Entries whose size hint proved stale are re-read individually. The
// returned slice is client-owned scratch, valid until the next locate step.
func (c *Client) readCandidates(cands []racehash.Candidate) ([]*rart.Node, error) {
	defer c.eng.C.SetStage(c.eng.C.SetStage(fabric.StageNodeRead))
	ops := c.opScratch[:0]
	bufs := c.bufScratch[:0]
	for _, cand := range cands {
		var buf []byte
		ops, buf = c.eng.AppendNodeRead(ops, cand.Entry.Addr, cand.Entry.Type)
		bufs = append(bufs, buf)
	}
	c.opScratch, c.bufScratch = ops, bufs
	if err := c.eng.C.Batch(ops); err != nil {
		for _, buf := range bufs {
			c.eng.ReleaseBuf(buf)
		}
		return nil, err
	}
	nodes := c.nodeScratch[:0]
	for i, cand := range cands {
		n, err := rart.Decode(cand.Entry.Addr, bufs[i])
		c.eng.ReleaseBuf(bufs[i])
		if err != nil {
			// Stale size hint or garbage behind a collided entry: retry
			// once at full fidelity, and treat a second failure as a
			// non-candidate rather than an operation error.
			if n, err = c.eng.ReadNode(cand.Entry.Addr, cand.Entry.Type); err != nil {
				n = nil
			}
		}
		nodes = append(nodes, n)
	}
	c.nodeScratch = nodes
	return nodes, nil
}

// locateParallel is the filter-less path: read the candidate buckets of
// every prefix of the key in one doorbell batch (Θ(L) entries, one round
// trip — §III-A), then fetch the deepest candidate node.
func (c *Client) locateParallel(key []byte, maxLen int) (*rart.Node, int, error) {
	defer c.eng.C.SetStage(c.eng.C.SetStage(fabric.StageHashRead))
	type pending struct {
		l    int
		view *racehash.View
		h42  uint64
		fp   uint16
		read *racehash.PreparedRead
	}
	pendings := make([]pending, 0, maxLen)
	var ops []fabric.Op
	for l := 1; l <= maxLen; l++ {
		prefix := key[:l]
		view := c.viewFor(prefix)
		p, err := view.Prepare(racehash.PlacementHash(prefix))
		if err != nil {
			return nil, 0, err
		}
		pendings = append(pendings, pending{
			l: l, view: view,
			h42: racehash.PlacementHash(prefix), fp: wire.FP12(prefix),
			read: p,
		})
		ops = p.AppendOps(ops)
	}
	if len(ops) > 0 {
		if err := c.eng.C.Batch(ops); err != nil {
			return nil, 0, err
		}
	}
	atomic.AddUint64(&c.stats.FilterFallbacks, 1)

	// Deepest first: validate the bucket read, collect candidates, fetch.
	for i := len(pendings) - 1; i >= 0; i-- {
		p := pendings[i]
		cands := p.read.Candidates(p.fp)
		if !p.read.Valid() {
			// Stale directory cache for this prefix: redo just this one.
			fresh, err := p.view.Lookup(p.h42, p.fp)
			if err != nil {
				return nil, 0, err
			}
			cands = fresh
		}
		if len(cands) == 0 {
			continue
		}
		nodes, err := c.readCandidates(cands)
		if err != nil {
			return nil, 0, err
		}
		for _, n := range nodes {
			if n != nil && n.Hdr.Status != wire.StatusInvalid && c.validPrefixNode(n, key[:p.l]) {
				return n, p.l, nil
			}
		}
	}
	atomic.AddUint64(&c.stats.RootStarts, 1)
	root, err := c.readRoot()
	return root, 0, err
}

func (c *Client) readRoot() (*rart.Node, error) {
	n, err := c.eng.ReadNode(c.shared.Root, wire.Node256)
	if err != nil {
		return nil, fmt.Errorf("core: reading root: %w", err)
	}
	return n, nil
}
