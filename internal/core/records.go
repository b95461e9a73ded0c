// The versioned record layer: the one store that both the durability
// anchors (replica.go) and the hot read replicas (hotreplica.go) are built
// on.
//
// A RecordSet is a set of RACE-style hash tables, one per memory node,
// whose entries point at immutable records: (key, value, version) images.
// A key's records live on its first R eligible ring successors. Writers
// never modify a record in place. They write a fresh image and CAS the
// table entry over the old one only if their version is higher
// (last-writer-wins), so neither readers nor writers take a lock. Two
// writers that both find a key absent can both insert it, so a lookup
// reads every exact-key candidate, serves the highest version, and the
// next put on that node removes the losers.
//
// The two stores differ only in policy, which each RecordSet fixes once:
//
//	                   anchors                          hot replicas
//	tables             Placement.Anchors, per epoch     static, bootstrap nodes
//	target rule        first R healthy successors       first R successors with a table
//	retire old images  no: one write RT per swap saved  yes: route caches must refute
//	fabric stage       untagged (the caller's)          StageHotPub
package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"sphinx/internal/consistenthash"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/racehash"
	"sphinx/internal/wire"
)

// Record layout (immutable once written):
//
//	word 0: wire.NodeHeader — Status (Idle: servable, Locked: promotion
//	        placeholder, Invalid: retired), Type Node4, Depth = len(key),
//	        PrefixHash = the key's 42-bit hash. The hash table's segment
//	        split recovers entry placement by reading this word, so
//	        records must carry it exactly like inner nodes do.
//	word 1: version (LWW order: cluster-wide counter ‖ writer ID)
//	word 2: len(key) | len(value)<<16
//	24..  : key bytes, then value bytes
const (
	recVersionOff = 8
	recLensOff    = 16
	recDataOff    = 24
	// recSpecRead is the speculative first-read size for records of
	// unknown length: header plus a typical small-key/64-byte-value
	// payload in one round trip.
	recSpecRead = 256
	// recPutMaxRaces bounds how many lost same-key swap races one put
	// absorbs before giving up. Each loss means another writer landed a
	// record in the meantime, so starvation needs a pathological
	// single-key write storm.
	recPutMaxRaces = 16
)

// RecordSet is the cluster-wide descriptor of one versioned record store,
// built at bootstrap and shared read-only by every client.
type RecordSet struct {
	// R is the replica count: a key's records target its first R
	// eligible ring successors.
	R int
	// Health, when non-nil, makes targeting health-filtered (anchors):
	// dead nodes are skipped so acked writes land on live ones. When nil,
	// targeting is deterministic over the nodes that host a table (hot
	// replicas), so writers provably cover every record a reader can reach.
	Health *fabric.Health
	// Tables is a static per-node table map (hot replicas: nodes added by
	// elastic scale-out host none). Nil selects the epoch-tracked
	// Placement.Anchors, which membership changes carry forward.
	Tables map[mem.NodeID]racehash.Table
	// retire overwrites each superseded image's status word so a route
	// cache still holding its address refutes instead of serving it.
	// Nothing caches anchor addresses, so anchors skip the write.
	retire bool
	// stage tags the set's fabric traffic; StageNone leaves the caller's.
	stage fabric.Stage
	// name labels the set in errors.
	name string
}

// targets appends key's replica set under ring to dst: its first R
// distinct successors that pass the set's target rule (fewer when fewer
// pass).
func (rs *RecordSet) targets(dst []mem.NodeID, ring *consistenthash.Ring, key []byte) []mem.NodeID {
	start := len(dst)
	for _, o := range ring.OwnersKey(key, len(ring.Nodes())) {
		if rs.Health != nil && !rs.Health.Alive(o) {
			continue
		}
		if _, ok := rs.Tables[o]; rs.Tables != nil && !ok {
			continue
		}
		dst = append(dst, o)
		if len(dst)-start == rs.R {
			break
		}
	}
	return dst
}

// table returns node's table under placement p; epoch-tracked sets fall
// back to the in-transition previous epoch.
func (rs *RecordSet) table(p *Placement, node mem.NodeID) (racehash.Table, bool) {
	if rs.Tables != nil {
		t, ok := rs.Tables[node]
		return t, ok
	}
	t, ok := p.Anchors[node]
	if !ok && p.Prev != nil {
		t, ok = p.Prev.Anchors[node]
	}
	return t, ok
}

// bootstrapTables creates one RACE table per node, each sized for perNode
// entries. Runs at cluster-setup time with direct region access.
func bootstrapTables(f *fabric.Fabric, alloc *mem.Allocator, nodes []mem.NodeID, perNode int, what string) (map[mem.NodeID]racehash.Table, error) {
	tables := make(map[mem.NodeID]racehash.Table, len(nodes))
	for _, node := range nodes {
		t, err := racehash.Bootstrap(f.Region(node), alloc, node, perNode)
		if err != nil {
			return nil, fmt.Errorf("core: bootstrap %s table on node %d: %w", what, node, err)
		}
		tables[node] = t
	}
	return tables, nil
}

// nextVersion draws a fresh LWW version from the cluster-wide counter,
// tagged with the client ID for debuggability. One counter orders both
// record sets, so a fresh client's write outranks records written
// earlier by longer-lived clients, and any write that commits after a
// hot promoter's authoritative read outranks the promoter's version.
func (c *Client) nextVersion() uint64 {
	return c.shared.versions.Add(1)<<8 | uint64(c.eng.C.ID())&0xff
}

// recordHeader is word 0 of key's record image in status st.
func recordHeader(st wire.Status, key []byte) uint64 {
	return wire.NodeHeader{
		Status:     st,
		Type:       wire.Node4,
		Depth:      uint16(len(key)),
		PrefixHash: wire.PrefixHash42(key),
	}.Encode()
}

// encodeRecord builds one immutable record image.
func encodeRecord(st wire.Status, key, value []byte, version uint64) []byte {
	img := make([]byte, recDataOff+len(key)+len(value))
	binary.LittleEndian.PutUint64(img[0:], recordHeader(st, key))
	binary.LittleEndian.PutUint64(img[recVersionOff:], version)
	binary.LittleEndian.PutUint64(img[recLensOff:], uint64(len(key))|uint64(len(value))<<16)
	copy(img[recDataOff:], key)
	copy(img[recDataOff+len(key):], value)
	return img
}

// record is one decoded record image; key and value alias the buffer it
// was decoded from.
type record struct {
	entry   wire.HashEntry // the table entry pointing at the image
	status  wire.Status
	version uint64
	key     []byte
	value   []byte
	imgLen  int // length of the whole image
}

// decodeRecord parses a record image from buf, which holds at least the
// 24-byte header. ok is false for an impossible key length. When buf
// holds less than the whole image (imgLen > len(buf)), key and value are
// left nil.
func decodeRecord(buf []byte) (r record, ok bool) {
	lens := binary.LittleEndian.Uint64(buf[recLensOff:])
	keyLen, valLen := int(lens&0xffff), int(lens>>16)
	if keyLen == 0 || keyLen > wire.MaxDepth {
		return r, false
	}
	r.status = wire.DecodeNodeHeader(binary.LittleEndian.Uint64(buf)).Status
	r.version = binary.LittleEndian.Uint64(buf[recVersionOff:])
	r.imgLen = recDataOff + keyLen + valLen
	if r.imgLen <= len(buf) {
		r.key = buf[recDataOff : recDataOff+keyLen]
		r.value = buf[recDataOff+keyLen : r.imgLen]
	}
	return r, true
}

// retireRecord overwrites a superseded record's status word with
// StatusInvalid so any route cache still holding its address refutes on
// the next read instead of serving stale data. One 8-byte write.
func (c *Client) retireRecord(addr mem.Addr, key []byte) error {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], recordHeader(wire.StatusInvalid, key))
	return c.eng.C.Write(addr, w[:])
}

// recordStore is one client's handle on a RecordSet: the lazily built
// per-node table views plus lookup scratch. Single-goroutine, like its
// Client.
type recordStore struct {
	*RecordSet
	c     *Client
	views atomic.Pointer[viewSet]
	hits  []racehash.Candidate // LookupAppend scratch
	cands []record             // lookup result, valid until the next lookup
	bufs  [][]byte             // bufs[i] holds cands[i]'s image
	nodes []mem.NodeID         // targetsOf result
}

func newRecordStore(rs *RecordSet, c *Client) *recordStore {
	s := &recordStore{RecordSet: rs, c: c}
	s.views.Store(&viewSet{m: map[mem.NodeID]*racehash.View{}})
	return s
}

// view returns the client's view on node's table, built on first use
// (nodes can join after the client did); nil when the node has none.
func (s *recordStore) view(node mem.NodeID) *racehash.View {
	if v, ok := s.views.Load().m[node]; ok {
		return v
	}
	t, ok := s.table(s.c.members.Current(), node)
	if !ok {
		return nil
	}
	v := racehash.NewView(t, s.c.eng.C)
	s.c.storeView(&s.views, node, v)
	return v
}

// tag switches the client to the set's fabric stage and returns the
// stage to restore: defer c.SetStage(s.tag()).
func (s *recordStore) tag() fabric.Stage {
	if s.stage == fabric.StageNone {
		return s.c.eng.C.Stage()
	}
	return s.c.eng.C.SetStage(s.stage)
}

// retireImage retires a superseded image on retiring sets. Best effort: a
// failed retire leaves an unreferenced image that verification still
// checks key by key.
func (s *recordStore) retireImage(addr mem.Addr, key []byte) {
	if s.retire {
		_ = s.c.retireRecord(addr, key)
	}
}

// targetsOf resolves key's targets under the current placement, unioned
// mid-transition with the previous epoch's when withPrev is set: records
// published against the old ring must stay readable, refreshable and
// removable until cutover. The first curN entries come from the current
// ring, and their position is the replica rank. The result aliases store
// scratch.
func (s *recordStore) targetsOf(key []byte, withPrev bool) (ts []mem.NodeID, curN int) {
	p := s.c.members.Current()
	ts = s.targets(s.nodes[:0], p.Ring, key)
	curN = len(ts)
	if withPrev && p.Prev != nil {
	prev:
		for _, t := range s.targets(nil, p.Prev.Ring, key) {
			for _, u := range ts[:curN] {
				if u == t {
					continue prev
				}
			}
			ts = append(ts, t)
		}
	}
	s.nodes = ts
	return ts, curN
}

// read fetches and decodes the record at addr into buf, grown as needed
// and returned for reuse: a speculative read clamped at the region
// boundary, then a read of the whole image when it outgrows that.
func (s *recordStore) read(addr mem.Addr, buf []byte) (record, []byte, error) {
	fc := s.c.eng.C
	regionSize := fc.Fabric().RegionSize(addr.Node())
	size := uint64(recSpecRead)
	if addr.Offset()+size > regionSize {
		size = regionSize - addr.Offset()
	}
	if size < recDataOff {
		return record{}, buf, fmt.Errorf("core: %s record at %v truncated by region boundary", s.name, addr)
	}
	buf = growBuf(buf, int(size))
	if err := fc.Read(addr, buf); err != nil {
		return record{}, buf, err
	}
	r, ok := decodeRecord(buf)
	if !ok || uint64(r.imgLen) > regionSize {
		return record{}, buf, fmt.Errorf("core: malformed %s record at %v", s.name, addr)
	}
	if r.key == nil {
		buf = growBuf(buf, r.imgLen)
		if err := fc.Read(addr, buf); err != nil {
			return record{}, buf, err
		}
		r, _ = decodeRecord(buf)
	}
	return r, buf, nil
}

func growBuf(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// lookup reads every candidate record on node's table for key and
// returns the ones that store key exactly, with the index of the highest
// version (-1 when there are none). Reading them all, rather than
// stopping at the first match, is what makes duplicates left by racing
// inserts harmless. The result aliases store scratch and is valid until
// the next lookup.
func (s *recordStore) lookup(node mem.NodeID, key []byte) ([]record, int, error) {
	view := s.view(node)
	if view == nil {
		return nil, -1, fmt.Errorf("core: no %s table known for node %d", s.name, node)
	}
	defer s.c.eng.C.SetStage(s.tag())
	var err error
	s.hits, err = view.LookupAppend(s.hits[:0], racehash.PlacementHash(key), wire.FP12(key))
	if err != nil {
		return nil, -1, err
	}
	s.cands = s.cands[:0]
	best := -1
	for _, h := range s.hits {
		i := len(s.cands)
		if i == len(s.bufs) {
			s.bufs = append(s.bufs, nil)
		}
		r, buf, err := s.read(h.Entry.Addr, s.bufs[i])
		s.bufs[i] = buf
		if err != nil {
			return nil, -1, err
		}
		if !bytes.Equal(r.key, key) {
			continue
		}
		r.entry = h.Entry
		s.cands = append(s.cands, r)
		if best < 0 || r.version > s.cands[best].version {
			best = i
		}
	}
	return s.cands, best, nil
}

// writeImage writes a fresh record image on node and returns the table
// entry that is to point at it, plus the image length.
func (s *recordStore) writeImage(node mem.NodeID, st wire.Status, key, value []byte, version uint64) (wire.HashEntry, int, error) {
	img := encodeRecord(st, key, value, version)
	addr, err := s.c.eng.Alloc.Alloc(node, mem.ClassLeaf, uint64(len(img)))
	if err != nil {
		return wire.HashEntry{}, 0, err
	}
	if err := s.c.eng.C.Write(addr, img); err != nil {
		return wire.HashEntry{}, 0, err
	}
	return wire.HashEntry{Valid: true, FP: wire.FP12(key), Type: wire.Node4, Addr: addr}, len(img), nil
}

// putResult reports what one put left on a node.
type putResult struct {
	existed bool     // the node held a record of the key beforehand
	wrote   bool     // this put's image is now the key's record
	addr    mem.Addr // the key's servable (Idle) record afterwards: ours or a newer winner's
	imgLen  int      // that record's image length; 0 when the node holds nothing servable
}

// put publishes (key, value, version) on node unless the node already
// holds the key at a version ≥ version (last-writer-wins): write an
// immutable image, then CAS the table entry of the highest-version
// record over to it, or Insert it when the key is absent and insert is
// set. A swap-only put (insert false) never creates a key: absence means
// the key is not (or no longer) held there, and inserting could
// resurrect a concurrent delete.
//
// Competing writers race on the entry CAS without a lock. A loser
// re-reads and re-decides by version; it never waits for its stale
// expectation to reappear (View.Replace's wait loop assumes a
// lock-holding caller and would spin to exhaustion here). Duplicate
// records of the key are removed on the way out.
func (s *recordStore) put(node mem.NodeID, key, value []byte, version uint64, insert bool) (res putResult, err error) {
	defer s.c.eng.C.SetStage(s.tag())
	var entry wire.HashEntry
	imgLen := 0
	// An image written but never published is retired on retiring sets,
	// so it cannot float in memory as a live-looking Idle record. The
	// bump allocator cannot reclaim it either way.
	defer func() {
		if imgLen != 0 && !res.wrote {
			s.retireImage(entry.Addr, key)
		}
	}()
	h42 := racehash.PlacementHash(key)
	for attempt := 0; attempt < recPutMaxRaces; attempt++ {
		cands, best, err := s.lookup(node, key)
		if err != nil {
			return res, err
		}
		res.existed = best >= 0
		if best >= 0 && cands[best].version >= version {
			// A newer write already won; last-writer-wins keeps it.
			if b := cands[best]; b.status == wire.StatusIdle {
				_ = s.drop(node, key, cands, best) // best effort: the next put retries
				res.addr, res.imgLen = b.entry.Addr, b.imgLen
			}
			return res, nil
		}
		if best < 0 && !insert {
			return res, nil
		}
		if imgLen == 0 {
			// The record is immutable, so one image serves every retry.
			if entry, imgLen, err = s.writeImage(node, wire.StatusIdle, key, value, version); err != nil {
				return res, err
			}
		}
		if best < 0 {
			err = s.view(node).Insert(h42, entry, s.c.eng.Alloc)
		} else {
			var won bool
			if won, err = s.view(node).SwapIfPresent(h42, cands[best].entry, entry); err == nil && !won {
				// Lost the swap race: a concurrent writer replaced the entry
				// between our read and our CAS. Re-read and re-decide.
				continue
			}
		}
		if err != nil {
			return res, err
		}
		if best >= 0 {
			s.retireImage(cands[best].entry.Addr, key)
		}
		_ = s.drop(node, key, cands, best) // best effort: the next put retries
		res.wrote, res.addr, res.imgLen = true, entry.Addr, imgLen
		return res, nil
	}
	return res, fmt.Errorf("%w: %s put for %q after %d attempts lost every swap race",
		ErrRetriesExhausted, s.name, key, recPutMaxRaces)
}

// drop removes every candidate but cands[keep] (keep -1: all of them) from
// node's table, retiring each removed image on retiring sets. The removes
// are CAS-exact, so an entry a concurrent writer already replaced stays.
// Stops at the first error.
func (s *recordStore) drop(node mem.NodeID, key []byte, cands []record, keep int) error {
	h42 := racehash.PlacementHash(key)
	for i := range cands {
		if i == keep {
			continue
		}
		if err := s.view(node).Remove(h42, cands[i].entry); err != nil {
			return err
		}
		s.retireImage(cands[i].entry.Addr, key)
	}
	return nil
}

// remove deletes every record of key on node, reporting whether the node
// held any.
func (s *recordStore) remove(node mem.NodeID, key []byte) (bool, error) {
	defer s.c.eng.C.SetStage(s.tag())
	cands, _, err := s.lookup(node, key)
	if err != nil {
		return false, err
	}
	return len(cands) > 0, s.drop(node, key, cands, -1)
}

// replicateTally counts the outcomes of rereplicate walks.
type replicateTally struct {
	scanned, copied, removed uint64
	// unread counts records the walk could not read: replaced
	// concurrently, or a transient fault. The next walk sees the survivor.
	unread uint64
	// unsettled counts failed target puts and source removals, plus
	// whatever failed walks the caller adds.
	unsettled uint64
}

// rereplicate walks src's table and LWW-republishes every record onto the
// key's other targets under ring, recreating missing replicas and
// replacing older ones. With evict, src's own copy is then removed when
// src is no longer one of the key's targets and every target took the
// copy: remove after copy, so the replica count never dips mid-transition.
//
// The walk is a best-effort snapshot under concurrent splits, and every
// step is idempotent, so callers judge convergence across walks.
func (s *recordStore) rereplicate(src mem.NodeID, ring *consistenthash.Ring, evict bool, t *replicateTally) error {
	view := s.view(src)
	if view == nil {
		return fmt.Errorf("core: no %s table known for node %d", s.name, src)
	}
	var ts []mem.NodeID
	return view.Walk(func(e wire.HashEntry) error {
		// A fresh buffer per record: the puts below reuse the lookup scratch.
		r, _, err := s.read(e.Addr, nil)
		if err != nil {
			t.unread++
			return nil
		}
		t.scanned++
		inTargets, settled := false, true
		ts = s.targets(ts[:0], ring, r.key)
		for _, n := range ts {
			if n == src {
				inTargets = true
				continue
			}
			res, err := s.put(n, r.key, r.value, r.version, true)
			if err != nil {
				settled = false
				t.unsettled++
				continue
			}
			if res.wrote {
				t.copied++
			}
		}
		if evict && !inTargets && settled {
			if err := view.Remove(racehash.PlacementHash(r.key), e); err != nil {
				t.unsettled++
			} else {
				t.removed++
			}
		}
		return nil
	})
}
