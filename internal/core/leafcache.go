package core

import (
	"sync/atomic"

	"sphinx/internal/mem"
	"sphinx/internal/wire"
)

// lacSeed derives the leaf-address-cache hash from a full key; distinct
// from the filter seed (8) and the leaf checksum seeds (2, 3).
const lacSeed = 9

// lacWord packs one leaf-address-cache entry into a single uint64 so the
// cache needs no locks — the same whole-word atomic discipline the cuckoo
// filter buckets use:
//
//	[63]    present
//	[62:55] leaf size in 64-byte units (exact, so a speculative read
//	        fetches the whole leaf in one round trip)
//	[54:48] 7-bit key fingerprint (tags the slot's owner so an unlearn
//	        for key A cannot evict a fresher entry for key B)
//	[47:0]  packed leaf mem.Addr (node in [47:40], offset in [39:0])
//
// The zero word is "empty": a valid entry always has the present bit set,
// and no valid leaf ever lives at the null address.
const (
	lacPresentBit = uint64(1) << 63
	lacUnitsShift = 55
	lacFPShift    = 48
	lacFPMask     = uint64(0x7f)
	lacAddrMask   = (uint64(1) << 48) - 1
)

func packLACWord(addr mem.Addr, units uint8, fp uint64) uint64 {
	return lacPresentBit |
		uint64(units)<<lacUnitsShift |
		(fp&lacFPMask)<<lacFPShift |
		uint64(addr)&lacAddrMask
}

// LACStats counts leaf-address-cache maintenance events. Hit/refute
// outcomes are operation-level decisions and live in core.Stats; these are
// the cache's own bookkeeping.
type LACStats struct {
	Learns    uint64 // entries written (fresh or overwriting)
	Unlearns  uint64 // entries removed after a refuted speculative read
	Evictions uint64 // learns that displaced a live entry for another key
}

// Add returns s + t, field-wise.
func (s LACStats) Add(t LACStats) LACStats {
	s.Learns += t.Learns
	s.Unlearns += t.Unlearns
	s.Evictions += t.Evictions
	return s
}

// LeafCache is the per-CN speculative leaf-address cache (LAC): a
// direct-mapped, lock-free map from key hash to the leaf address the key
// was last found at, plus the leaf's exact size. A hit lets a warm Get
// issue one doorbell read straight at the leaf and verify in place —
// trust-but-verify, the same shape as the succinct filter cache, but for
// the whole traversal instead of the deepest prefix.
//
// Entries are single uint64 words accessed with atomic load/store/CAS, so
// all workers of one CN share the cache with no locks. The cache is only a
// hint: a wrong or stale entry costs one refuted read, never a wrong
// answer (verification is the leaf's checksum, status word and full-key
// comparison — see specGet in ops.go).
type LeafCache struct {
	words []uint64
	mask  uint64
	seed  uint64
	stats LACStats
}

// NewLeafCache creates a leaf-address cache with capacity for n entries
// (rounded up to a power of two; minimum 64).
func NewLeafCache(n int, seed uint64) *LeafCache {
	size := 64
	for size < n {
		size <<= 1
	}
	return &LeafCache{
		words: make([]uint64, size),
		mask:  uint64(size) - 1,
		seed:  seed,
	}
}

// NewLeafCacheBytes creates a leaf-address cache bounded by a CN-side
// memory budget (8 bytes per entry).
func NewLeafCacheBytes(budget uint64, seed uint64) *LeafCache {
	n := int(budget / 8)
	if n < 64 {
		n = 64
	}
	// Round down to a power of two so the cache never exceeds the budget.
	size := 64
	for size*2 <= n {
		size <<= 1
	}
	return NewLeafCache(size, seed)
}

// hashSeed is the Hash64Seed seed of this cache's key hash.
func (lc *LeafCache) hashSeed() uint64 { return lacSeed ^ lc.seed }

// hash returns the key hash every slot decision derives from.
func (lc *LeafCache) hash(key []byte) uint64 { return wire.Hash64Seed(key, lc.hashSeed()) }

// slotFP derives the slot index and fingerprint of a key from its hash:
// low bits index, bits above the table's width tag.
func (lc *LeafCache) slotFP(h uint64) (slot uint64, fp uint64) {
	return h & lc.mask, (h >> 48) & lacFPMask
}

// Lookup returns the cached leaf address and exact unit count for a key.
// A false return means the cache has no opinion; a true return is a hint
// that MUST be verified against the leaf image it resolves to.
func (lc *LeafCache) Lookup(key []byte) (addr mem.Addr, units uint8, ok bool) {
	return lc.lookupHash(lc.hash(key))
}

// lookupHash is Lookup given the key's hash.
func (lc *LeafCache) lookupHash(h uint64) (addr mem.Addr, units uint8, ok bool) {
	slot, fp := lc.slotFP(h)
	w := atomic.LoadUint64(&lc.words[slot])
	if w&lacPresentBit == 0 || (w>>lacFPShift)&lacFPMask != fp {
		return 0, 0, false
	}
	return mem.Addr(w & lacAddrMask), uint8(w >> lacUnitsShift), true
}

// Learn records that key was found at addr in a leaf of the given exact
// size. Direct-mapped: a colliding entry for another key is displaced
// (counted as an eviction).
func (lc *LeafCache) Learn(key []byte, addr mem.Addr, units uint8) {
	lc.learnHash(lc.hash(key), addr, units)
}

// learnHash is Learn given the key's hash.
func (lc *LeafCache) learnHash(h uint64, addr mem.Addr, units uint8) {
	slot, fp := lc.slotFP(h)
	next := packLACWord(addr, units, fp)
	prev := atomic.SwapUint64(&lc.words[slot], next)
	atomic.AddUint64(&lc.stats.Learns, 1)
	if prev&lacPresentBit != 0 && (prev>>lacFPShift)&lacFPMask != fp {
		atomic.AddUint64(&lc.stats.Evictions, 1)
	}
}

// Unlearn removes the entry for key after a refuted speculative read. The
// removal is a CAS on the exact observed word, so a concurrent Learn that
// already replaced the slot (fresher information) is never clobbered.
func (lc *LeafCache) Unlearn(key []byte) { lc.unlearnHash(lc.hash(key)) }

// unlearnHash is Unlearn given the key's hash.
func (lc *LeafCache) unlearnHash(h uint64) {
	slot, fp := lc.slotFP(h)
	w := atomic.LoadUint64(&lc.words[slot])
	if w&lacPresentBit == 0 || (w>>lacFPShift)&lacFPMask != fp {
		return
	}
	if atomic.CompareAndSwapUint64(&lc.words[slot], w, 0) {
		atomic.AddUint64(&lc.stats.Unlearns, 1)
	}
}

// Reset clears every entry with plain atomic stores. Concurrent Learns
// racing the sweep may be lost — acceptable for the one caller (the hot
// tracker's route flush on a membership change), where a lost entry only
// costs a relearn.
func (lc *LeafCache) Reset() {
	for i := range lc.words {
		atomic.StoreUint64(&lc.words[i], 0)
	}
}

// SizeBytes returns the cache's memory footprint.
func (lc *LeafCache) SizeBytes() uint64 { return uint64(len(lc.words)) * 8 }

// Entries returns the cache's slot capacity.
func (lc *LeafCache) Entries() int { return len(lc.words) }

// Occupancy returns the number of live entries and the slot capacity.
func (lc *LeafCache) Occupancy() (occupied, capacity uint64) {
	for i := range lc.words {
		if atomic.LoadUint64(&lc.words[i])&lacPresentBit != 0 {
			occupied++
		}
	}
	return occupied, uint64(len(lc.words))
}

// Stats returns a snapshot of the cache's maintenance counters.
func (lc *LeafCache) Stats() LACStats {
	return LACStats{
		Learns:    atomic.LoadUint64(&lc.stats.Learns),
		Unlearns:  atomic.LoadUint64(&lc.stats.Unlearns),
		Evictions: atomic.LoadUint64(&lc.stats.Evictions),
	}
}
