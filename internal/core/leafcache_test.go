package core

import (
	"fmt"
	"sync"
	"testing"

	"sphinx/internal/mem"
)

// TestLACWordPacking: the packed word must round-trip every field for
// representative corner values — the present bit, the 8-bit unit count,
// the 7-bit fingerprint and the full 48-bit address — and the zero word
// must never look like a valid entry.
func TestLACWordPacking(t *testing.T) {
	cases := []struct {
		addr  mem.Addr
		units uint8
		fp    uint64
	}{
		{mem.NewAddr(0, 64), 1, 0},
		{mem.NewAddr(1, 0), 1, 0x7f},
		{mem.NewAddr(255, mem.MaxOffset), 255, 0x55},
		{mem.NewAddr(3, 0xdead_beef), 17, 0x2a},
	}
	for _, tc := range cases {
		w := packLACWord(tc.addr, tc.units, tc.fp)
		if w&lacPresentBit == 0 {
			t.Errorf("pack(%v,%d,%#x): present bit clear", tc.addr, tc.units, tc.fp)
		}
		if got := mem.Addr(w & lacAddrMask); got != tc.addr {
			t.Errorf("pack(%v,%d,%#x): addr round-trips to %v", tc.addr, tc.units, tc.fp, got)
		}
		if got := uint8(w >> lacUnitsShift); got != tc.units {
			t.Errorf("pack(%v,%d,%#x): units round-trips to %d", tc.addr, tc.units, tc.fp, got)
		}
		if got := (w >> lacFPShift) & lacFPMask; got != tc.fp {
			t.Errorf("pack(%v,%d,%#x): fp round-trips to %#x", tc.addr, tc.units, tc.fp, got)
		}
	}
}

// TestLACLearnLookupUnlearn: the basic hint lifecycle, including that an
// unlearn is fingerprint-checked (an unlearn for key A must not remove a
// colliding slot now owned by key B) and that displacing another key's
// entry counts as an eviction.
func TestLACLearnLookupUnlearn(t *testing.T) {
	lc := NewLeafCache(64, 1)
	key := []byte("alpha")
	addr := mem.NewAddr(2, 4096)

	if _, _, ok := lc.Lookup(key); ok {
		t.Fatal("empty cache claims an opinion")
	}
	lc.Learn(key, addr, 3)
	gotAddr, gotUnits, ok := lc.Lookup(key)
	if !ok || gotAddr != addr || gotUnits != 3 {
		t.Fatalf("Lookup after Learn = (%v, %d, %v), want (%v, 3, true)", gotAddr, gotUnits, ok, addr)
	}

	// Re-learning the same key updates in place: no eviction counted.
	lc.Learn(key, addr, 5)
	if _, gotUnits, _ := lc.Lookup(key); gotUnits != 5 {
		t.Fatalf("re-Learn did not update units: got %d", gotUnits)
	}
	if st := lc.Stats(); st.Evictions != 0 {
		t.Fatalf("same-key re-learn counted %d evictions", st.Evictions)
	}

	// Find a key that collides with alpha's slot but carries a different
	// fingerprint; learning it must displace alpha and count an eviction.
	slotA, fpA := lc.slotFP(lc.hash(key))
	var other []byte
	for i := 0; ; i++ {
		cand := []byte(fmt.Sprintf("other-%d", i))
		if s, f := lc.slotFP(lc.hash(cand)); s == slotA && f != fpA {
			other = cand
			break
		}
	}
	lc.Learn(other, mem.NewAddr(1, 128), 2)
	if _, _, ok := lc.Lookup(key); ok {
		t.Fatal("displaced entry still answers")
	}
	if st := lc.Stats(); st.Evictions != 1 {
		t.Fatalf("eviction count = %d, want 1", st.Evictions)
	}

	// Unlearning the displaced key must NOT clobber the new owner.
	lc.Unlearn(key)
	if _, _, ok := lc.Lookup(other); !ok {
		t.Fatal("unlearn of a displaced key removed the slot's new owner")
	}
	lc.Unlearn(other)
	if _, _, ok := lc.Lookup(other); ok {
		t.Fatal("entry survives its own unlearn")
	}
	st := lc.Stats()
	if st.Unlearns != 1 {
		t.Fatalf("unlearn count = %d, want 1 (fp-mismatched unlearn must not count)", st.Unlearns)
	}
	if occupied, _ := lc.Occupancy(); occupied != 0 {
		t.Fatalf("occupancy = %d after full unlearn, want 0", occupied)
	}
}

// TestLACBytesBudget: the byte-budget constructor must never exceed its
// budget (power-of-two rounded DOWN) and must respect the 64-entry floor.
func TestLACBytesBudget(t *testing.T) {
	for _, budget := range []uint64{0, 100, 512, 8 << 10, 512 << 10, (512 << 10) + 8, 1 << 20} {
		lc := NewLeafCacheBytes(budget, 1)
		if lc.SizeBytes() > budget && budget >= 64*8 {
			t.Errorf("budget %d: cache uses %d bytes", budget, lc.SizeBytes())
		}
		if lc.Entries() < 64 {
			t.Errorf("budget %d: %d entries, want >= 64", budget, lc.Entries())
		}
		if n := lc.Entries(); n&(n-1) != 0 {
			t.Errorf("budget %d: %d entries not a power of two", budget, n)
		}
	}
	if got := NewLeafCacheBytes(512<<10, 1).Entries(); got != 64<<10 {
		t.Errorf("512 KiB budget = %d entries, want %d", got, 64<<10)
	}
}

// TestLACConcurrentChurn: all operations are single-word atomics; under
// -race, concurrent learns, unlearns and lookups over a colliding key set
// must be clean, and any lookup that returns ok must return a word some
// learner actually wrote (no torn reads).
func TestLACConcurrentChurn(t *testing.T) {
	lc := NewLeafCache(64, 1) // small: plenty of slot collisions
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := []byte(fmt.Sprintf("churn-%d", i%97))
				switch (w + i) % 3 {
				case 0:
					lc.Learn(key, mem.NewAddr(mem.NodeID(w), uint64(i+1)*64), uint8(w+1))
				case 1:
					lc.Unlearn(key)
				default:
					if addr, units, ok := lc.Lookup(key); ok {
						if addr == 0 || units == 0 || units > workers {
							t.Errorf("torn lookup: addr=%v units=%d", addr, units)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := lc.Stats()
	if st.Learns == 0 {
		t.Fatal("no learns recorded")
	}
}
