package wire

import (
	"bytes"
	"testing"
)

// FuzzDecodeLeaf feeds arbitrary bytes to the leaf decoder: it must never
// panic and never accept a buffer whose checksum does not match its
// content — the property the §III-C torn-read recovery depends on.
func FuzzDecodeLeaf(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 8))
	f.Add(make([]byte, 64))
	f.Add(EncodeLeaf(StatusIdle, []byte("key"), []byte("value")))
	f.Add(EncodeLeaf(StatusLocked, nil, nil))
	long := EncodeLeaf(StatusIdle, bytes.Repeat([]byte("k"), 100), bytes.Repeat([]byte("v"), 500))
	f.Add(long)
	corrupt := append([]byte(nil), long...)
	corrupt[20] ^= 0xff
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		key, value, _, ok := DecodeLeaf(data)
		if !ok {
			return
		}
		// Accepted images must re-encode to a checksum-consistent leaf
		// with identical content.
		round := EncodeLeaf(StatusIdle, key, value)
		k2, v2, _, ok2 := DecodeLeaf(round)
		if !ok2 || !bytes.Equal(k2, key) || !bytes.Equal(v2, value) {
			t.Fatalf("accepted leaf does not round-trip: %q %q", key, value)
		}
	})
}

// FuzzHeaderWords checks that arbitrary 8-byte words decode into headers
// and slots that re-encode into a word matching on all defined fields
// (spare bits excepted), without panics.
func FuzzHeaderWords(f *testing.F) {
	f.Add(uint64(0))
	f.Add(^uint64(0))
	f.Add(NodeHeader{Status: StatusLocked, Type: Node48, Depth: 300, PartialLen: 7, PrefixHash: 1 << 40}.Encode())
	f.Add(Slot{Present: true, Leaf: true, KeyByte: 200, Addr: 1 << 40}.Encode())

	f.Fuzz(func(t *testing.T, w uint64) {
		h := DecodeNodeHeader(w)
		if h.PartialLen <= MaxPartial { // encoder rejects out-of-range partials by panicking
			if got := DecodeNodeHeader(h.Encode()); got != h {
				t.Fatalf("header %+v did not survive re-encode: %+v", h, got)
			}
		}
		s := DecodeSlot(w)
		if got := DecodeSlot(s.Encode()); got != s {
			t.Fatalf("slot %+v did not survive re-encode: %+v", s, got)
		}
		e := DecodeHashEntry(w)
		if got := DecodeHashEntry(e.Encode()); got != e {
			t.Fatalf("entry %+v did not survive re-encode: %+v", e, got)
		}
		lh := DecodeLeafHeader(w)
		if lh.KeyLen <= MaxDepth && lh.ValLen <= MaxValueLen {
			if got := DecodeLeafHeader(lh.Encode()); got != lh {
				t.Fatalf("leaf header %+v did not survive re-encode: %+v", lh, got)
			}
		}
	})
}

// FuzzHashKernels checks the one-pass kernels against Hash64Seed: the
// multi-seed kernel for every seed (including counts that are not a
// multiple of its four lanes) and the incremental kernel for every
// prefix.
func FuzzHashKernels(f *testing.F) {
	f.Add([]byte("user@example.com"), uint64(9), uint8(5))
	f.Add([]byte{}, uint64(0), uint8(1))
	f.Add([]byte{0, 0xff, 7}, uint64(1<<63), uint8(9))
	f.Fuzz(func(t *testing.T, b []byte, seed uint64, n uint8) {
		seeds := make([]uint64, int(n%12))
		for i := range seeds {
			seeds[i] = seed + uint64(i)*0x632be59bd9b4e019
		}
		out := make([]uint64, len(seeds))
		Hash64Seeds(b, seeds, out)
		for i, s := range seeds {
			if want := Hash64Seed(b, s); out[i] != want {
				t.Fatalf("Hash64Seeds lane %d of %d (seed %#x) = %#x, Hash64Seed = %#x", i, len(seeds), s, out[i], want)
			}
		}
		pre := AppendPrefixHashes([]uint64{42}, b, seed)
		if len(pre) != 1+len(b) || pre[0] != 42 {
			t.Fatalf("AppendPrefixHashes returned %d hashes for %d bytes, or clobbered dst", len(pre)-1, len(b))
		}
		for l := 1; l <= len(b); l++ {
			if want := Hash64Seed(b[:l], seed); pre[l] != want {
				t.Fatalf("prefix %d: %#x, Hash64Seed = %#x", l, pre[l], want)
			}
		}
	})
}
