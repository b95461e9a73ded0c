package main

import (
	"encoding/binary"
	"fmt"
	"math"
)

// unknown marks a key whose last write failed: the store may hold either
// the old or the new value, so reads of it are not checked.
const unknown = math.MaxUint64

func keyHash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range key {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// encodeValue writes key's value at version ver into dst. Values carry
// their own provenance so that a Get can be checked without storing them:
// bytes [0,8) hold the version, [8,16) a hash of the key, and the last 8
// bytes the two XORed together (catching a torn or truncated image). The
// bytes in between are a filler, left as they are.
func encodeValue(dst, key []byte, ver uint64) {
	h := keyHash(key)
	binary.LittleEndian.PutUint64(dst, ver)
	binary.LittleEndian.PutUint64(dst[8:], h)
	binary.LittleEndian.PutUint64(dst[len(dst)-8:], ver^h)
}

// model is the serial oracle: the version of the last acknowledged write
// of every key (0 = absent). The benchmark issues one op at a time, so the
// last acked write is the only value a correct Get may return.
type model struct {
	valueSize int
	ver       []uint64
	last      uint64 // last version handed out
}

func newModel(valueSize, keys int) *model {
	return &model{valueSize: valueSize, ver: make([]uint64, keys)}
}

// grow makes room for fresh key slots up to n.
func (m *model) grow(n int) {
	for len(m.ver) < n {
		m.ver = append(m.ver, 0)
	}
}

func (m *model) nextVersion() uint64 {
	m.last++
	return m.last
}

// checkGet returns nil when (v, ok) is exactly what the last acked write
// of key idx left behind.
func (m *model) checkGet(idx int, key, v []byte, ok bool) error {
	want := m.ver[idx]
	switch {
	case want == unknown:
		return nil
	case want == 0:
		if ok {
			return fmt.Errorf("get %q: found a value for an absent key", key)
		}
		return nil
	case !ok:
		return fmt.Errorf("get %q: missing, want version %d", key, want)
	case len(v) != m.valueSize:
		return fmt.Errorf("get %q: %d-byte value, want %d", key, len(v), m.valueSize)
	}
	ver := binary.LittleEndian.Uint64(v)
	h := binary.LittleEndian.Uint64(v[8:])
	switch {
	case h != keyHash(key) || binary.LittleEndian.Uint64(v[len(v)-8:]) != ver^h:
		return fmt.Errorf("get %q: value belongs to another key or is torn", key)
	case ver != want:
		return fmt.Errorf("get %q: version %d, want %d (stale)", key, ver, want)
	}
	return nil
}

// checkFound compares an Update's found flag with the model.
func (m *model) checkFound(idx int, key []byte, found bool) error {
	want := m.ver[idx]
	if want == unknown || found == (want != 0) {
		return nil
	}
	return fmt.Errorf("update %q: found=%v, model says present=%v", key, found, want != 0)
}

// acked records the outcome of a write of version ver to key idx.
func (m *model) acked(idx int, ver uint64, err error) {
	if err != nil {
		m.ver[idx] = unknown
		return
	}
	m.ver[idx] = ver
}

// live counts the keys the model holds a value for.
func (m *model) live() int {
	n := 0
	for _, v := range m.ver {
		if v != 0 {
			n++
		}
	}
	return n
}
