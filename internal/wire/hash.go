// Package wire defines the on-wire layouts shared by every component that
// touches remote memory: inner-node headers and slots, 64-byte-aligned
// leaves with checksums, and the 8-byte hash entries of the inner-node hash
// table (paper Fig. 3). It also provides the deterministic hash functions
// used for prefix hashing and fingerprints.
//
// Everything here is position-independent bytes: encode on the client,
// WRITE to a memory node, READ back anywhere, decode. All multi-byte fields
// are little-endian.
package wire

// Hash64 returns a 64-bit hash of b (FNV-1a with an avalanche finalizer).
// It is deterministic across runs so that experiments are reproducible.
func Hash64(b []byte) uint64 {
	return Hash64Seed(b, 0)
}

// FNV-1a parameters of Hash64Seed.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvSeed returns the FNV-1a starting state of the hash with this seed.
func fnvSeed(seed uint64) uint64 { return fnvOffset64 ^ (seed * 0x9e3779b97f4a7c15) }

// Hash64Seed returns a seeded 64-bit hash of b. Distinct seeds give
// independent hash functions, which the cuckoo structures rely on.
func Hash64Seed(b []byte, seed uint64) uint64 {
	h := fnvSeed(seed)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return Mix64(h)
}

// Hash64Seeds sets out[i] = Hash64Seed(b, seeds[i]) for every seed,
// reading b once per group of up to four seeds: the FNV-1a states are
// independent, so their multiplies overlap and four hashes cost about
// twice one. out must be at least as long as seeds.
func Hash64Seeds(b []byte, seeds, out []uint64) {
	_ = out[:len(seeds)]
	for len(seeds) >= 4 {
		out[0], out[1], out[2], out[3] = fnv4(b, seeds[0], seeds[1], seeds[2], seeds[3])
		seeds, out = seeds[4:], out[4:]
	}
	switch len(seeds) {
	case 3:
		out[0], out[1], out[2], _ = fnv4(b, seeds[0], seeds[1], seeds[2], 0)
	case 2:
		out[0], out[1] = fnv2(b, seeds[0], seeds[1])
	case 1:
		out[0] = Hash64Seed(b, seeds[0])
	}
}

// fnv4 is Hash64Seed of b under four seeds at once.
func fnv4(b []byte, s0, s1, s2, s3 uint64) (uint64, uint64, uint64, uint64) {
	h0, h1, h2, h3 := fnvSeed(s0), fnvSeed(s1), fnvSeed(s2), fnvSeed(s3)
	for _, c := range b {
		x := uint64(c)
		h0 = (h0 ^ x) * fnvPrime64
		h1 = (h1 ^ x) * fnvPrime64
		h2 = (h2 ^ x) * fnvPrime64
		h3 = (h3 ^ x) * fnvPrime64
	}
	return Mix64(h0), Mix64(h1), Mix64(h2), Mix64(h3)
}

// fnv2 is Hash64Seed of b under two seeds at once.
func fnv2(b []byte, s0, s1 uint64) (uint64, uint64) {
	h0, h1 := fnvSeed(s0), fnvSeed(s1)
	for _, c := range b {
		x := uint64(c)
		h0 = (h0 ^ x) * fnvPrime64
		h1 = (h1 ^ x) * fnvPrime64
	}
	return Mix64(h0), Mix64(h1)
}

// AppendPrefixHashes appends Hash64Seed(b[:l], seed) for l = 1..len(b)
// to dst, from one forward pass over b: FNV-1a's state after l bytes is
// the state the hash of b[:l] finalizes.
func AppendPrefixHashes(dst []uint64, b []byte, seed uint64) []uint64 {
	h := fnvSeed(seed)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
		dst = append(dst, Mix64(h))
	}
	return dst
}

// Mix64 is the splitmix64 finalizer: a cheap, high-quality avalanche used
// to derive independent bit fields (fingerprints, bucket indices) from one
// hash value.
func Mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// PrefixHashBits is the width of the full-prefix hash stored in every
// inner-node header (paper §III-B: "a 42-bit full prefix hash").
const PrefixHashBits = 42

// PrefixHash42 returns the truncated full-prefix hash stored in inner-node
// headers to detect fingerprint collisions after a filter false positive.
func PrefixHash42(prefix []byte) uint64 {
	return Hash64(prefix) >> (64 - PrefixHashBits)
}

// FPBits is the width of the hash-entry fingerprint (paper §III-B:
// "the hash entry includes a 12-bit hash fingerprint").
const FPBits = 12

// FP12 returns the 12-bit fingerprint of a prefix stored in hash entries.
// It is derived from a different seed than PrefixHash42 so the two checks
// fail independently.
func FP12(prefix []byte) uint16 {
	return uint16(Hash64Seed(prefix, 1) >> (64 - FPBits))
}
