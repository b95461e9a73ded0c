// Package consistenthash implements the consistent-hashing ring Sphinx uses
// to spread ART nodes evenly across memory nodes (paper §III: "The ART
// Nodes of Sphinx are evenly distributed across MNs by consistent
// hashing"). Each Ring value is immutable and shared read-only by every
// client, so lookups are lock-free; elastic membership derives NEW rings
// (WithNode / WithoutNode) and swaps them in atomically at the placement
// layer rather than mutating a ring in place.
package consistenthash

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"sphinx/internal/mem"
	"sphinx/internal/wire"
)

// ErrNoNodes reports a ring built over an empty node list: a cluster
// without memory nodes cannot place anything.
var ErrNoNodes = errors.New("consistenthash: no memory nodes")

// ErrDuplicateNode reports a node list naming the same memory node twice,
// which would silently double-weight it on the ring.
var ErrDuplicateNode = errors.New("consistenthash: duplicate memory node")

// DefaultVirtualNodes is the number of ring points per memory node. A few
// hundred keeps the load imbalance between nodes within a few percent.
const DefaultVirtualNodes = 128

// Ring maps 64-bit placement hashes to memory nodes.
type Ring struct {
	points []point
	nodes  []mem.NodeID
}

type point struct {
	hash uint64
	node mem.NodeID
}

// New builds a ring over the given memory nodes with virtualNodes ring
// points each (0 selects DefaultVirtualNodes). It panics on an invalid
// node list; use NewChecked where a misconfiguration must surface as an
// error instead.
func New(nodes []mem.NodeID, virtualNodes int) *Ring {
	r, err := NewChecked(nodes, virtualNodes)
	if err != nil {
		panic(err)
	}
	return r
}

// NewChecked builds a ring over the given memory nodes with virtualNodes
// ring points each (0 selects DefaultVirtualNodes). It rejects an empty
// node list (ErrNoNodes) and a list naming the same node twice
// (ErrDuplicateNode).
func NewChecked(nodes []mem.NodeID, virtualNodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, ErrNoNodes
	}
	seen := make(map[mem.NodeID]struct{}, len(nodes))
	for _, n := range nodes {
		if _, dup := seen[n]; dup {
			return nil, fmt.Errorf("%w: node %d listed twice", ErrDuplicateNode, uint64(n))
		}
		seen[n] = struct{}{}
	}
	if virtualNodes <= 0 {
		virtualNodes = DefaultVirtualNodes
	}
	r := &Ring{nodes: append([]mem.NodeID(nil), nodes...)}
	// Each virtual point hashes the full 64-bit node ID plus the point
	// index. (An earlier encoding kept only the low byte of the ID, so
	// nodes 256 apart collided on every point and stacked their load.)
	var buf [16]byte
	for _, n := range nodes {
		binary.LittleEndian.PutUint64(buf[0:], uint64(n))
		for v := 0; v < virtualNodes; v++ {
			binary.LittleEndian.PutUint64(buf[8:], uint64(v))
			r.points = append(r.points, point{hash: wire.Hash64Seed(buf[:], 4), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// VirtualNodes reports the ring's points-per-node count, so a derived
// ring (WithNode / WithoutNode) can keep the original's geometry.
func (r *Ring) VirtualNodes() int {
	if len(r.nodes) == 0 {
		return DefaultVirtualNodes
	}
	return len(r.points) / len(r.nodes)
}

// WithNode derives a new ring with node n added. Because every node's
// virtual points depend only on its own ID, all surviving points keep
// their positions: only the key ranges claimed by n's new points change
// owner. Returns ErrDuplicateNode if n is already on the ring.
func (r *Ring) WithNode(n mem.NodeID) (*Ring, error) {
	nodes := append(append([]mem.NodeID(nil), r.nodes...), n)
	return NewChecked(nodes, r.VirtualNodes())
}

// WithoutNode derives a new ring with node n removed: n's ranges fall to
// their clockwise successors and no other key changes owner. Returns
// ErrNoNodes if n is the last node, or an error naming n if it is not on
// the ring.
func (r *Ring) WithoutNode(n mem.NodeID) (*Ring, error) {
	nodes := make([]mem.NodeID, 0, len(r.nodes))
	for _, m := range r.nodes {
		if m != n {
			nodes = append(nodes, m)
		}
	}
	if len(nodes) == len(r.nodes) {
		return nil, fmt.Errorf("consistenthash: node %d not on the ring", uint64(n))
	}
	return NewChecked(nodes, r.VirtualNodes())
}

// Contains reports whether node n is on the ring.
func (r *Ring) Contains(n mem.NodeID) bool {
	for _, m := range r.nodes {
		if m == n {
			return true
		}
	}
	return false
}

// Nodes returns the memory nodes on the ring.
func (r *Ring) Nodes() []mem.NodeID { return r.nodes }

// Owner returns the memory node owning the given placement hash: the first
// ring point clockwise from the hash.
func (r *Ring) Owner(hash uint64) mem.NodeID {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= hash })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// OwnerKey returns the memory node owning the given key (e.g., an inner
// node's full prefix).
func (r *Ring) OwnerKey(key []byte) mem.NodeID {
	return r.Owner(wire.Hash64Seed(key, 5))
}

// AppendOwners appends the hash's successor list to dst: the first n
// distinct memory nodes clockwise from the hash, in ring order. Its first
// element is always Owner(h); replicated placement writes to the whole
// list. n is clamped to the node count, so n = len(Nodes()) enumerates
// every node in failover-preference order. Distinctness is among the
// appended nodes only, so a caller with a scratch buffer pays no
// allocation.
func (r *Ring) AppendOwners(dst []mem.NodeID, hash uint64, n int) []mem.NodeID {
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	if n <= 0 {
		return dst
	}
	start := len(dst)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= hash })
	if i == len(r.points) {
		i = 0
	}
	for j := 0; j < len(r.points) && len(dst)-start < n; j++ {
		cand := r.points[(i+j)%len(r.points)].node
		dup := false
		for _, o := range dst[start:] {
			if o == cand {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, cand)
		}
	}
	return dst
}

// AppendOwnersKey appends the key's successor list to dst: the first n
// distinct memory nodes clockwise from the key's placement hash.
func (r *Ring) AppendOwnersKey(dst []mem.NodeID, key []byte, n int) []mem.NodeID {
	return r.AppendOwners(dst, wire.Hash64Seed(key, 5), n)
}

// String summarizes the ring for diagnostics.
func (r *Ring) String() string {
	return fmt.Sprintf("ring(%d nodes, %d points)", len(r.nodes), len(r.points))
}
