package consistenthash

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"sphinx/internal/mem"
)

func sampleKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		k := make([]byte, 8)
		binary.BigEndian.PutUint64(k, uint64(i)*0x9e3779b97f4a7c15)
		keys[i] = k
	}
	return keys
}

// Regression: virtual-point encoding must use the full 64-bit node ID.
// The original encoding kept only byte(n), so nodes 256 apart hashed to
// identical ring points and the tie-break (lower node wins) starved the
// higher ID of all load. Pre-fix, node 257 owns zero keys here.
func TestRingWideNodeIDs(t *testing.T) {
	r := New([]mem.NodeID{1, 257}, 0)
	keys := sampleKeys(2000)
	owned := map[mem.NodeID]int{}
	for _, k := range keys {
		owned[r.OwnerKey(k)]++
	}
	for _, n := range []mem.NodeID{1, 257} {
		if owned[n] == 0 {
			t.Fatalf("node %d owns zero of %d sampled keys: %v", n, len(keys), owned)
		}
		// With 128 virtual points per node the split should be in the
		// ballpark of 50/50; 20% is a generous floor that still catches
		// the collapsed-encoding failure (0%).
		if owned[n] < len(keys)/5 {
			t.Errorf("node %d owns only %d/%d keys — virtual points likely colliding", n, owned[n], len(keys))
		}
	}
}

func TestNewCheckedRejectsEmpty(t *testing.T) {
	if _, err := NewChecked(nil, 0); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("NewChecked(nil) = %v, want ErrNoNodes", err)
	}
}

func TestNewCheckedRejectsDuplicates(t *testing.T) {
	if _, err := NewChecked([]mem.NodeID{1, 2, 1}, 0); !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("NewChecked with duplicate = %v, want ErrDuplicateNode", err)
	}
}

// Property: adding one node to an N-node ring moves at most roughly
// 1/(N+1) of the key population, and every moved key moves TO the new
// node — no key changes owner between surviving nodes.
func TestWithNodeRemappingBound(t *testing.T) {
	keys := sampleKeys(10000)
	for _, n := range []int{2, 4, 8} {
		nodes := make([]mem.NodeID, n)
		for i := range nodes {
			nodes[i] = mem.NodeID(i + 1)
		}
		base := New(nodes, 0)
		added := mem.NodeID(n + 1)
		grown, err := base.WithNode(added)
		if err != nil {
			t.Fatalf("WithNode(%d): %v", added, err)
		}
		if grown.VirtualNodes() != base.VirtualNodes() {
			t.Fatalf("derived ring changed geometry: %d vs %d points per node",
				grown.VirtualNodes(), base.VirtualNodes())
		}
		moved := 0
		for _, k := range keys {
			before, after := base.OwnerKey(k), grown.OwnerKey(k)
			if before == after {
				continue
			}
			if after != added {
				t.Fatalf("n=%d: key moved %d→%d, not to the added node %d", n, before, after, added)
			}
			moved++
		}
		// Expected share is 1/(n+1); allow 2x slack for virtual-point
		// placement variance at 128 points per node.
		limit := 2 * len(keys) / (n + 1)
		if moved > limit {
			t.Errorf("n=%d: adding one node moved %d/%d keys (> limit %d)", n, moved, len(keys), limit)
		}
		if moved == 0 {
			t.Errorf("n=%d: added node claimed zero keys", n)
		}
		if _, err := grown.WithNode(added); !errors.Is(err, ErrDuplicateNode) {
			t.Errorf("WithNode of a present node = %v, want ErrDuplicateNode", err)
		}
	}
}

// Property: removing a node hands exactly its ranges to survivors — the
// drained node owns nothing afterwards and no key moves between two
// surviving nodes.
func TestWithoutNodeDrainsCompletely(t *testing.T) {
	keys := sampleKeys(10000)
	base := New([]mem.NodeID{1, 2, 3, 4}, 0)
	drained := mem.NodeID(3)
	shrunk, err := base.WithoutNode(drained)
	if err != nil {
		t.Fatalf("WithoutNode(%d): %v", drained, err)
	}
	if shrunk.Contains(drained) {
		t.Fatalf("drained node %d still on the ring", drained)
	}
	for _, k := range keys {
		before, after := base.OwnerKey(k), shrunk.OwnerKey(k)
		if after == drained {
			t.Fatalf("drained node %d still owns a key", drained)
		}
		if before != drained && before != after {
			t.Fatalf("untouched key moved %d→%d during drain of %d", before, after, drained)
		}
	}
	if _, err := base.WithoutNode(99); err == nil {
		t.Error("WithoutNode of an absent node did not error")
	}
	single := New([]mem.NodeID{7}, 0)
	if _, err := single.WithoutNode(7); !errors.Is(err, ErrNoNodes) {
		t.Errorf("draining the last node = %v, want ErrNoNodes", err)
	}
}

func TestOwnerDeterministic(t *testing.T) {
	r1 := New([]mem.NodeID{0, 1, 2}, 64)
	r2 := New([]mem.NodeID{0, 1, 2}, 64)
	for i := 0; i < 1000; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		if r1.OwnerKey(key) != r2.OwnerKey(key) {
			t.Fatalf("ring not deterministic for %q", key)
		}
	}
}

func TestOwnerInNodeSet(t *testing.T) {
	nodes := []mem.NodeID{3, 5, 9}
	r := New(nodes, 0)
	valid := map[mem.NodeID]bool{3: true, 5: true, 9: true}
	for i := 0; i < 1000; i++ {
		n := r.OwnerKey([]byte(fmt.Sprintf("k%d", i)))
		if !valid[n] {
			t.Fatalf("owner %d not in node set", n)
		}
	}
}

func TestBalance(t *testing.T) {
	nodes := []mem.NodeID{0, 1, 2}
	r := New(nodes, DefaultVirtualNodes)
	counts := make(map[mem.NodeID]int)
	const total = 30000
	for i := 0; i < total; i++ {
		counts[r.OwnerKey([]byte(fmt.Sprintf("prefix/%d", i)))]++
	}
	want := total / len(nodes)
	for n, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("node %d owns %d of %d keys (want ≈%d): imbalanced", n, c, total, want)
		}
	}
}

func TestSingleNode(t *testing.T) {
	r := New([]mem.NodeID{7}, 4)
	for i := 0; i < 100; i++ {
		if n := r.Owner(uint64(i) * 0x9e3779b9); n != 7 {
			t.Fatalf("single-node ring returned %d", n)
		}
	}
}

func TestStabilityUnderNodeAddition(t *testing.T) {
	// Adding a node must move only ~1/n of the keys (the consistent-hash
	// property that motivates its use for node placement).
	rSmall := New([]mem.NodeID{0, 1, 2}, DefaultVirtualNodes)
	rBig := New([]mem.NodeID{0, 1, 2, 3}, DefaultVirtualNodes)
	const total = 20000
	moved := 0
	for i := 0; i < total; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		if rSmall.OwnerKey(key) != rBig.OwnerKey(key) {
			moved++
		}
	}
	// Expect ≈ total/4 moved; fail above half.
	if moved > total/2 {
		t.Errorf("%d of %d keys moved on node addition (want ≈%d)", moved, total, total/4)
	}
	if moved == 0 {
		t.Error("no keys moved to the new node")
	}
}

func TestRemovalRemapsOnlyRemovedNodesKeys(t *testing.T) {
	// Vnode hashes depend only on the node ID, so a ring built over the
	// surviving node subset is exactly the ring with the dead node's
	// points removed. On removal, a key may change owner only if the
	// removed node owned it — everyone else's keys must stay put.
	full := New([]mem.NodeID{0, 1, 2, 3}, DefaultVirtualNodes)
	without := New([]mem.NodeID{0, 1, 3}, DefaultVirtualNodes)
	const removed = mem.NodeID(2)
	const total = 20000
	movedFromRemoved := 0
	for i := 0; i < total; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		before, after := full.OwnerKey(key), without.OwnerKey(key)
		if before == after {
			continue
		}
		if before != removed {
			t.Fatalf("key %q moved %d→%d though node %d was the one removed",
				key, before, after, removed)
		}
		if after == removed {
			t.Fatalf("key %q assigned to removed node %d", key, removed)
		}
		movedFromRemoved++
	}
	if movedFromRemoved == 0 {
		t.Error("no keys moved off the removed node (it owned none?)")
	}
}

func TestOwnersDistinctAndOrdered(t *testing.T) {
	nodes := []mem.NodeID{0, 1, 2, 3, 4}
	r := New(nodes, DefaultVirtualNodes)
	for i := 0; i < 5000; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		for n := 1; n <= len(nodes); n++ {
			owners := r.AppendOwnersKey(nil, key, n)
			if len(owners) != n {
				t.Fatalf("AppendOwnersKey(%q, %d) returned %d owners", key, n, len(owners))
			}
			if owners[0] != r.OwnerKey(key) {
				t.Fatalf("AppendOwnersKey(%q)[0] = %d, Owner = %d", key, owners[0], r.OwnerKey(key))
			}
			seen := make(map[mem.NodeID]bool, n)
			for _, o := range owners {
				if seen[o] {
					t.Fatalf("AppendOwnersKey(%q, %d) placed two replicas on node %d: %v",
						key, n, o, owners)
				}
				seen[o] = true
			}
			// Appending after existing entries yields the same list.
			if got := r.AppendOwnersKey([]mem.NodeID{owners[0]}, key, n); !slices.Equal(got[1:], owners) {
				t.Fatalf("AppendOwnersKey after %d = %v, want it followed by %v", owners[0], got, owners)
			}
		}
	}
}

func TestOwnersClampAndEmpty(t *testing.T) {
	r := New([]mem.NodeID{0, 1}, 8)
	if got := r.AppendOwners(nil, 42, 5); len(got) != 2 {
		t.Errorf("AppendOwners clamped to node count: got %v", got)
	}
	if got := r.AppendOwners(nil, 42, 0); got != nil {
		t.Errorf("AppendOwners(nil, h, 0) = %v, want nil", got)
	}
}

func TestEmptyRingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for empty node list")
		}
	}()
	New(nil, 8)
}

func TestNodesAccessor(t *testing.T) {
	nodes := []mem.NodeID{4, 2}
	r := New(nodes, 8)
	got := r.Nodes()
	if len(got) != 2 || got[0] != 4 || got[1] != 2 {
		t.Errorf("Nodes() = %v", got)
	}
}

func TestString(t *testing.T) {
	r := New([]mem.NodeID{0, 1}, 16)
	if s := r.String(); s != "ring(2 nodes, 32 points)" {
		t.Errorf("String() = %q", s)
	}
}
