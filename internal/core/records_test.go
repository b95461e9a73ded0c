package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"sphinx/internal/fabric"
	"sphinx/internal/racehash"
	"sphinx/internal/wire"
)

// observeFunc adapts a function to fabric.BatchObserver.
type observeFunc func(fabric.BatchEvent)

func (f observeFunc) ObserveBatch(ev fabric.BatchEvent) { f(ev) }

// TestAnchorDuplicateRecordsServeNewest pins the duplicate-record rule of
// the versioned record layer. Two writers that both miss on a fresh key
// both insert, leaving two records for the key; bucket order need not
// follow version order. A read must serve the highest version wherever
// it sits, and the next put must remove the loser.
func TestAnchorDuplicateRecordsServeNewest(t *testing.T) {
	f, shared := newReplicatedCluster(t, 3, fabric.InstantConfig(), 1000)
	c := newTestClient(f, shared, Options{})
	key := []byte("duplicated-key")
	h42, fp := racehash.PlacementHash(key), wire.FP12(key)
	// Planted versions stay below every version the counter draws.
	planted := []struct {
		value   string
		version uint64
	}{{"older", 1}, {"newer", 2}}
	for _, node := range shared.FT.targets(nil, shared.Ring, key) {
		view := c.anchors.view(node)
		for _, p := range planted {
			e, _, err := c.anchors.writeImage(node, wire.StatusIdle, key, []byte(p.value), p.version)
			if err != nil {
				t.Fatal(err)
			}
			if err := view.Insert(h42, e, c.eng.Alloc); err != nil {
				t.Fatal(err)
			}
		}
		hits, err := view.Lookup(h42, fp)
		if err != nil || len(hits) != 2 {
			t.Fatalf("node %d: %d candidates, err %v; want the 2 planted", node, len(hits), err)
		}
		r, _, err := c.anchors.read(hits[0].Entry.Addr, nil)
		if err != nil || string(r.value) != "older" {
			t.Fatalf("node %d: first candidate %q, err %v; the older record must come first", node, r.value, err)
		}
	}
	v, ok, err := c.anchorGet(key)
	if err != nil || !ok || string(v) != "newer" {
		t.Fatalf("anchorGet = %q, %v, %v; want the newer duplicate", v, ok, err)
	}
	if _, err := c.anchorUpsert(key, []byte("newest"), c.nextVersion()); err != nil {
		t.Fatal(err)
	}
	for _, node := range shared.FT.targets(nil, shared.Ring, key) {
		cands, best, err := c.anchors.lookup(node, key)
		if err != nil || len(cands) != 1 || string(cands[best].value) != "newest" {
			t.Fatalf("node %d after put: %d records, err %v; want only the newest", node, len(cands), err)
		}
	}
}

// TestRecordPutLosingEverySwapRaceIsTyped makes every swap of one put
// lose: after each batch the writer issues, a rival swaps a fresh
// older-version record over the key's entry, so the entry the writer
// read is always gone by the time it CASes. The put must give up with an
// error that wraps ErrRetriesExhausted and names the key and the attempt
// count.
func TestRecordPutLosingEverySwapRaceIsTyped(t *testing.T) {
	f, shared := newReplicatedCluster(t, 3, fabric.InstantConfig(), 1000)
	c := newTestClient(f, shared, Options{})
	rival := newTestClient(f, shared, Options{})
	key := []byte("contended-key")
	h42 := racehash.PlacementHash(key)
	node := shared.FT.targets(nil, shared.Ring, key)[0]
	plant := func() wire.HashEntry {
		e, _, err := rival.anchors.writeImage(node, wire.StatusIdle, key, []byte("rival"), 1)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	cur := plant()
	if err := rival.anchors.view(node).Insert(h42, cur, rival.eng.Alloc); err != nil {
		t.Fatal(err)
	}
	swaps := 0
	c.eng.C.SetObserver(observeFunc(func(fabric.BatchEvent) {
		next := plant()
		won, err := rival.anchors.view(node).SwapIfPresent(h42, cur, next)
		if err != nil || !won {
			t.Fatalf("rival swap: won=%v err=%v", won, err)
		}
		cur = next
		swaps++
	}))
	_, err := c.anchors.put(node, key, []byte("mine"), c.nextVersion(), true)
	c.eng.C.SetObserver(nil)
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("put under a permanent swap storm = %v; want ErrRetriesExhausted", err)
	}
	for _, want := range []string{fmt.Sprintf("%q", key), fmt.Sprintf("%d attempts", recPutMaxRaces)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	if swaps < recPutMaxRaces {
		t.Errorf("rival swapped %d times in %d attempts", swaps, recPutMaxRaces)
	}
}
