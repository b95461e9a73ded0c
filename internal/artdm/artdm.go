// Package artdm is "the original ART ported to DM" — the paper's naive
// baseline (§V-A): the adaptive radix tree lives on the memory nodes and
// every index operation traverses it from the root, paying one network
// round trip per tree level. Clients cache only the root address. Writes
// use the shared one-sided protocols of internal/rart; scans read nodes
// one at a time (no doorbell batching), which is what costs it 2.3–3.1×
// on YCSB-E in the paper's Fig. 4.
package artdm

import (
	"bytes"
	"errors"
	"fmt"

	"sphinx/internal/consistenthash"
	"sphinx/internal/fabric"
	"sphinx/internal/mem"
	"sphinx/internal/rart"
	"sphinx/internal/wire"
)

// Shared is the cluster-wide immutable description of one ART-on-DM index:
// everything a client needs to mount it.
type Shared struct {
	Root mem.Addr
	Ring *consistenthash.Ring
}

// Bootstrap creates an empty index across the fabric's memory nodes and
// returns its shared descriptor. Runs at cluster-setup time with direct
// region access.
func Bootstrap(f *fabric.Fabric, ring *consistenthash.Ring) (Shared, error) {
	alloc := mem.NewAllocator(f.Regions(), 0)
	home := ring.OwnerKey(nil)
	root, err := rart.BootstrapRoot(f.Region(home), alloc, home)
	if err != nil {
		return Shared{}, fmt.Errorf("artdm: bootstrap root: %w", err)
	}
	return Shared{Root: root, Ring: ring}, nil
}

// Client is one worker's handle on the index. Not safe for concurrent use;
// create one per worker goroutine.
type Client struct {
	shared Shared
	eng    *rart.Engine
}

// NewClient mounts the index for one fabric client.
func NewClient(shared Shared, c *fabric.Client, cfg rart.Config) *Client {
	alloc := mem.NewAllocator(c, 0)
	return &Client{shared: shared, eng: rart.NewEngine(c, alloc, shared.Ring, cfg)}
}

// Engine exposes the underlying engine (stats, fabric client).
func (c *Client) Engine() *rart.Engine { return c.eng }

// retriable reports whether an operation should re-run from the root.
func retriable(err error) bool {
	return errors.Is(err, rart.ErrRestart) || errors.Is(err, rart.ErrNeedParent) ||
		errors.Is(err, fabric.ErrTransient) || errors.Is(err, fabric.ErrTimeout)
}

func (c *Client) readRoot() (*rart.Node, error) {
	return c.eng.ReadNode(c.shared.Root, wire.Node256)
}

// Search returns the value for key.
func (c *Client) Search(key []byte) ([]byte, bool, error) {
	for bo := c.eng.Backoff(); ; {
		root, err := c.readRoot()
		var leaf *rart.Leaf
		if err == nil {
			leaf, err = c.eng.SearchFrom(root, key, rart.NopHooks{})
		}
		if retriable(err) {
			if rart.RetryWait(bo, err) {
				continue
			}
			return nil, false, fmt.Errorf("%w: artdm search for %q", rart.ErrRetriesExhausted, key)
		}
		if err != nil {
			return nil, false, err
		}
		if leaf == nil || !bytes.Equal(leaf.Key, key) {
			// A leaf on the key's path can hold a different key that
			// merely shares the prefix up to its edge.
			return nil, false, nil
		}
		return leaf.Value, true, nil
	}
}

// Insert stores value for key (upsert). It reports whether the key
// already existed.
func (c *Client) Insert(key, value []byte) (bool, error) {
	return c.put(key, value, rart.PutUpsert)
}

// Update overwrites the value of an existing key, reporting whether the
// key was present.
func (c *Client) Update(key, value []byte) (bool, error) {
	return c.put(key, value, rart.PutUpdateOnly)
}

func (c *Client) put(key, value []byte, mode rart.PutMode) (bool, error) {
	if len(key) == 0 || len(key) > wire.MaxDepth {
		return false, fmt.Errorf("artdm: key length %d out of range", len(key))
	}
	var last error
	for bo := c.eng.Backoff(); ; {
		root, err := c.readRoot()
		var existed bool
		if err == nil {
			existed, err = c.eng.PutFrom(root, key, value, mode, rart.NopHooks{})
		}
		if retriable(err) {
			last = err
			if rart.RetryWait(bo, err) {
				continue
			}
			return false, fmt.Errorf("%w: artdm put for %q (last: %v)", rart.ErrRetriesExhausted, key, last)
		}
		return existed, err
	}
}

// Delete removes key, reporting whether it was present.
func (c *Client) Delete(key []byte) (bool, error) {
	for bo := c.eng.Backoff(); ; {
		root, err := c.readRoot()
		var ok bool
		if err == nil {
			ok, err = c.eng.DeleteFrom(root, key, rart.NopHooks{})
		}
		if retriable(err) {
			if rart.RetryWait(bo, err) {
				continue
			}
			return false, fmt.Errorf("%w: artdm delete for %q", rart.ErrRetriesExhausted, key)
		}
		return ok, err
	}
}

// Scan returns up to limit keys in [lo, hi], ascending. The naive port
// reads one node per round trip — no doorbell batching.
func (c *Client) Scan(lo, hi []byte, limit int) ([]rart.KV, error) {
	for bo := c.eng.Backoff(); ; {
		root, err := c.readRoot()
		var kvs []rart.KV
		if err == nil {
			kvs, err = c.eng.ScanFrom(root, lo, hi, limit, false)
		}
		if err == nil {
			return kvs, nil
		}
		if !retriable(err) {
			return nil, err
		}
		if !rart.RetryWait(bo, err) {
			return nil, fmt.Errorf("%w: artdm scan", rart.ErrRetriesExhausted)
		}
	}
}
