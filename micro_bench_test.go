// Micro-benchmarks for the data structures under the index: these measure
// real CPU work (unlike the figure benchmarks, whose interesting output is
// virtual network time).
package sphinx_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"sphinx"

	"sphinx/internal/art"
	"sphinx/internal/core"
	"sphinx/internal/cuckoo"
	"sphinx/internal/dataset"
	"sphinx/internal/wire"
	"sphinx/internal/ycsb"
)

// sinkBool keeps filter lookups from being dead-code-eliminated.
var sinkBool bool

func BenchmarkCuckooInsert(b *testing.B) {
	f := cuckoo.New(b.N+1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Insert(wire.Mix64(uint64(i)))
	}
}

func BenchmarkCuckooContains(b *testing.B) {
	f := cuckoo.New(1<<16, 1)
	for i := 0; i < 1<<16; i++ {
		f.Insert(wire.Mix64(uint64(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Contains(wire.Mix64(uint64(i & (1<<16 - 1))))
	}
}

func BenchmarkZipfianDraw(b *testing.B) {
	z := ycsb.NewZipfian(1_000_000, ycsb.DefaultTheta)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.DrawScrambled(rng)
	}
}

func BenchmarkWireLeafEncode(b *testing.B) {
	key := []byte("james.garcia@gmail.com")
	val := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire.EncodeLeaf(wire.StatusIdle, key, val)
	}
}

func BenchmarkWireLeafDecode(b *testing.B) {
	buf := wire.EncodeLeaf(wire.StatusIdle, []byte("james.garcia@gmail.com"), make([]byte, 64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := wire.DecodeLeaf(buf); !ok {
			b.Fatal("decode failed")
		}
	}
}

func BenchmarkPrefixHash(b *testing.B) {
	key := []byte("james.garcia@gmail.com")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire.PrefixHash42(key)
	}
}

func BenchmarkLocalARTInsert(b *testing.B) {
	keys := dataset.GenerateEmail(100_000, 1)
	var t art.Tree
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Insert(keys[i%len(keys)], keys[i%len(keys)])
	}
}

func BenchmarkLocalARTGet(b *testing.B) {
	keys := dataset.GenerateEmail(100_000, 1)
	var t art.Tree
	for _, k := range keys {
		t.Insert(k, k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := t.Get(keys[i%len(keys)]); !ok {
			b.Fatal("missing key")
		}
	}
}

func BenchmarkLocalARTScan100(b *testing.B) {
	var t art.Tree
	for i := 0; i < 100_000; i++ {
		t.Insert([]byte(fmt.Sprintf("scan%07d", i)), []byte("v"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := []byte(fmt.Sprintf("scan%07d", (i*37)%90_000))
		n := 0
		t.Scan(lo, nil, func(k, v []byte) bool {
			n++
			return n < 100
		})
	}
}

func BenchmarkEmailGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dataset.GenerateEmail(1000, int64(i))
	}
}

// The end-to-end operation benchmarks run over TimingInstant so they
// measure CN-side CPU work and allocations (the -benchmem numbers the
// hot-path scratch buffers exist for), not virtual network time.

func benchCluster(b *testing.B, keys [][]byte) (*sphinx.ComputeNode, *sphinx.Session) {
	return benchClusterConfig(b, sphinx.Config{Timing: sphinx.TimingInstant}, keys)
}

func benchClusterConfig(b *testing.B, cfg sphinx.Config, keys [][]byte) (*sphinx.ComputeNode, *sphinx.Session) {
	b.Helper()
	cluster, err := sphinx.NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	cn := cluster.NewComputeNode()
	s := cn.NewSession()
	val := make([]byte, 64)
	for _, k := range keys {
		if err := s.Put(k, val); err != nil {
			b.Fatal(err)
		}
	}
	return cn, s
}

// Allocation budgets on the warm paths (go test -bench 'BenchmarkSphinx'
// -benchmem -benchtime 2000x): before the engine buffer free list, the
// single-backing-array leaf decode and the view-scratch lookup, GetWarm
// cost 23 allocs/op (1281 B); Put and Update 32 allocs/op (1670 B) each.
// After: GetWarm 6 allocs/op (586 B), Put and Update 9 allocs/op (874 B).
func BenchmarkSphinxGetWarm(b *testing.B) {
	keys := dataset.GenerateEmail(20_000, 1)
	_, s := benchCluster(b, keys)
	for _, k := range keys { // warm the filter and directory caches
		if _, ok, err := s.Get(k); err != nil || !ok {
			b.Fatal("warmup miss")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := s.Get(keys[i%len(keys)]); err != nil || !ok {
			b.Fatal("missing key")
		}
	}
}

// BenchmarkSphinxGetMiss reads over 3× more keys than the leaf-address
// cache has slots (8 Ki slots, 24k keys), in a fixed scrambled order, so
// most Gets miss the LAC and pay the locate path: the SFC probe over the
// key's prefixes, then the hash-entry, inner-node and leaf reads. It is
// the cheap regression check for that path's CPU and allocations.
func BenchmarkSphinxGetMiss(b *testing.B) {
	const slots = 8 << 10
	keys := dataset.GenerateEmail(3*slots, 1)
	_, s := benchClusterConfig(b, sphinx.Config{Timing: sphinx.TimingInstant, LeafCacheBytes: slots * 8}, keys)
	for _, k := range keys { // warm the filter and directory caches
		if _, ok, err := s.Get(k); err != nil || !ok {
			b.Fatal("warmup miss")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := s.Get(keys[(i*7919)%len(keys)]); err != nil || !ok {
			b.Fatal("missing key")
		}
	}
}

// BenchmarkSphinxGetWarmParallel scales the warm read path across
// goroutines, one session each (sessions are single-threaded by contract;
// the shared state under contention is the CN's filter cache and the
// fabric's virtual clock). Run with -cpu 1,4,8 to see the scaling curve.
func BenchmarkSphinxGetWarmParallel(b *testing.B) {
	keys := dataset.GenerateEmail(20_000, 1)
	cn, s := benchCluster(b, keys)
	for _, k := range keys { // warm the shared filter and directory caches
		if _, ok, err := s.Get(k); err != nil || !ok {
			b.Fatal("warmup miss")
		}
	}
	// RunParallel uses GOMAXPROCS goroutines (parallelism 1); hand each a
	// pre-warmed private session via an atomic ticket.
	sessions := make([]*sphinx.Session, runtime.GOMAXPROCS(0))
	for i := range sessions {
		sessions[i] = cn.NewSession()
		for j := 0; j < len(keys); j += 16 {
			if _, ok, err := sessions[i].Get(keys[j]); err != nil || !ok {
				b.Fatal("warmup miss")
			}
		}
	}
	var ticket atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		s := sessions[ticket.Add(1)-1]
		i := 0
		for pb.Next() {
			if _, ok, err := s.Get(keys[i%len(keys)]); err != nil || !ok {
				b.Error("missing key")
				return
			}
			i++
		}
	})
}

func BenchmarkSphinxPut(b *testing.B) {
	keys := dataset.GenerateEmail(20_000, 1)
	_, s := benchCluster(b, keys)
	val := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(keys[i%len(keys)], val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSphinxUpdate(b *testing.B) {
	keys := dataset.GenerateEmail(20_000, 1)
	_, s := benchCluster(b, keys)
	val := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, err := s.Update(keys[i%len(keys)], val); err != nil || !ok {
			b.Fatal(err)
		}
	}
}

// The FilterCache benchmarks compare the lock-free SFC against the
// mutex-guarded baseline (the same shim the sfc_mutex build tag selects)
// under goroutine contention. On a multicore box the lock-free Contains
// curve should scale near-linearly with -cpu while the mutex one stays
// flat; single-threaded (-cpu 1) the two should be within ~10%.

func benchFilterModes(b *testing.B, run func(b *testing.B, mode core.FilterCacheMode)) {
	for _, mode := range []core.FilterCacheMode{core.FilterLockFree, core.FilterMutex} {
		b.Run(mode.String(), func(b *testing.B) { run(b, mode) })
	}
}

func BenchmarkFilterCacheContainsParallel(b *testing.B) {
	benchFilterModes(b, func(b *testing.B, mode core.FilterCacheMode) {
		fc := core.NewFilterCacheMode(1<<16, 1, mode)
		for i := 0; i < 1<<16; i++ {
			fc.Insert(wire.Mix64(uint64(i)))
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := uint64(0)
			for pb.Next() {
				sinkBool = fc.Contains(wire.Mix64(i & (1<<16 - 1)))
				i++
			}
		})
	})
}

func BenchmarkFilterCacheInsertParallel(b *testing.B) {
	benchFilterModes(b, func(b *testing.B, mode core.FilterCacheMode) {
		fc := core.NewFilterCacheMode(1<<16, 1, mode)
		var lane atomic.Uint64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			// Distinct per-goroutine hash streams: sustained insert churn
			// (with evictions once warm — cache semantics) rather than the
			// all-duplicates fast path.
			base := lane.Add(1) << 40
			i := uint64(0)
			for pb.Next() {
				fc.Insert(wire.Mix64(base | i))
				i++
			}
		})
	})
}
