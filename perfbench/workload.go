package main

import (
	"fmt"
	"math/rand"

	"sphinx"
	"sphinx/internal/dataset"
	"sphinx/internal/ycsb"
)

// workload is one named traffic mix of the benchmark. Every workload runs
// on the same cluster shape (see clusterConfig) so that a layer that is
// idle on one of them still shows its fixed cost there. Why each workload
// exists is recorded in README.md and BENCHMARK.json.
type workload struct {
	name string

	kind      dataset.Kind
	keys      int // loaded before the measured window
	valueSize int
	// theta > 0 draws keys from a scrambled Zipfian over the loaded keys;
	// 0 draws them uniformly over every key inserted so far.
	theta   float64
	readP   int // percent Get
	updateP int // percent Update; the rest are Inserts of fresh keys
	clients int // virtual clients (Sessions), round-robin over the CNs

	// opsPerSecond sizes the measured window: a run of --seconds S issues
	// exactly opsPerSecond*S operations, so every virtual-time figure of a
	// seed is reproducible while the wall time stays near S on the
	// reference 2-core host. warmOps is the warm-up pass before it.
	opsPerSecond int
	warmOps      int
}

// computeNodes is the CN count of every workload.
const computeNodes = 3

var workloads = []workload{
	// Uniform Gets over 3x the LAC's slots and far above the SFC budget:
	// most Gets pay the locate path (SFC probe, INHT read, inner node, leaf).
	{
		name: "uniform-read",
		kind: dataset.Email, keys: 200_000, valueSize: 64,
		readP: 100, clients: 16,
		opsPerSecond: 100_000, warmOps: 200_000,
	},
	// The only saturated workload: the Zipf head fits the LAC and the hot
	// set, the hot MN's NIC queues, and hot replicas, p2c and the refresh
	// of anchors and hot records set throughput and tail.
	{
		name: "zipf-hot",
		kind: dataset.Email, keys: 20_000, valueSize: 1024,
		theta: ycsb.DefaultTheta, readP: 95, updateP: 5, clients: 192,
		opsPerSecond: 80_000, warmOps: 100_000,
	},
	// Inserts and updates drive rart growth, allocation, INHT splits and
	// anchor publishes, with uniform reads beside them.
	{
		name: "write-mix",
		kind: dataset.U64, keys: 200_000, valueSize: 64,
		readP: 50, updateP: 25, clients: 16,
		opsPerSecond: 40_000, warmOps: 50_000,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// clusterConfig is the cluster every workload runs on: timed RDMA, three
// MNs at the default size, R=2 anchors, hot replicas at factor 3, the
// default leaf-address cache, and an SFC at the paper's budget of 4.17% of
// 8 B per loaded key (the rule internal/bench uses).
func clusterConfig(w workload, seed int64) sphinx.Config {
	return sphinx.Config{
		Timing:           sphinx.TimingRDMA,
		MemoryNodes:      3,
		ExpectedKeys:     w.keys,
		CacheBytes:       uint64(w.keys) * 8 * 417 / 10000,
		Replication:      2,
		HotReplicaFactor: 3,
		Seed:             seed,
	}
}

type opKind uint8

const (
	opGet opKind = iota
	opUpdate
	opInsert
)

func (k opKind) String() string {
	switch k {
	case opGet:
		return "get"
	case opUpdate:
		return "update"
	default:
		return "insert"
	}
}

// op is one generated operation: its kind and the index of its key in the
// bench's key list (an insert's index is the fresh key's slot).
type op struct {
	kind opKind
	idx  int
}

// keySource owns the key list: the loaded keys followed by every fresh
// key inserted so far, in issue order. Issue is serial, so the list (and
// with it every op stream) is a pure function of the seed.
type keySource struct {
	keys   [][]byte
	loaded int
	novel  func(i int64) []byte
	zipf   *ycsb.Zipfian
}

func newKeySource(w workload, seed int64) *keySource {
	ks := &keySource{
		keys:   dataset.Generate(w.kind, w.keys, seed),
		loaded: w.keys,
		novel:  dataset.Novel(w.kind, seed+7),
	}
	if w.theta > 0 {
		ks.zipf = ycsb.NewZipfian(uint64(w.keys), w.theta)
	}
	return ks
}

// next draws a client's next operation from its own rand stream.
func (ks *keySource) next(w *workload, rng *rand.Rand) op {
	p := rng.Intn(100)
	switch {
	case p < w.readP:
		return op{opGet, ks.pick(rng)}
	case p < w.readP+w.updateP:
		return op{opUpdate, ks.pick(rng)}
	default:
		idx := len(ks.keys)
		ks.keys = append(ks.keys, ks.novel(int64(idx-ks.loaded)))
		return op{opInsert, idx}
	}
}

func (ks *keySource) pick(rng *rand.Rand) int {
	if ks.zipf != nil {
		return int(ks.zipf.DrawScrambled(rng))
	}
	return rng.Intn(len(ks.keys))
}
