package bench

import (
	"encoding/json"
	"fmt"
	"io"
)

// JSONReport is the machine-readable form of one experiment's results,
// written as BENCH_<experiment>.json by cmd/sphinxbench so the perf
// trajectory (throughput, tail latency, RT/op, fault counters) is
// trackable across changes without parsing tables.
type JSONReport struct {
	Experiment   string  `json:"experiment"`
	Keys         int     `json:"keys"`
	Workers      int     `json:"workers"`
	OpsPerWorker int     `json:"ops_per_worker"`
	Seed         int64   `json:"seed"`
	Theta        float64 `json:"theta"`

	Results []Result `json:"results,omitempty"`
	// MemUsages carries fig6's per-system memory accounting (its runs
	// produce no Result rows).
	MemUsages []MemUsage `json:"mem_usages,omitempty"`
	// Failover carries the MN-loss chaos experiment's durability and
	// repair verdict, one per dataset run (its runs produce no Result
	// rows).
	Failover []*FailoverReport `json:"failover,omitempty"`
	// Elastic carries the membership chaos experiment's durability,
	// convergence and per-MN rebalancing verdict, one per dataset run (its
	// Result rows are the MN-count sweep).
	Elastic []*ElasticReport `json:"elastic,omitempty"`
	// Skew carries the hot-spot tolerance experiment's theta-sweep
	// verdict, one per dataset run (its Result rows are the per-theta
	// warmup/steady pairs).
	Skew []*SkewReport `json:"skew,omitempty"`
	// Verdicts are the gates of fig4, pipeline, scaling and fastpath; the
	// chaos and skew reports carry their own.
	Verdicts []Verdict `json:"verdicts,omitempty"`
}

// NewJSONReport captures the experiment's sweep-invariant settings.
func NewJSONReport(experiment string, cfg Config) JSONReport {
	cfg = cfg.withDefaults()
	return JSONReport{
		Experiment:   experiment,
		Keys:         cfg.Keys,
		Workers:      cfg.Workers,
		OpsPerWorker: cfg.OpsPerWorker,
		Seed:         cfg.Seed,
		Theta:        cfg.Theta,
	}
}

// AllVerdicts flattens the report's verdicts: each result's identities,
// named after the result, then the experiment's gates.
func (rep *JSONReport) AllVerdicts() []Verdict {
	var all []Verdict
	for _, r := range rep.Results {
		for _, v := range r.Verdicts {
			v.Name = fmt.Sprintf("%s %s %s d%d: %s", r.System, r.Workload, r.Dataset, r.Depth, v.Name)
			all = append(all, v)
		}
	}
	all = append(all, rep.Verdicts...)
	for _, f := range rep.Failover {
		all = append(all, f.Verdicts...)
	}
	for _, e := range rep.Elastic {
		all = append(all, e.Verdicts...)
	}
	for _, s := range rep.Skew {
		all = append(all, s.Verdicts...)
	}
	return all
}

// Merge appends one dataset's share of the experiment to the report.
func (rep *JSONReport) Merge(part JSONReport) {
	rep.Results = append(rep.Results, part.Results...)
	rep.MemUsages = append(rep.MemUsages, part.MemUsages...)
	rep.Verdicts = append(rep.Verdicts, part.Verdicts...)
	rep.Failover = append(rep.Failover, part.Failover...)
	rep.Elastic = append(rep.Elastic, part.Elastic...)
	rep.Skew = append(rep.Skew, part.Skew...)
}

// WriteJSON renders the report as indented JSON.
func (rep JSONReport) WriteJSON(out io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
