// Command sphinxbench regenerates the paper's evaluation figures and this
// repository's extension experiments on the simulated
// disaggregated-memory cluster.
//
// Usage:
//
//	sphinxbench [flags] fig4|fig5|fig6|ablation|scaling|treedepth|valsweep|pipeline|fastpath|failover|elastic|skew|all
//
// Each experiment prints an aligned table; see EXPERIMENTS.md for the
// mapping to the paper's figures and the expected shapes. -json writes
// one BENCH_<experiment>.json per experiment. Every report carries
// verdicts (reconciliation identities and acceptance gates); the command
// prints each false one and exits 1 if there is any.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"sphinx/internal/bench"
	"sphinx/internal/dataset"
	"sphinx/internal/fabric"
	"sphinx/internal/obs"
)

func main() {
	keys := flag.Int("keys", 100_000, "loaded keys per dataset (paper: 60M)")
	workers := flag.Int("workers", 24, "worker count for fig4/fig6/ablation")
	ops := flag.Int("ops", 2000, "operations per worker per workload run")
	seed := flag.Int64("seed", 1, "dataset and workload seed")
	mns := flag.Int("mns", 3, "memory nodes")
	cns := flag.Int("cns", 3, "compute nodes")
	only := flag.String("dataset", "", "restrict to one dataset: u64 or email")
	theta := flag.Float64("theta", 0.99, "zipfian request skew (paper: 0.99)")
	stats := flag.Bool("stats", false, "print Sphinx routing diagnostics per run")
	faults := flag.Int("faults", 0, "inject fabric faults at this per-64k rate per batch (transient + timeout); 0 disables")
	csvPath := flag.String("csv", "", "also write results as CSV to this file")
	depth := flag.Int("depth", 1, "per-worker issue depth: in-flight ops per worker with coalesced doorbell batches (Sphinx-family only; pipeline sweeps its own)")
	jsonDir := flag.String("json", "", "also write BENCH_<experiment>.json reports into this directory")
	metrics := flag.Bool("metrics", false, "record per-op and per-stage histograms and emit a metrics section and round-trip reconciliation verdicts per result")
	serveAddr := flag.String("serve", "", "serve live observability HTTP on this address while experiments run (host:0 for an ephemeral port): /metrics, /snapshot, /traces, /debug/pprof")
	serveLinger := flag.Duration("serve-linger", 0, "with -serve, keep serving this long after the experiments finish (lets scrapers read final totals)")
	scaleWorkers := flag.String("scale-workers", "", "comma-separated worker counts for the scaling experiment (default 1,2,4,8,16)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [flags] fig4|fig5|fig6|ablation|scaling|treedepth|valsweep|pipeline|fastpath|failover|elastic|skew|all\n", os.Args[0])
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	// -theta 0 means uniform when the user says so explicitly; the config
	// zero value means "default skew", so it must be mapped to the sentinel
	// here, where explicitly-set flags are distinguishable.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "theta" && *theta == 0 {
			*theta = bench.ThetaUniform
		}
	})

	base := bench.Config{
		Keys:         *keys,
		Workers:      *workers,
		OpsPerWorker: *ops,
		Seed:         *seed,
		MNs:          *mns,
		CNs:          *cns,
		Theta:        *theta,
		Depth:        *depth,
		Metrics:      *metrics,
	}
	var live *bench.Live
	if *serveAddr != "" {
		live = bench.NewLive()
		base.Live = live
	}
	if *faults > 0 {
		base.Faults = &fabric.FaultPlan{
			Seed:            uint64(*seed),
			TransientPer64k: uint32(*faults),
			TimeoutPer64k:   uint32(*faults) / 2,
		}
	}
	var cfgs []bench.Config
	switch *only {
	case "":
		cfgs = bench.DatasetConfigs(base)
	case "u64":
		base.Dataset = dataset.U64
		cfgs = []bench.Config{base}
	case "email":
		base.Dataset = dataset.Email
		cfgs = []bench.Config{base}
	default:
		fmt.Fprintf(os.Stderr, "unknown dataset %q\n", *only)
		os.Exit(2)
	}

	if live != nil {
		// The registry is assembled here, before any experiment goroutine
		// exists; scrapes then race only against atomic counter sources.
		h := obs.NewHandler(obs.ServeOptions{Registry: live.Registry(), Tail: live.Tail, Plane: live.Plane})
		_, bound, err := obs.Serve(*serveAddr, h)
		if err != nil {
			fatal(err)
		}
		// Sample the plane on the wall clock for as long as we serve —
		// /mn, /slo and /alerts then move while experiments run and keep
		// settling through -serve-linger after the load stops.
		live.Plane.EnsureWallTicker(250 * time.Millisecond)
		fmt.Fprintf(os.Stderr, "serving observability on http://%s/\n", bound)
	}

	var collected []bench.Result
	reports := map[string]*bench.JSONReport{}
	checked, failed := 0, 0
	run := func(name string) error {
		for _, cfg := range cfgs {
			// part is this dataset's share of the experiment's report.
			var part bench.JSONReport
			var err error
			switch name {
			case "fig4":
				part.Results, part.Verdicts, err = bench.Fig4(cfg, nil, os.Stdout)
				printDiags(part.Results, *stats)
			case "fig5":
				part.Results, err = bench.Fig5(cfg, nil, nil, os.Stdout)
				printDiags(part.Results, *stats)
			case "fig6":
				part.MemUsages, err = bench.Fig6(cfg, os.Stdout)
			case "ablation":
				part.Results, err = bench.Ablation(cfg, os.Stdout)
			case "scaling":
				var steps []int
				steps, err = parseWorkerSteps(*scaleWorkers)
				if err == nil {
					part.Results, part.Verdicts, err = bench.WorkerScaling(cfg, steps, os.Stdout)
				}
			case "treedepth":
				part.Results, err = bench.TreeDepthScaling(cfg, nil, os.Stdout)
			case "valsweep":
				part.Results, err = bench.ValueSweep(cfg, nil, os.Stdout)
			case "pipeline":
				part.Results, part.Verdicts, err = bench.PipelineSweep(cfg, nil, os.Stdout)
				printDiags(part.Results, *stats)
			case "fastpath":
				part.Results, part.Verdicts, err = bench.Fastpath(cfg, os.Stdout)
				printDiags(part.Results, *stats)
			case "failover":
				var fo *bench.FailoverReport
				fo, err = bench.Failover(cfg, os.Stdout)
				part.Failover = []*bench.FailoverReport{fo}
			case "elastic":
				var el *bench.ElasticReport
				part.Results, el, err = bench.Elastic(cfg, os.Stdout)
				part.Elastic = []*bench.ElasticReport{el}
			case "skew":
				var sk *bench.SkewReport
				part.Results, sk, err = bench.Skew(cfg, nil, os.Stdout)
				part.Skew = []*bench.SkewReport{sk}
			default:
				return fmt.Errorf("unknown experiment %q", name)
			}
			if err != nil {
				return err
			}
			c, f := failedVerdicts(name+"/"+cfg.Dataset.String(), &part, os.Stderr)
			checked, failed = checked+c, failed+f
			collected = append(collected, part.Results...)
			rep := reports[name]
			if rep == nil {
				r := bench.NewJSONReport(name, base)
				rep = &r
				reports[name] = rep
			}
			rep.Merge(part)
			fmt.Println()
		}
		return nil
	}

	var err error
	if flag.Arg(0) == "all" {
		for _, name := range []string{"fig4", "fig5", "fig6", "ablation", "pipeline"} {
			if err = run(name); err != nil {
				break
			}
		}
	} else {
		err = run(flag.Arg(0))
	}
	if err != nil {
		fatal(err)
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fatal(err)
		}
		for name, rep := range reports {
			path := filepath.Join(*jsonDir, "BENCH_"+name+".json")
			var buf bytes.Buffer
			if err := rep.WriteJSON(&buf); err != nil {
				fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
	if *csvPath != "" && len(collected) > 0 {
		var buf bytes.Buffer
		if err := bench.WriteCSV(collected, &buf); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*csvPath, buf.Bytes(), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d rows to %s\n", len(collected), *csvPath)
	}
	fmt.Fprintf(os.Stderr, "sphinxbench: %d verdicts, %d failed\n", checked, failed)
	if failed > 0 {
		os.Exit(1)
	}
	if live != nil && *serveLinger > 0 {
		fmt.Fprintf(os.Stderr, "lingering %v for final scrapes\n", *serveLinger)
		time.Sleep(*serveLinger)
	}
}

// fatal reports err and exits 1.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sphinxbench:", err)
	os.Exit(1)
}

// failedVerdicts prints each false verdict of the report as
// "label name lhs rhs" and returns how many verdicts it checked and how
// many failed.
func failedVerdicts(label string, rep *bench.JSONReport, w io.Writer) (checked, failed int) {
	for _, v := range rep.AllVerdicts() {
		checked++
		if !v.Pass {
			failed++
			fmt.Fprintf(w, "sphinxbench: verdict failed: %s %s %g %g\n", label, v.Name, v.LHS, v.RHS)
		}
	}
	return checked, failed
}

// parseWorkerSteps parses the -scale-workers flag ("1,4,16"); empty
// selects the experiment's default sweep.
func parseWorkerSteps(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	steps := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -scale-workers element %q", p)
		}
		steps = append(steps, n)
	}
	return steps, nil
}

// printDiags dumps Sphinx routing diagnostics after an experiment when
// requested (filter hit rates, false positives, restarts). Fault and
// recovery counters print whenever a run saw faults or lock recovery,
// independent of the -stats flag.
func printDiags(results []bench.Result, enabled bool) {
	if enabled {
		fmt.Println("# sphinx diagnostics")
		for _, r := range results {
			if d := r.Diag(); d != "" {
				fmt.Printf("%-14s %-8s %-6s %s\n", r.System, r.Workload, r.Dataset, d)
			}
		}
	}
	header := false
	for _, r := range results {
		if fl := r.FaultLine(); fl != "" {
			if !header {
				fmt.Println("# fault recovery")
				header = true
			}
			fmt.Printf("%-14s %-8s %-6s %s\n", r.System, r.Workload, r.Dataset, fl)
		}
	}
}
