// Command perfbench is the wall-clock benchmark of the PDC query service.
//
// One invocation runs one named workload from a seed as a closed loop,
// checks every answer against the brute-force oracle, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics:
//
//	go run . --workload vpic-scan --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (what a user of the
// service sees). With --trace 1 the same workload and seed run twice,
// first with the instrumentation switched off and then on; the metrics are the per-layer ones, measured from outside by
// timing calls into each layer's public functions, plus the gap between
// the two passes (trace.overhead_frac). A traced run also writes its
// spans to .bench_build/trace/.
//
// A wrong answer, a failed workload self-check or a set-up error ends the
// run with exit code 1 and no result line. Operations that return a
// typed error are counted in "failed" and do not stop the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// config is everything a run depends on. The command line sets the
// first five fields; the rest are fixed by the benchmark (tests shrink
// them to run the same code at a tiny scale).
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// clients is the number of client goroutines; zero takes the
	// workload's own count.
	clients int
	// logN sizes the dataset at 2^logN particles.
	logN int
	// setups is how many times the system is set up; setup_s is the
	// median of these.
	setups int
	// minOps is the fewest completed query ops a measured phase must
	// hold, so that op_p99_ms has at least ten samples beyond it.
	minOps int
	// spanFile receives a traced run's spans.
	spanFile string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: vpic-scan, vpic-select or cluster-text")
	seed := fs.Uint64("seed", 1, "seed of the dataset and of every drawn literal")
	seconds := fs.Int("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 measures the per-layer metrics, 0 the end-to-end ones")
	clients := fs.Int("clients", 0, "client goroutines (0 = the workload's own count)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		workload: *name,
		seed:     *seed,
		seconds:  float64(*seconds),
		trace:    *trace == 1,
		clients:  *clients,
		logN:     20,
		setups:   5,
		minOps:   1000,
		spanFile: filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed)),
	}
	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep.result(cfg.trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload. The report lines it writes to w are for
// people; the caller prints the result line.
func run(cfg config, w io.Writer) (*report, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want vpic-scan, vpic-select or cluster-text)", cfg.workload)
	}
	if cfg.clients == 0 {
		cfg.clients = wl.clients
	}
	if cfg.clients < 1 || cfg.clients > 2 {
		return nil, fmt.Errorf("--clients %d: the benchmark drives 1 or 2 client goroutines", cfg.clients)
	}
	fmt.Fprintf(w, "workload %s: %s\n", cfg.workload, wl.why)
	fmt.Fprintf(w, "seed %d, 2^%d particles, %d client goroutine(s), %.0f s measured, trace %v\n",
		cfg.seed, cfg.logN, cfg.clients, cfg.seconds, cfg.trace)
	ds := newDataset(cfg.logN, cfg.seed)
	rep, err := wl.run(cfg, ds)
	if err != nil {
		return nil, err
	}
	rep.print(w)
	if cfg.trace {
		if err := rep.tracer.writeSpans(cfg.spanFile); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "spans: %d written to %s\n", rep.tracer.spanCount(), cfg.spanFile)
	}
	return rep, nil
}

// result is the run's result line: every answer was checked, so a
// report exists only for a correct run.
func (r *report) result(traced bool) *result {
	res := &result{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: r.e2e}
	if traced {
		res.Metrics = r.layers
	}
	return res
}

// workloadSpec names one workload: its client goroutine count, why it
// exists, and the function that runs it.
type workloadSpec struct {
	clients int
	why     string
	run     func(cfg config, ds *dataset) (*report, error)
}

var workloads = map[string]workloadSpec{
	"vpic-scan": {
		clients: 1,
		why:     "warm-cache count queries rotating PDC-F/H/HI/SH; time goes to the exec scan, probe, bitmap and sorted kernels",
		run:     runScan,
	},
	"vpic-select": {
		clients: 2,
		why:     "selections, get-data and histograms over TCP with a region cache smaller than the data; time goes to wire, merge and cache misses",
		run:     runSelect,
	},
	"cluster-text": {
		clients: 1,
		why:     "declarative statements and structured counts on a 3-member R=2 cluster with a mid-run join; exercises qlang, plan, plan cache and routing",
		run:     runClusterText,
	},
}
