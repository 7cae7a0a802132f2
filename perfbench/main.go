// Command perfbench is the repository benchmark: it runs one named
// workload against the compressor for a fixed number of seconds, checks
// every output, and prints the workload's metrics as one JSON object on the
// last line of standard output.
//
//	perfbench --workload paper-small --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run. With
// --trace 1 it drives the pipeline layer by layer, records in-memory spans
// around each layer's public function, writes them to
// .bench_build/traces/ and reports the per-layer metrics. The exit code is
// non-zero when any output check fails. See README.md for the workloads and
// what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// procs is the pinned GOMAXPROCS. place.Options.EffectiveChains reads
// GOMAXPROCS, so the volumes a run reports depend on it.
const procs = 2

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to a smoke-test size (used by the
	// self-test).
	tiny bool
	// workDir holds the run's scratch files: the service journal and,
	// for a traced run, the span file.
	workDir string
}

// run is the shared state of one benchmark run: the failure ledger and the
// metrics reported so far. attempt and fail are safe for concurrent use.
type run struct {
	cfg       config
	mu        sync.Mutex
	attempted int
	failures  []string
	metrics   map[string]metric
	tr        *tracer
}

func newRun(cfg config) *run {
	r := &run{cfg: cfg, metrics: map[string]metric{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	return r
}

// attempt counts one operation.
func (r *run) attempt(n int) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

// fail records a failed operation or check; failures are never dropped.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	r.failures = append(r.failures, msg)
	r.mu.Unlock()
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
}

// set reports a metric.
func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *run) report() report {
	return report{
		Correct:   len(r.failures) == 0,
		Attempted: max(r.attempted, 1),
		Failed:    len(r.failures),
		Metrics:   r.metrics,
	}
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(ctx context.Context, r *run) error{
	"paper-small":   runPaperSmall,
	"route-heavy":   runRouteHeavy,
	"service-mixed": runServiceMixed,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: paper-small, route-heavy or service-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measurement length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 compiles layer by layer with spans and reports per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.workDir = ".bench_build"
	rep, err := execute(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(b))
	if !rep.Correct {
		os.Exit(1)
	}
}

// execute runs one workload and returns its report.
func execute(ctx context.Context, cfg config) (report, error) {
	drive, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return report{}, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, names)
	}
	if cfg.seconds <= 0 {
		return report{}, fmt.Errorf("--seconds must be positive")
	}
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%t gomaxprocs=%d numcpu=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU())
	r := newRun(cfg)
	if err := drive(ctx, r); err != nil {
		return report{}, err
	}
	if cfg.trace {
		r.set("check.fail_frac", "ratio", ratio(float64(len(r.failures)), float64(max(r.attempted, 1))))
		if err := r.tr.write(filepath.Join(cfg.workDir, "traces"), fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed)); err != nil {
			return report{}, err
		}
	}
	return r.report(), nil
}

// timed returns how long fn takes.
func timed(fn func()) time.Duration {
	t := time.Now()
	fn()
	return time.Since(t)
}
