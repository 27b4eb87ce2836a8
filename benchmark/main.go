// Command benchmark runs one workload of the hsas benchmark in a fresh
// process and prints its metrics as one JSON object on the last line of
// standard output:
//
//	bash benchmark/run.sh --workload fig8-cnn --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics, measured from outside the program by
// timing calls into each module's public functions. README.md documents
// the workloads, the metrics and the steadiness record.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"hsas/internal/obs"
)

// serialKernels pins every per-pixel and GEMM kernel pool to one
// goroutine (the negative KernelWorkers convention): parallel kernels
// inside a run add scheduler noise without changing any output.
const serialKernels = -1

// setupProcs is the parallelism set-up runs with when the machine has at
// least that many CPUs; defaults derived from GOMAXPROCS are never used.
const setupProcs = 2

// timedProcs is the parallelism of every timed phase. On a shared host
// two busy threads often land on sibling hardware threads of one core,
// which slows both by an amount that changes from minute to minute, so
// timing runs on one thread: the loop, the garbage collector and the
// cache-hit path take turns instead of contending.
const timedProcs = 1

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line the benchmark prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is the state of one benchmark process: its inputs, its scratch
// directory, the operation counts and every metric measured so far.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	procs    int // set-up parallelism; timed phases use timedProcs
	size     sizes

	dir   string      // fresh scratch directory, removed at exit
	spans *obs.Tracer // the benchmark's own spans (trace mode only)
	nDirs int

	attempted, failed int
	e2e, layer        map[string]float64
	info              map[string]any // facts for the results file
}

var workloads = map[string]func(*env) error{
	"fig8-cnn":       fig8CNN,
	"warm-analytics": warmAnalytics,
}

func main() {
	workload := flag.String("workload", "", "fig8-cnn or warm-analytics")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build", "directory for scratch state and results files")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: hsas-bench --workload fig8-cnn|warm-analytics --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	rep, err := run(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out, fullSizes())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload with pinned parallelism in a fresh scratch
// directory under out, writes the results file (and, traced, the span
// file) under out/results, and returns the report.
func run(workload string, seed int64, seconds time.Duration, trace bool, out string, size sizes) (*report, error) {
	procs := min(setupProcs, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	e := &env{
		workload: workload, seed: seed, seconds: seconds, trace: trace, procs: procs, size: size,
		e2e: map[string]float64{}, layer: map[string]float64{}, info: map[string]any{},
	}
	e.dir = filepath.Join(out, "runs", fmt.Sprintf("%s-seed%d-pid%d", workload, seed, os.Getpid()))
	if err := os.RemoveAll(e.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.dir)
	if trace {
		e.spans = obs.NewTracer()
	}
	if err := workloads[workload](e); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	e.e2e["peak_rss_mb"] = peakRSSMB()

	rep := &report{Attempted: e.attempted, Failed: e.failed, Metrics: map[string]metric{}}
	if rep.Attempted == 0 {
		rep.Attempted, rep.Failed = 1, 1
	}
	rep.Correct = rep.Failed == 0
	names, values := endToEnd, e.e2e
	if trace {
		names, values = perLayer, e.layer
	}
	for _, m := range names {
		v, ok := values[m.name]
		if !ok {
			v = 0 // the workload does not exercise this layer
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.Correct = false
			v = 0
		}
		rep.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if err := e.writeResults(filepath.Join(out, "results"), rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// op counts n operations; when ok is false they all count as failed
// and why is reported on standard error.
func (e *env) op(n int, ok bool, why string, args ...any) bool {
	e.attempted += n
	if !ok {
		e.failed += n
		fmt.Fprintf(os.Stderr, "%s: failed check: %s\n", e.workload, fmt.Sprintf(why, args...))
	}
	return ok
}

// fresh returns a new, empty directory under the run's scratch dir, so
// no cache or lake state carries from one step to the next.
func (e *env) fresh(label string) (string, error) {
	e.nDirs++
	dir := filepath.Join(e.dir, fmt.Sprintf("%s-%d", label, e.nDirs))
	return dir, os.MkdirAll(dir, 0o755)
}

// setup runs build reps times, each from scratch, and records the median
// wall time as setup_s. The state of the last repetition is kept; the
// process then settles and drops to timedProcs before timing starts.
func (e *env) setup(reps int, build func() error) error {
	times := make([]float64, reps)
	for i := range times {
		start := time.Now()
		if err := build(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times[i] = time.Since(start).Seconds()
	}
	e.e2e["setup_s"] = median(times)
	e.info["setup_samples_s"] = times
	settle()
	runtime.GOMAXPROCS(timedProcs)
	return nil
}

// spanSeconds sums the durations of the recorded spans with this name
// and category.
func spanSeconds(tr *obs.Tracer, name, cat string) float64 {
	var us int64
	for _, s := range tr.Spans() {
		if s.Name == name && s.Cat == cat {
			us += s.Dur
		}
	}
	return float64(us) / 1e6
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
