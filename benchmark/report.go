package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"hsas/internal/raster"
)

// named is a metric name with its unit; BENCHMARK.json lists the same
// names and units (the self-test checks that they agree).
type named struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with --trace 0.
var endToEnd = []named{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"qoc_mae_m", "m"},
}

// perLayer are the single-layer metrics reported with --trace 1. Layer
// prefixes are module names; "bench" marks the benchmark's own checks on
// its measurement. A workload that does not exercise a layer reports 0.
var perLayer = []named{
	{"camera.render_ms", "ms"},
	{"world.locate_ns", "ns"},
	{"isp.demosaic_ms", "ms"},
	{"isp.denoise_ms", "ms"},
	{"isp.colormap_ms", "ms"},
	{"isp.gamutmap_ms", "ms"},
	{"isp.tonemap_ms", "ms"},
	{"isp.calls", "count"},
	{"perception.detect_ms", "ms"},
	{"perception.ok_ratio", "ratio"},
	{"classifier.infer_us.road", "us"},
	{"classifier.infer_us.lane", "us"},
	{"classifier.infer_us.scene", "us"},
	{"classifier.generate_s", "s"},
	{"cnn.fit_s", "s"},
	{"classifier.val_acc.road", "ratio"},
	{"classifier.val_acc.lane", "ratio"},
	{"classifier.val_acc.scene", "ratio"},
	{"control.step_ns", "ns"},
	{"control.design_us", "us"},
	{"vehicle.step_ns", "ns"},
	{"sim.render_s", "s"},
	{"sim.isp_s", "s"},
	{"sim.classify_s", "s"},
	{"sim.detect_s", "s"},
	{"sim.control_s", "s"},
	{"sim.other_s", "s"},
	{"sim.cycles", "count"},
	{"sim.detect_fails", "count"},
	{"raster.pool_hit_ratio", "ratio"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles", "count"},
	{"campaign.key_us", "us"},
	{"campaign.cache_get_us", "us"},
	{"campaign.cache_put_ms", "ms"},
	{"campaign.hits", "count"},
	{"campaign.simulated", "count"},
	{"campaign.shard_busy_frac", "ratio"},
	{"lake.append_us_per_row", "us"},
	{"lake.flush_ms", "ms"},
	{"lake.bytes_per_row", "B"},
	{"lake.scan_rows_per_s", "1/s"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.replay_render_ratio", "ratio"},
	{"bench.replay_isp_ratio", "ratio"},
	{"bench.replay_detect_ratio", "ratio"},
}

// phase snapshots the process-wide counters the runtime and raster
// layers keep, so a timed phase can report its own share of them.
type phase struct {
	start time.Time
	mem   runtime.MemStats
	pool  raster.PoolStats
}

func startPhase() phase {
	var p phase
	runtime.ReadMemStats(&p.mem)
	p.pool = raster.Stats()
	p.start = time.Now()
	return p
}

// end records the phase's allocation per operation, garbage-collection
// cycles and raster pool hit ratio as per-layer metrics.
func (p phase) end(e *env, ops int) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	ps := raster.Stats()
	e.layer["runtime.alloc_mb_per_op"] = ratio(float64(m.TotalAlloc-p.mem.TotalAlloc)/(1<<20), float64(ops))
	e.layer["runtime.gc_cycles"] = float64(m.NumGC - p.mem.NumGC)
	hits, misses := float64(ps.Hits-p.pool.Hits), float64(ps.Misses-p.pool.Misses)
	e.layer["raster.pool_hit_ratio"] = ratio(hits, hits+misses)
}

// overhead records how much slower the traced phase ran than the
// untraced one, in percent of the traced rate.
func (e *env) overhead(untracedRate, tracedRate float64) {
	e.layer["bench.trace_overhead_pct"] = 100 * (ratio(untracedRate, tracedRate) - 1)
	e.info["untraced_ops_per_s"] = untracedRate
	e.info["traced_ops_per_s"] = tracedRate
}

// settle collects garbage, returns freed memory to the OS and restarts
// the kernel's peak-RSS count, so timing starts from a settled heap and
// peak_rss_mb covers what the timed phase holds resident rather than
// when the collector happened to run during set-up.
func settle() {
	debug.FreeOSMemory()
	// Linux only; elsewhere the peak also covers set-up.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size since settle, read
// from /proc/self/status (the getrusage maximum where that is missing).
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fingerprint describes the machine, toolchain, source and settings a
// result was measured with.
func (e *env) fingerprint() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    map[string]int{"setup": e.procs, "timed": runtime.GOMAXPROCS(0)},
		"go_version":    runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceHash(),
		"seed":          e.seed,
		"workers": map[string]int{
			"engine_cold":     e.procs,
			"engine_resubmit": timedProcs,
			"train":           e.procs,
			"kernel":          serialKernels,
			"replay_kernel":   1,
		},
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceHash hashes the measured program's Go sources and go.mod, read
// from the working directory (the repository root), so results taken
// outside a git checkout still name the code they measured.
func sourceHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || path == "benchmark") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || path == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeResults writes the report, the environment fingerprint and the
// run's facts to a results file, and the benchmark's spans to a Chrome
// trace file next to it when traced.
func (e *env) writeResults(dir string, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%d", e.workload, e.seed, boolInt(e.trace), time.Now().UnixNano()))
	doc := map[string]any{
		"workload":    e.workload,
		"seconds":     e.seconds.Seconds(),
		"trace":       e.trace,
		"environment": e.fingerprint(),
		"info":        e.info,
		"report":      rep,
	}
	if e.trace {
		f, err := os.Create(base + ".spans.json")
		if err != nil {
			return err
		}
		if err := e.spans.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		doc["span_file"] = base + ".spans.json"
		doc["spans"] = e.spans.Len()
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".json", b, 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
