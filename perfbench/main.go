// Command perfbench is the repository's end-to-end benchmark: it drives
// one named workload (stream, plan, week or paper) through the public
// entry points of internal/serve, internal/fleet, internal/autoscale and
// internal/experiments for a fixed number of host seconds, checks every
// pass's output, and prints the end-to-end metrics (tracing off) or the
// per-layer metrics (tracing on). The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Build and run it with perfbench/run.sh from the repository root; see
// perfbench/README.md for the workloads, metrics and method.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mugi/internal/runner"
)

// maxWorkers caps the runner pool and GOMAXPROCS, so a run uses the same
// two threads on any host with at least two CPUs.
const maxWorkers = 2

// setupReps is how many times a run builds its workload; setup_s is the
// median.
const setupReps = 51

// minPasses is the fewest timed passes a run makes, however long they
// take (twice this with tracing on, half of them traced).
const minPasses = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passSample is the harness's measurement of one timed pass.
type passSample struct {
	traced        bool
	wallNs, cpuNs int64
	allocBytes    uint64
	gcCycles      uint32
	gcPause       uint64
	step          stepStats
	evictions     uint64
	peakRSSMB     float64 // the process's peak resident set so far
	out           outcome
	digest        string
}

func main() {
	name := flag.String("workload", "", "workload to run: stream, plan, week or paper")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "host seconds of timed passes")
	traceFlag := flag.Int("trace", 0, "1 = per-layer metrics from a traced run, 0 = end-to-end metrics")
	spansDir := flag.String("spans-dir", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's span file")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload <name> -seed <n> -seconds <n> -trace <0|1>")
		os.Exit(2)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, *spansDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets the workload up, times passes for the budget, and assembles
// the result. Informational lines go to standard output before it.
func run(w workload, seed int64, budget time.Duration, traced bool, spansDir string) (result, error) {
	procs := min(maxWorkers, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	runner.SetParallelism(min(w.workers, procs))
	tr := newTracer(traced)

	setups := make([]float64, setupReps)
	var inst *instance
	for i := range setups {
		start := time.Now()
		in, err := w.setup(seed, tr)
		setups[i] = time.Since(start).Seconds()
		if err != nil {
			return result{}, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		inst = in
	}

	var samples []passSample
	start := time.Now()
	for i := 0; ; i++ {
		passes := minPasses
		if traced {
			passes *= 2
		}
		if i >= passes && time.Since(start) >= budget {
			break
		}
		// With tracing on, traced and untraced passes alternate so
		// their difference is the tracing overhead.
		tr.on = traced && i%2 == 1
		samples = append(samples, timePass(tr, inst, i))
	}

	// Every pass of a run must reproduce the first pass's output.
	for i := range samples {
		if s := &samples[i]; s.digest != samples[0].digest {
			s.out.ops++
			s.out.fail("pass %d output digest %s differs from pass 0 (%s)", i, s.digest, samples[0].digest)
		}
	}
	printInfo(runInfo(w, seed, traced, procs, setups, samples))

	var res result
	for _, s := range samples {
		res.Attempted += s.out.ops
		res.Failed += s.out.failed
		for _, p := range s.out.problems {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
		}
	}
	res.Correct = res.Failed == 0
	if traced {
		res.Metrics = perLayer(w, samples)
		path := filepath.Join(spansDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
		if err := tr.write(path, res.Metrics); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("perfbench: spans written to %s\n", path)
	} else {
		res.Metrics = endToEnd(setups, samples)
	}
	return res, nil
}

// timePass runs one pass from a cold simulation cache, the way a fresh
// process starts, and measures it.
func timePass(tr *tracer, inst *instance, op int) passSample {
	// Two collections empty the sync.Pools too, so pooled scheduler state
	// is rebuilt inside every pass, as in a fresh process.
	runtime.GC()
	runtime.GC()
	runner.ResetCache()
	tr.reset()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	root := tr.begin("pass", -1, op)
	inst.run(op, root)
	wall := tr.end(root)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)
	evictions := runner.CacheStats().Evictions

	out := inst.check(wall)
	sum := sha256.Sum256(out.report)
	return passSample{
		traced:     tr.on,
		wallNs:     wall,
		cpuNs:      cpu1 - cpu0,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		gcCycles:   m1.NumGC - m0.NumGC,
		gcPause:    m1.PauseTotalNs - m0.PauseTotalNs,
		step:       tr.stats(),
		evictions:  evictions,
		peakRSSMB:  peakRSSMB(),
		out:        out,
		digest:     hex.EncodeToString(sum[:]),
	}
}

// endToEnd derives the bounded end-to-end metrics from the untraced
// passes. Wall-clock figures are printed by runInfo but not bounded: on a
// shared host, CPU steal moves them far more than any bound allows. Peak
// RSS is read after the first pass, the footprint of a process that does
// the work once; the run's later passes only creep it upward.
func endToEnd(setups []float64, samples []passSample) map[string]metric {
	var cpu, alloc []float64
	for _, s := range samples {
		cpu = append(cpu, float64(s.cpuNs)/1e9)
		alloc = append(alloc, float64(s.allocBytes)/(1<<20))
	}
	return map[string]metric{
		"cpu_s":       {median(cpu), "s"},
		"alloc_mb":    {median(alloc), "MB"},
		"peak_rss_mb": {samples[0].peakRSSMB, "MB"},
		"setup_s":     {median(setups), "s"},
	}
}

// layerUnits names every per-layer metric with its unit. A metric that
// does not apply to a workload reads 0 there.
var layerUnits = func() map[string]string {
	u := map[string]string{
		"runner.step.calls":            "count",
		"runner.step.hits":             "count",
		"runner.step.misses":           "count",
		"runner.step.hit_ns":           "ns",
		"runner.step.miss_ns":          "ns",
		"runner.step.share":            "fraction",
		"runner.cache.evictions":       "count",
		"runner.pool.cpu_util":         "fraction",
		"serve.trace.next_ns":          "ns",
		"serve.trace.share":            "fraction",
		"serve.sched.self_ns_per_step": "ns",
		"serve.sched.share":            "fraction",
		"serve.steps.prefill":          "count",
		"serve.steps.decode":           "count",
		"serve.mean_batch":             "requests",
		"serve.peak_queue":             "requests",
		"fleet.plan.cells":             "count",
		"fleet.plan.probes":            "count",
		"fleet.plan.probe_ms":          "ms",
		"fleet.plan.self_share":        "fraction",
		"fleet.plan.frontier_len":      "count",
		"autoscale.self_ns_per_step":   "ns",
		"autoscale.self_share":         "fraction",
		"autoscale.ticks":              "count",
		"autoscale.dvfs_shifts":        "count",
		"autoscale.crashes":            "count",
		"runtime.gc_cycles":            "count",
		"runtime.gc_pause_share":       "fraction",
		"trace.overhead_share":         "fraction",
		"trace.attributed_share":       "fraction",
	}
	for _, id := range paperIDs {
		u["experiments."+id+"_s"] = "s"
	}
	return u
}()

// selfShares names, per workload, the per-layer self-time shares that
// partition a traced pass; their sum is trace.attributed_share.
var selfShares = map[string][]string{
	"stream": {"runner.step.share", "serve.trace.share", "serve.sched.share"},
	"plan":   {"runner.step.share", "fleet.plan.self_share"},
	"week":   {"runner.step.share", "autoscale.self_share"},
}

// perLayer derives the per-layer metrics: medians over the traced passes,
// plus the tracing overhead against the untraced ones.
func perLayer(w workload, samples []passSample) map[string]metric {
	vals := map[string][]float64{}
	var tracedWall, plainWall []float64
	for _, s := range samples {
		if !s.traced {
			plainWall = append(plainWall, float64(s.wallNs))
			continue
		}
		tracedWall = append(tracedWall, float64(s.wallNs))
		m := passLayers(w, s)
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]metric{}
	for name, unit := range layerUnits {
		out[name] = metric{median(vals[name]), unit}
	}
	out["trace.overhead_share"] = metric{median(tracedWall)/median(plainWall) - 1, "fraction"}
	return out
}

// passLayers computes one traced pass's per-layer metrics.
func passLayers(w workload, s passSample) map[string]float64 {
	wall := float64(s.wallNs)
	st := s.step
	m := map[string]float64{
		"runner.step.calls":      float64(st.calls),
		"runner.step.hits":       float64(st.hits),
		"runner.step.misses":     float64(st.misses),
		"runner.step.hit_ns":     ratio(float64(st.hitNs), float64(st.hits)),
		"runner.step.miss_ns":    ratio(float64(st.missNs), float64(st.misses)),
		"runner.step.share":      float64(st.covered) / wall,
		"runner.cache.evictions": float64(s.evictions),
		"runner.pool.cpu_util":   float64(s.cpuNs) / (wall * float64(runner.Parallelism())),
		"runtime.gc_cycles":      float64(s.gcCycles),
		"runtime.gc_pause_share": float64(s.gcPause) / wall,
	}
	for k, v := range s.out.layers {
		m[k] = v
	}
	sum := 0.0
	for _, k := range selfShares[w.name] {
		sum += m[k]
	}
	m["trace.attributed_share"] = sum
	return m
}

// hostInfo fingerprints the machine a run measured.
func hostInfo(procs int) map[string]any {
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": procs,
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// runInfo is the informational record printed before the result: host,
// inputs, pass statistics and the output digest.
func runInfo(w workload, seed int64, traced bool, procs int, setups []float64, samples []passSample) map[string]any {
	var wall, cpu, steps []float64
	ops, failed := 0, 0
	for _, s := range samples {
		if !s.traced {
			wall = append(wall, float64(s.wallNs)/1e9)
			cpu = append(cpu, float64(s.cpuNs)/1e9)
			steps = append(steps, float64(s.out.steps)/(float64(s.wallNs)/1e9))
		}
		ops += s.out.ops
		failed += s.out.failed
	}
	hostTime := map[string]any{
		"passes": len(wall), "wall_s": median(wall), "steps_per_s": median(steps),
		"wall_min_s": quantile(wall, 0), "wall_max_s": quantile(wall, 1),
		"wall_each_s": wall, "cpu_each_s": cpu,
	}
	// The highest percentile with at least ten passes beyond it.
	if n := len(wall); n > 10 {
		p := 1 - 10/float64(n)
		hostTime[fmt.Sprintf("wall_p%.0f_s", 100*p)] = quantile(wall, p)
	} else {
		hostTime["wall_highest_percentile"] = "none: fewer than 11 passes"
	}
	return map[string]any{
		"workload":       w.name,
		"seed":           seed,
		"trace":          traced,
		"host":           hostInfo(procs),
		"runner_workers": runner.Parallelism(),
		"params":         w.params(seed),
		"setup_reps":     len(setups),
		"host_time":      hostTime,
		"output_digest":  samples[0].digest,
		"failed_share":   float64(failed) / float64(max(ops, 1)),
	}
}

func printInfo(info map[string]any) {
	keys := make([]string, 0, len(info))
	for k := range info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v, _ := json.Marshal(info[k])
		fmt.Printf("perfbench: %s = %s\n", k, v)
	}
}

// cpuTime returns the process's user+sys CPU time in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB returns this program's peak resident set in MiB: VmHWM from
// /proc/self/status. getrusage's ru_maxrss is not used because Linux
// carries it across exec, so it would include whatever process forked
// the benchmark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
