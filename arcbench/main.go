// Command arcbench is arcsim's benchmark: three workloads that cover what
// a user of the reproduction waits for, measured end to end, plus a
// traced mode that splits each workload's time and memory by layer.
//
//	bash arcbench/run.sh --workload paper-sweep --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for why each was chosen):
//
//	paper-sweep  every experiment of bench.All() through a fresh bench.Runner
//	sim-core     sim.RunContext straight-line over a fixed design matrix
//	daemon-jobs  an in-process arcsimd driven by two closed-loop clients
//
// The driver measures from outside: it times calls into the public
// functions of the program's packages and reads the counts they already
// expose. Every run checks its outputs; a failed check makes "correct"
// false and the exit status 1. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones, measured on a second, traced pass of the workload
// (spans, CPU and heap profiles) that follows an untraced one, whose
// difference is reported as the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"arcsim/internal/bench"
	"arcsim/internal/protocols"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run carries one invocation's settings and everything it measured.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	outDir   string // profiles, spans and temporary stores

	// tr records spans around the calls into each layer; it is on only
	// during the traced pass.
	tr *tracer

	e2e   map[string]metric
	layer map[string]metric

	attempted int
	failed    int
	problems  []string
}

func main() {
	var (
		workload = flag.String("workload", "", "paper-sweep, sim-core or daemon-jobs")
		seed     = flag.Int64("seed", 1, "input seed: sim-core run order, daemon-jobs mix and seed pool")
		seconds  = flag.Int("seconds", 10, "measurement time per pass")
		traced   = flag.Int("trace", 0, "1: report per-layer metrics from a traced pass")
		list     = flag.Bool("list", false, "print every per-layer metric with its unit and exit")
	)
	flag.Parse()
	if *list {
		for _, m := range layerMetrics() {
			fmt.Println(m[0], m[1])
		}
		return
	}

	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *traced == 1,
		outDir:   ".bench_build/arcbench-out",
		tr:       &tracer{},
		e2e:      map[string]metric{},
		layer:    map[string]metric{},
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatal(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		fatal(err)
	}
	var err error
	switch r.workload {
	case "paper-sweep":
		err = paperSweep(r)
	case "sim-core":
		err = simCore(r)
	case "daemon-jobs":
		err = daemonJobs(r)
	default:
		err = fmt.Errorf("unknown --workload %q (want paper-sweep, sim-core or daemon-jobs)", r.workload)
	}
	if err != nil {
		fatal(err)
	}
	r.e2e["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	r.layer["error_rate"] = metric{errRate, "ratio"}
	if r.traced {
		if err := r.tr.write(r.outDir, r.workload, r.seed); err != nil {
			fatal(err)
		}
		if err := r.fillLayers(); err != nil {
			fatal(err)
		}
	}
	r.report()
	if len(r.problems) > 0 {
		os.Exit(1)
	}
}

// layerMetrics declares every per-layer metric and its unit. A traced
// run reports all of them, 0 for layers its workload does not exercise.
func layerMetrics() [][2]string {
	ms := [][2]string{
		{"error_rate", "ratio"}, {"trace.overhead_pct", "%"}, {"job_samples", "count"},
		{"runtime.alloc_mb", "MB"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"},
		{"bench.prefetch_s", "s"}, {"bench.render_s", "s"},
	}
	for _, e := range bench.All() {
		ms = append(ms, [2]string{"bench.exp_" + e.ID + "_s", "s"})
	}
	ms = append(ms, [][2]string{
		{"bench.sims", "count"}, {"bench.sim_time_s", "s"}, {"bench.longest_run_s", "s"},
		{"bench.oracle_skips", "count"}, {"bench.phasepar_runs", "count"}, {"bench.pool_efficiency", "ratio"},
		{"static.analyses", "count"}, {"static.time_s", "s"},
		{"witness.examinations", "count"}, {"witness.replays", "count"}, {"witness.time_s", "s"},
		{"machine.build_ms", "ms"}, {"machine.reset_ms", "ms"},
		{"sim.events", "count"}, {"sim.mem_accesses", "count"},
		{"workload.gen_ms_per_kevent", "ms"}, {"trace.encode_mb_per_s", "MB/s"}, {"trace.decode_mb_per_s", "MB/s"},
		{"cache.l1_misses", "count"}, {"cache.llc_misses", "count"}, {"aim.misses", "count"}, {"noc.queue_cycles", "count"},
	}...)
	for _, d := range protocols.Names() {
		d = designName(d)
		ms = append(ms, [][2]string{{"sim." + d + "_ns_per_event", "ns"},
			{"sim.cycles." + d, "count"}, {"noc.flit_hops." + d, "count"}, {"dram.bytes." + d, "B"}}...)
	}
	ms = append(ms, [][2]string{
		{"server.submit_p50_ms", "ms"}, {"server.queue_wait_p50_ms", "ms"}, {"server.queue_wait_p99_ms", "ms"},
	}...)
	for _, c := range classNames {
		ms = append(ms, [2]string{"server." + c + "_p50_ms", "ms"})
	}
	ms = append(ms, [][2]string{
		{"server.fresh_p99_ms", "ms"}, {"server.result_fetch_p50_ms", "ms"}, {"server.result_kb", "KB"},
		{"client.follow_p50_ms", "ms"}, {"server.heap_mb_per_seed", "MB"},
		{"store.open_ms", "ms"}, {"store.put_ms", "ms"}, {"store.hits", "count"}, {"store.misses", "count"}, {"store.mb", "MB"},
	}...)
	for _, l := range cpuLayers {
		ms = append(ms, [2]string{"cpu_share." + l, "ratio"})
	}
	for _, l := range heapLayers {
		ms = append(ms, [2]string{"heap_mb." + l, "MB"})
	}
	return ms
}

// fillLayers completes a traced run's per-layer metrics: every declared
// metric is present (0 where the workload does not reach the layer), and
// nothing undeclared is.
func (r *run) fillLayers() error {
	declared := map[string]string{}
	for _, m := range layerMetrics() {
		declared[m[0]] = m[1]
		if _, ok := r.layer[m[0]]; !ok {
			r.layer[m[0]] = metric{0, m[1]}
		}
	}
	for k, m := range r.layer {
		if declared[k] != m.Unit {
			return fmt.Errorf("per-layer metric %s (%s) is not declared with that unit", k, m.Unit)
		}
	}
	return nil
}

// report prints every metric by name and unit, then the result line.
func (r *run) report() {
	show := func(title string, ms map[string]metric) {
		fmt.Printf("%s (%s, seed %d)\n", title, r.workload, r.seed)
		for _, k := range sortedKeys(ms) {
			fmt.Printf("  %-34s %16.6g %s\n", k, ms[k].Value, ms[k].Unit)
		}
	}
	show("end-to-end", r.e2e)
	if r.traced {
		show("per-layer (traced pass)", r.layer)
	}
	fmt.Printf("attempted %d, failed %d\n", r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
	metrics := r.e2e
	if r.traced {
		metrics = r.layer
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// check counts one attempted operation, and a failure when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

// setups runs set-up n times and reports the median as setup_s, keeping
// the last set-up's state. Set-up work a later change adds shows there
// instead of in the measured pass. Each set-up starts from a collected
// heap with the previous state dropped, so peak RSS holds one state.
func setups[T any](r *run, n int, fn func() (T, error)) (T, error) {
	var state T
	var ds []float64
	for i := 0; i < n; i++ {
		var zero T
		state = zero
		debug.FreeOSMemory()
		start := time.Now()
		v, err := fn()
		if err != nil {
			return zero, fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, time.Since(start).Seconds())
		state = v
	}
	r.e2e["setup_s"] = metric{median(ds), "s"}
	return state, nil
}

// usage is the process-wide cost of a measured pass: CPU time from
// getrusage and allocation/GC figures from the runtime.
type usage struct {
	cpu     time.Duration
	allocMB float64
	gcs     uint32
	pauseMS float64
}

// measure returns the process cost of fn.
func measure(fn func()) usage {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	fn()
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	return usage{
		cpu:     c1 - c0,
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		gcs:     m1.NumGC - m0.NumGC,
		pauseMS: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
	}
}

// perUnit records cpu_s and the runtime.* figures as medians over the
// work units of the untraced pass (sweeps, matrix passes, job rounds).
func (r *run) perUnit(us []usage) {
	var cpu, alloc, gcs, pause []float64
	for _, u := range us {
		cpu = append(cpu, u.cpu.Seconds())
		alloc = append(alloc, u.allocMB)
		gcs = append(gcs, float64(u.gcs))
		pause = append(pause, u.pauseMS)
	}
	r.e2e["cpu_s"] = metric{median(cpu), "s"}
	r.layer["runtime.alloc_mb"] = metric{median(alloc), "MB"}
	r.layer["runtime.gc_cycles"] = metric{median(gcs), "count"}
	r.layer["runtime.gc_pause_ms"] = metric{median(pause), "ms"}
}

// latencies records job_p50_ms and job_tail_ms from per-request
// latencies in milliseconds. The tail is the highest of p99, p95, p90
// and p75 with at least ten samples beyond it (the maximum when there are
// too few samples for any), so it never rests on a handful of requests.
func (r *run) latencies(ms []float64) {
	r.e2e["job_p50_ms"] = metric{percentile(ms, 50), "ms"}
	r.e2e["job_tail_ms"] = metric{percentile(ms, tailPct(len(ms))), "ms"}
	r.layer["job_samples"] = metric{float64(len(ms)), "count"}
}

// overhead records how much slower the traced pass ran than the
// untraced one, by the workload's primary time.
func (r *run) overhead(untraced, traced float64) {
	r.layer["trace.overhead_pct"] = metric{100 * (traced/untraced - 1), "%"}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "arcbench:", err)
	os.Exit(1)
}
