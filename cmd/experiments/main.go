// Command experiments regenerates the paper's tables and figures (see the
// experiment index in DESIGN.md) and can rewrite EXPERIMENTS.md.
//
// Simulations from all selected experiments are planned up front and
// prefetched by a worker pool (-j), then rendered in order from the
// memo — artifacts are byte-identical at every -j.
//
// Examples:
//
//	experiments                     # run everything at the quick scale
//	experiments -run F1,F3          # selected experiments
//	experiments -scale 1 -cores 32  # full evaluation scale
//	experiments -j 1                # serial (debugging / timing baseline)
//	experiments -md EXPERIMENTS.md  # also write the markdown record
//	experiments -remote http://a:8080,http://b:8080   # dispatch across daemons
//
// -remote runs every simulation through the cost-model scheduler
// (internal/sched/fleet); when the fleet cannot run one, the runner
// falls back to executing it locally.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"arcsim/internal/bench"
	"arcsim/internal/client"
	"arcsim/internal/sched"
	"arcsim/internal/sched/fleet"
	"arcsim/internal/sim"
	"arcsim/internal/static/witness"
	"arcsim/internal/stats"
	"arcsim/internal/store"
)

func main() {
	var (
		run      = flag.String("run", "all", "comma-separated experiment IDs (T1,T2,F1..F8,T3,A1..A3,R1,CONF/conformance,STAT/static) or 'all'")
		scale    = flag.Float64("scale", 0.25, "workload scale (1.0 = full evaluation)")
		cores    = flag.Int("cores", 32, "core count for per-workload figures")
		seed     = flag.Int64("seed", 1, "workload seed")
		sweep    = flag.String("sweep", "8,16,32,64", "core counts for scalability experiments")
		jobs     = flag.Int("j", runtime.GOMAXPROCS(0), "max concurrent simulations (1 = serial)")
		mdPath   = flag.String("md", "", "write the markdown record (EXPERIMENTS.md) to this path")
		outDir   = flag.String("out", "", "also write each experiment's artifact to <dir>/<ID>.txt")
		storeDir = flag.String("store", "", "persistent result store directory (shared with arcsimd): reuse proven results, persist new ones")
		remote   = flag.String("remote", "", "comma-separated arcsimd base URLs: dispatch simulations through the cost-model scheduler (longest-job-first onto the least-loaded daemon, work stealing, /metrics load probes, failover), -j bounding in-flight runs; falls back to local execution when the fleet cannot run a simulation")
		tier     = flag.Bool("tier", true, "analyze-first tiered execution: skip oracle mirroring on proven-DRF traces (locally and fleet-wide under -remote) and phase-parallelize eligible traces; artifacts stay byte-identical")
		verbose  = flag.Bool("v", false, "print one line per simulation run")
	)
	flag.Parse()

	cfg := bench.Config{Scale: *scale, Seed: *seed, Cores: *cores, Jobs: *jobs, Tier: *tier}
	if *storeDir != "" {
		st, open, err := store.Open(*storeDir)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "%s (%s)\n", open, *storeDir)
		cfg.Cache = st
	}
	for _, s := range strings.Split(*sweep, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fatal(fmt.Errorf("bad -sweep entry %q: %v", s, err))
		}
		cfg.CoreSweep = append(cfg.CoreSweep, n)
	}
	if *verbose {
		cfg.Progress = os.Stderr
	}
	// The scheduler's cost model consults the runner's memoized static
	// analyses, but the runner is built after cfg.Exec is wired; the
	// pointer is bound late (set before any experiment runs).
	var runner *bench.Runner
	if *remote != "" {
		endpoints := splitEndpoints(*remote)
		if len(endpoints) == 0 {
			fatal(fmt.Errorf("-remote %q names no endpoints", *remote))
		}
		sch := fleet.New(endpoints, fleet.Options{})
		sch.Start(context.Background())
		defer sch.Stop()
		fmt.Fprintf(os.Stderr, "scheduling runs across %s (cost-model LJF; failing fast to local when all are down)\n",
			strings.Join(endpoints, ", "))
		cfg.Exec = schedExec(sch, cfg, &runner)
	}
	runner = bench.NewRunner(cfg)

	var selected []bench.Experiment
	if strings.EqualFold(*run, "all") {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, ok := bench.ByID(strings.TrimSpace(id))
			if !ok {
				fatal(fmt.Errorf("unknown experiment %q", id))
			}
			selected = append(selected, e)
		}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}

	start := time.Now()
	runner.Prefetch(bench.PlanAll(cfg, selected))

	var outs []*bench.Output
	fails := 0
	for _, e := range selected {
		out, err := e.Run(runner)
		if err != nil {
			fatal(fmt.Errorf("%s: %v", e.ID, err))
		}
		outs = append(outs, out)
		fmt.Println(out.Render())
		if *outDir != "" {
			path := filepath.Join(*outDir, e.ID+".txt")
			if err := os.WriteFile(path, []byte(out.Render()), 0o644); err != nil {
				fatal(err)
			}
		}
		for _, c := range out.Checks {
			if !c.Pass {
				fails++
			}
		}
	}
	wall := time.Since(start)
	fmt.Printf("regenerated %d experiments in %v; %d shape-check failure(s)\n\n",
		len(outs), wall.Round(time.Millisecond), fails)
	fmt.Println(timingSummary(runner, wall))

	if *mdPath != "" {
		md := bench.Markdown(cfg, outs)
		if err := os.WriteFile(*mdPath, []byte(md), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *mdPath)
	}
	if fails > 0 {
		os.Exit(2)
	}
}

// splitEndpoints parses a comma-separated -remote list, dropping blanks.
func splitEndpoints(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}

// schedExec adapts the fleet scheduler to the Runner's Exec hook: each
// run becomes a job on the fleet (the Runner's memo and worker pool
// already guarantee one dispatch per spec, at most -j in flight). A
// fleet that cannot run it maps to ErrRemoteUnavailable so the Runner
// completes the sweep locally; the result bytes are the store's
// canonical encoding either way, so artifacts stay byte-identical.
//
// Each run's cost is predicted from the same memoized static analysis the
// tiered Runner consults (event count, proven-DRF verdict), so the
// scheduler sees heavy may-conflict simulations and ~free short-circuit
// candidates for what they are. The witness tier's free refutation pass
// refines may-conflict pricing one notch further: a fully refuted
// program is dynamically DRF, so its mirror-run surcharge is waived —
// without spending a single simulation at planning time. The runner
// pointer is bound late: it is nil until NewRunner returns, and the
// closure only executes afterwards (Exec is called by that runner).
func schedExec(sch *fleet.Scheduler, cfg bench.Config, runner **bench.Runner) func(context.Context, bench.RunSpec) (*sim.Result, error) {
	return func(ctx context.Context, spec bench.RunSpec) (*sim.Result, error) {
		in := sched.CostInputs{Cores: spec.Cores, Oracle: spec.Oracle}
		if r := *runner; r != nil {
			if an, err := r.Analysis(spec.Workload, spec.Cores); err == nil {
				in.Events = an.Stats().Events
				in.ProvenDRF = an.ProvenDRF()
				if !in.ProvenDRF && witness.RefutedDRF(an) {
					in.WitnessRefined, in.RefutedDRF = true, true
				}
			}
			// Analysis errors (engine specials outside the catalog) leave
			// Events at zero: EstimateCost prices unknowns mid-sized.
		}
		// A result any endpoint already holds costs one mesh fetch, not a
		// simulation: price it near zero so the planner packs real work
		// onto the fleet and lets warmed keys land anywhere.
		in.PeerCached = sch.PeerHolds(ctx, cfg.CacheKey(spec))
		res, err := sch.Run(ctx, client.JobSpec{
			Workload:   spec.Workload,
			Protocol:   spec.Proto,
			Cores:      spec.Cores,
			AIMEntries: spec.AIMEntries,
			Scale:      cfg.Scale,
			Seed:       cfg.Seed,
			Oracle:     spec.Oracle,
		}, sched.EstimateCost(in), 0)
		if errors.Is(err, fleet.ErrNoEndpoints) {
			return nil, fmt.Errorf("%w: %v", bench.ErrRemoteUnavailable, err)
		}
		return res, err
	}
}

// timingSummary reports serial cost vs. wall-clock: SimTime is what the
// run would have cost one worker, LongestRun is the floor no worker
// count can beat, and speedup is how much the pool recovered.
func timingSummary(r *bench.Runner, wall time.Duration) string {
	tm := r.Timing()
	t := stats.NewTable("Timing summary", "metric", "value")
	t.AddRow("workers (-j)", fmt.Sprintf("%d", r.Cfg().Jobs))
	t.AddRow("simulations executed", fmt.Sprintf("%d", tm.Runs))
	t.AddRow("total simulation time", tm.SimTime.Round(time.Millisecond).String())
	t.AddRow("critical path (longest run)", fmt.Sprintf("%v (%s)",
		tm.LongestRun.Round(time.Millisecond), tm.LongestKey))
	t.AddRow("wall-clock", wall.Round(time.Millisecond).String())
	if tm.CacheHits+tm.CacheMisses > 0 {
		t.AddRow("store hits / misses", fmt.Sprintf("%d / %d", tm.CacheHits, tm.CacheMisses))
	}
	if tm.RemoteRuns > 0 {
		t.AddRow("remote runs", fmt.Sprintf("%d", tm.RemoteRuns))
		t.AddRow("remote dispatch time", tm.RemoteTime.Round(time.Millisecond).String())
	}
	if tm.AnalysisRuns > 0 {
		t.AddRow("static analyses", fmt.Sprintf("%d (%v)", tm.AnalysisRuns, tm.AnalysisTime.Round(time.Millisecond)))
	}
	if tm.OracleSkips > 0 {
		t.AddRow("oracle runs skipped (proven DRF)", fmt.Sprintf("%d", tm.OracleSkips))
	}
	if tm.PhaseParRuns > 0 {
		t.AddRow("phase-parallel runs", fmt.Sprintf("%d", tm.PhaseParRuns))
	}
	if wall > 0 {
		t.AddRow("speedup (sim time / wall)", fmt.Sprintf("%.2fx", float64(tm.SimTime)/float64(wall)))
	}
	return t.Render()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
