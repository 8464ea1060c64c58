package main

import (
	"context"
	_ "embed"
	"fmt"
	"runtime"
	"strings"
	"time"

	"arcsim/internal/bench"
	"arcsim/internal/workload"
)

// paperSweepRef is the sweep's Markdown record at paperSweepCfg, made by
// `go run ./cmd/experiments -scale 0.25 -cores 16 -sweep 8,16 -j 2 -md
// arcbench/testdata/paper-sweep.md` on the tree that introduced this
// benchmark.
//
//go:embed testdata/paper-sweep.md
var paperSweepRef string

// paperSweepCfg is the EXPERIMENTS.md configuration (scale 0.25, seed 1,
// tier on) at 16 cores with an 8/16 sweep instead of 32 cores and
// 8..64: the same experiments and code paths at a third of the time and
// peak RSS, so repeated runs fit a small shared host.
var paperSweepCfg = bench.Config{Scale: 0.25, Seed: 1, Cores: 16, CoreSweep: []int{8, 16}, Jobs: 2, Tier: true}

// timingSections print host wall times in their bodies, so they are the
// only sections exempt from the byte-identity check.
var timingSections = map[string]bool{"STAT": true, "WIT": true, "TIER": true}

// sweepStats is what one sweep measured.
type sweepStats struct {
	wall     time.Duration
	prefetch time.Duration
	render   time.Duration
	exp      map[string]time.Duration
	timing   bench.Timing
	events   uint64 // simulated events of the planned (memoized) runs
}

// paperSweep runs every experiment of bench.All() the way
// `cmd/experiments -run all -md` does: a fresh Runner, the union of the
// experiments' plans prefetched through its worker pool, then the
// in-order render pass and the Markdown record. The workload is fixed;
// the seed does not change it.
func paperSweep(r *run) error {
	cfg := paperSweepCfg
	ref := sections(paperSweepRef)

	// Set-up: the sweep's inputs — its plan and the per-workload catalog
	// traces it starts from — built and validated outside the timed pass.
	// One set-up takes tens of milliseconds, so it is repeated often
	// enough for a steady median.
	if _, err := setups(r, 25, func() (struct{}, error) {
		if n := len(bench.PlanAll(cfg, bench.All())); n == 0 {
			return struct{}{}, fmt.Errorf("empty sweep plan")
		}
		for _, spec := range workload.Catalog() {
			tr := spec.Build(workload.Params{Threads: cfg.Cores, Seed: cfg.Seed, Scale: cfg.Scale})
			if err := tr.Validate(); err != nil {
				return struct{}{}, fmt.Errorf("%s: %w", spec.Name, err)
			}
		}
		return struct{}{}, nil
	}); err != nil {
		return err
	}

	// Warm-up: the process's first sweep grows the heap from nothing and
	// runs up to 40% slower than the ones after it. It is checked like
	// the others but not timed.
	r.sweep(cfg, ref, false)

	// Sweeps repeat until the pass time is spent, so a pass has at least
	// three to take the median of.
	var sweeps []sweepStats
	var use []usage
	start := time.Now()
	for len(sweeps) < 3 || time.Since(start) < r.seconds {
		var s sweepStats
		use = append(use, measure(func() { s = r.sweep(cfg, ref, false) }))
		sweeps = append(sweeps, s)
	}
	r.perUnit(use)
	var walls, events, sims []float64
	for _, s := range sweeps {
		walls = append(walls, s.wall.Seconds())
		events = append(events, float64(s.events)/s.wall.Seconds())
		sims = append(sims, float64(s.timing.Runs)/s.wall.Seconds())
	}
	fmt.Printf("timed sweeps (s): %.3f\n", walls)
	wall := median(walls)
	r.e2e["sweep_wall_s"] = metric{wall, "s"}
	r.e2e["sim_events_per_s"] = metric{median(events), "1/s"}
	r.e2e["jobs_per_s"] = metric{median(sims), "1/s"}
	// A user of the reproduction waits for the whole sweep: that is the
	// request whose latency is reported.
	var lat []float64
	for _, w := range walls {
		lat = append(lat, w*1000)
	}
	r.latencies(lat)

	if !r.traced {
		return nil
	}
	var s sweepStats
	if err := r.tracedPass(func() error {
		s = r.sweep(cfg, ref, true)
		return nil
	}); err != nil {
		return err
	}
	r.overhead(wall, s.wall.Seconds())
	tm := s.timing
	r.layer["bench.prefetch_s"] = metric{s.prefetch.Seconds(), "s"}
	r.layer["bench.render_s"] = metric{s.render.Seconds(), "s"}
	for _, e := range bench.All() {
		r.layer["bench.exp_"+e.ID+"_s"] = metric{s.exp[e.ID].Seconds(), "s"}
	}
	r.layer["bench.sims"] = metric{float64(tm.Runs), "count"}
	r.layer["bench.sim_time_s"] = metric{tm.SimTime.Seconds(), "s"}
	r.layer["bench.longest_run_s"] = metric{tm.LongestRun.Seconds(), "s"}
	r.layer["bench.oracle_skips"] = metric{float64(tm.OracleSkips), "count"}
	r.layer["bench.phasepar_runs"] = metric{float64(tm.PhaseParRuns), "count"}
	r.layer["bench.pool_efficiency"] = metric{tm.SimTime.Seconds() / (s.wall.Seconds() * float64(cfg.Jobs)), "ratio"}
	r.layer["static.analyses"] = metric{float64(tm.AnalysisRuns), "count"}
	r.layer["static.time_s"] = metric{tm.AnalysisTime.Seconds(), "s"}
	r.layer["witness.examinations"] = metric{float64(tm.WitnessRuns), "count"}
	r.layer["witness.replays"] = metric{float64(tm.WitnessReplays), "count"}
	r.layer["witness.time_s"] = metric{tm.WitnessTime.Seconds(), "s"}
	return nil
}

// sweep runs and checks one sweep. Each experiment is one attempted
// operation; it fails on a run error, a failed shape check, or a
// Markdown section that differs from the reference.
func (r *run) sweep(cfg bench.Config, ref map[string]string, traced bool) sweepStats {
	st := sweepStats{exp: map[string]time.Duration{}}
	runner := bench.NewRunner(cfg)
	exps := bench.All()
	root := r.tr.begin("paper-sweep", 0)
	start := time.Now()

	sp := r.tr.begin("bench.prefetch", root)
	runner.Prefetch(bench.PlanAll(cfg, exps))
	r.tr.end(sp)
	st.prefetch = time.Since(start)

	rs := r.tr.begin("bench.render", root)
	var outs []*bench.Output
	errs := map[string]error{}
	for _, e := range exps {
		es := r.tr.begin("bench.exp."+e.ID, rs)
		t0 := time.Now()
		out, err := e.Run(runner)
		if err != nil {
			errs[e.ID] = err
			out = &bench.Output{ID: e.ID, Title: e.Title}
		}
		_ = out.Render() // cmd/experiments prints every artifact as it renders
		st.exp[e.ID] = time.Since(t0)
		r.tr.end(es)
		outs = append(outs, out)
	}
	md := bench.Markdown(cfg, outs)
	r.tr.end(rs)
	st.wall = time.Since(start)
	st.render = st.wall - st.prefetch
	r.tr.end(root)
	st.timing = runner.Timing()

	// Untimed: count the planned runs' events (memo hits) and check.
	seen := map[bench.RunSpec]bool{}
	for _, spec := range bench.PlanAll(cfg, exps) {
		if seen[spec] {
			continue
		}
		seen[spec] = true
		if res, err := runner.SpecResult(context.Background(), spec); err == nil {
			st.events += res.Events
		}
	}
	got := sections(md)
	r.check(got[""] == ref[""], "paper-sweep: Markdown preamble differs from the reference")
	for _, o := range outs {
		ok := errs[o.ID] == nil && o.Passed() && (timingSections[o.ID] || got[o.ID] == ref[o.ID])
		r.check(ok, "paper-sweep: %s: error %v, shape checks passed %v, section matches reference %v",
			o.ID, errs[o.ID], o.Passed(), got[o.ID] == ref[o.ID])
	}
	if traced {
		if err := r.heapProfile(); err != nil {
			r.check(false, "paper-sweep: heap profile: %v", err)
		}
	}
	runtime.KeepAlive(runner)
	return st
}

// sections splits a Markdown record into its preamble (key "") and one
// entry per "## <ID>: ..." section.
func sections(md string) map[string]string {
	out := map[string]string{}
	parts := strings.Split(md, "\n## ")
	out[""] = parts[0]
	for _, p := range parts[1:] {
		id, _, _ := strings.Cut(p, ":")
		out[id] = p
	}
	return out
}
