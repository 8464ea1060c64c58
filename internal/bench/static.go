package bench

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"arcsim/internal/machine"
	"arcsim/internal/protocols"
	"arcsim/internal/sim"
	"arcsim/internal/static"
	"arcsim/internal/stats"
	"arcsim/internal/trace"
	"arcsim/internal/workload"
)

// statRow is one workload's static-vs-dynamic comparison.
type statRow struct {
	name      string
	racy      bool
	events    int
	proven    bool
	predicted int // predicted conflict records
	detected  int // conflicts ce detected in its schedule
	unsound   int // detected conflicts the analysis failed to predict
	analysis  time.Duration
	simTime   time.Duration
	err       error
}

// runStatic executes the STAT experiment: the static region-conflict
// analyzer (internal/static) over the full workload catalog, checked
// against a CE simulation of the same trace. It reports the two numbers
// the analyzer is judged by:
//
//   - precision: the false-positive rate on the DRF suite — workloads
//     that are DRF by construction must be proven DRF (any other verdict
//     is a false positive, since no schedule can race);
//   - speed: analysis wall time vs simulation wall time per workload
//     (the pre-filter argument — see examples/racedetect — needs the
//     analysis to be much cheaper than the simulation it can skip).
//
// Soundness (detected ⊆ predicted) is asserted along the way; its
// schedule-adversarial stress-testing lives in CONF and the fuzz
// targets, which exercise generated programs rather than the catalog.
//
// Like CONF, the experiment is self-contained (no Plan): the simulations
// are timed against the analysis on this machine, so they must run here,
// on pooled machines, rather than come from the store or a remote
// daemon. The simulations parallelize under cfg.Jobs; the analyses are
// then timed sequentially (best of three) so the millisecond-scale
// measurements are not inflated by concurrently running simulations.
func runStatic(r *Runner) (*Output, error) {
	specs := workload.Catalog()
	cores := r.cfg.Cores

	rows := make([]statRow, len(specs))
	traces := make([]*trace.Trace, len(specs))
	r.parallel(len(specs), func(i int) {
		spec := specs[i]
		row := statRow{name: spec.Name, racy: spec.Racy}
		defer func() { rows[i] = row }()

		tr, err := r.trace(spec.Name, cores)
		if err != nil {
			row.err = err
			return
		}
		traces[i] = tr
		row.events = tr.Events()

		an, err := static.Analyze(tr)
		if err != nil {
			row.err = fmt.Errorf("analyze %s: %w", spec.Name, err)
			return
		}
		row.proven = an.ProvenDRF()
		row.predicted = len(an.Conflicts())

		m, p, err := r.pool.Get(protocols.CE, machine.Default(cores))
		if err != nil {
			row.err = fmt.Errorf("build ce: %w", err)
			return
		}
		start := time.Now()
		res, err := sim.Run(m, p, tr, sim.Options{})
		row.simTime = time.Since(start)
		r.pool.Put(protocols.CE, m, p)
		r.record("stat/sim/"+spec.Name, row.simTime)
		if err != nil {
			row.err = fmt.Errorf("simulate %s: %w", spec.Name, err)
			return
		}
		row.detected = res.Conflicts
		for _, ex := range res.Exceptions {
			c := ex.Conflict
			if !an.PredictsPair(c.Line, c.First, c.Second) {
				row.unsound++
			}
		}
	})

	// Quiet timing pass: nothing else is running now. Collect first, so
	// a GC cycle the parallel phase's allocations left in flight does not
	// land in the millisecond-scale timings.
	runtime.GC()
	for i := range rows {
		if rows[i].err != nil {
			continue
		}
		best := time.Duration(math.MaxInt64)
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			if _, err := static.Analyze(traces[i]); err != nil {
				rows[i].err = fmt.Errorf("analyze %s: %w", rows[i].name, err)
				break
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		rows[i].analysis = best
		r.record("stat/analyze/"+rows[i].name, best)
	}

	var (
		drfTotal, falsePos     int
		racyTotal, racyFlagged int
		unsound                int
		logSpeedup             float64
		errs                   []string
	)
	t := stats.NewTable(
		fmt.Sprintf("Static analysis vs CE simulation (%d threads, scale %.2g)", r.cfg.Cores, r.cfg.Scale),
		"workload", "events", "verdict", "predicted", "detected(ce)", "analysis", "simulation", "speedup")
	for _, row := range rows {
		if row.err != nil {
			errs = append(errs, row.err.Error())
			continue
		}
		verdict := "may-conflict"
		if row.proven {
			verdict = "proven-DRF"
		}
		if row.racy {
			racyTotal++
			if !row.proven {
				racyFlagged++
			}
		} else {
			drfTotal++
			if !row.proven {
				falsePos++
			}
		}
		unsound += row.unsound
		an, sm := row.analysis, row.simTime
		if an <= 0 {
			an = time.Nanosecond
		}
		if sm <= 0 {
			sm = time.Nanosecond
		}
		speedup := float64(sm) / float64(an)
		logSpeedup += math.Log(speedup)
		t.AddRow(row.name,
			stats.FormatCount(uint64(row.events)),
			verdict,
			fmt.Sprintf("%d", row.predicted),
			fmt.Sprintf("%d", row.detected),
			fmt.Sprintf("%.2fms", float64(row.analysis)/1e6),
			fmt.Sprintf("%.1fms", float64(row.simTime)/1e6),
			fmt.Sprintf("%.0fx", speedup))
	}
	geoSpeedup := 0.0
	if n := len(rows) - len(errs); n > 0 {
		geoSpeedup = math.Exp(logSpeedup / float64(n))
	}
	fpRate := 0.0
	if drfTotal > 0 {
		fpRate = float64(falsePos) / float64(drfTotal)
	}

	body := t.Render() + fmt.Sprintf(`
The analyzer decomposes each thread into synchronization-free regions,
computes Eraser-style locksets per region and a barrier-phase
happens-before order, and predicts every byte range that can race under
some schedule (DESIGN.md, "Static region-conflict analysis"). "predicted"
counts aggregated conflict records across all schedules; "detected(ce)"
counts the conflicts CE observed in its one schedule, so the two numbers
need not match — soundness only requires detected ⊆ predicted.

DRF-suite false-positive rate: %.0f%% (%d of %d DRF workloads not proven).
Geomean analysis speedup over one CE simulation: %.1fx — and a
proven-DRF verdict saves one simulation per detecting design, so the
pre-filter's practical saving multiplies across CE/CE+/ARC (and the
oracle, which the conformance engine skips on proven-DRF programs).
`, 100*fpRate, falsePos, drfTotal, geoSpeedup)
	for _, e := range errs {
		body += fmt.Sprintf("\nERROR: %s", e)
	}

	return &Output{
		ID:    "STAT",
		Title: "Static region-conflict analysis: precision and speed",
		Claim: "conflict exceptions require dynamic support because static analysis alone is imprecise; measuring the static analyzer's precision and cost quantifies what the hardware designs buy.",
		Body:  body,
		Checks: []Check{
			{
				Desc: "soundness: every conflict CE detected was statically predicted",
				Pass: unsound == 0 && len(errs) == 0,
				Detail: fmt.Sprintf("%d unpredicted detections, %d errors",
					unsound, len(errs)),
			},
			{
				Desc:   "precision: zero false positives on the DRF workload suite",
				Pass:   falsePos == 0,
				Detail: fmt.Sprintf("FP rate %.0f%% (%d/%d)", 100*fpRate, falsePos, drfTotal),
			},
			{
				Desc:   "every racy workload is flagged may-conflict",
				Pass:   racyFlagged == racyTotal,
				Detail: fmt.Sprintf("%d/%d flagged", racyFlagged, racyTotal),
			},
			{
				Desc:   "analysis is at least 2x faster than a single CE simulation (geomean)",
				Pass:   geoSpeedup >= 2,
				Detail: fmt.Sprintf("geomean speedup %.1fx", geoSpeedup),
			},
		},
	}, nil
}
