package bench

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"arcsim/internal/conformance"
	"arcsim/internal/core"
	"arcsim/internal/machine"
	"arcsim/internal/protocols"
	"arcsim/internal/sched"
	"arcsim/internal/sim"
	"arcsim/internal/static"
	"arcsim/internal/static/witness"
	"arcsim/internal/stats"
	"arcsim/internal/trace"
	"arcsim/internal/workload"
)

// witFamilies are the conflict-carrying generator families WIT measures
// precision on: every program predicts at least the planted or racy
// conflicts, so the classification rate is meaningful.
func witFamilies() []confFamily {
	return []confFamily{
		{"racy", conformance.Config{Racy: true}},
		{"plant-overlap", conformance.Config{Plant: conformance.PlantOverlap}},
		{"plant-subword", conformance.Config{Plant: conformance.PlantSubword}},
		{"plant-evict", conformance.Config{Plant: conformance.PlantEvict}},
	}
}

// refutedTrace builds a may-conflict trace whose every predicted
// conflict the acquisition-history pass refutes: thread 0's shared-line
// writes happen holding lock 1 with lock 2 freshly acquired inside the
// hold, thread 1's hold the mirror image, so simultaneous occupancy of
// any cross-thread region pair implies a timestamp cycle
// (static.RefutesPair). The static verdict stays may-conflict — the
// locksets are disjoint — but no schedule can raise the conflict, which
// is exactly the false-positive shape the witness tier exists to
// reclassify. iters scales the event count.
//
// Thread 1's compute prefix serializes the lock sections under the
// default min-ready schedule (the opposite-order nesting could
// otherwise deadlock the default run; the refutation itself is static
// and schedule-independent).
func refutedTrace(iters int) *trace.Trace {
	shared := core.Addr(0x7500_0000_0000)
	priv := func(thread int) core.Addr { return shared + core.Addr(0x100_0000*(thread+1)) }
	pad := func(evs []trace.Event, thread, iter int) []trace.Event {
		for k := 0; k < 16; k++ {
			evs = append(evs, trace.Write(priv(thread)+core.Addr((iter*16+k)%256)*core.LineSize, 8))
		}
		return evs
	}
	var t0, t1 []trace.Event
	t1 = append(t1, trace.Compute(uint32(50_000*iters)))
	for i := 0; i < iters; i++ {
		t0 = append(t0, trace.Acquire(1), trace.Acquire(2), trace.Release(2),
			trace.Write(shared, 8), trace.Release(1))
		t0 = pad(t0, 0, i)
		t1 = append(t1, trace.Acquire(2), trace.Acquire(1), trace.Release(1),
			trace.Write(shared, 8), trace.Release(2))
		t1 = pad(t1, 1, i)
	}
	return &trace.Trace{
		Name: fmt.Sprintf("ah-refuted/%d", iters),
		Threads: [][]trace.Event{
			append(t0, trace.End()),
			append(t1, trace.End()),
		},
	}
}

// witJob is one entry of the cost-model comparison set.
type witJob struct {
	name      string
	events    int
	confirmed int
	refuted   bool // all predictions refuted: dynamically DRF
	actual    time.Duration
	flat      float64
	refined   float64
}

// fitError fits the single multiplicative scale that best maps the
// estimates onto the measured costs (least squares in log space) and
// returns the remaining geomean multiplicative error — 1.0 is a perfect
// fit, 2.0 means predictions are off by 2x on a typical job. Comparing
// two estimators through it isolates shape accuracy from the arbitrary
// unit scale EstimateCost works in.
func fitError(jobs []witJob, est func(witJob) float64) float64 {
	var sum float64
	for _, j := range jobs {
		sum += math.Log(float64(j.actual)) - math.Log(est(j))
	}
	scale := sum / float64(len(jobs))
	var abs float64
	for _, j := range jobs {
		abs += math.Abs(math.Log(float64(j.actual)) - math.Log(est(j)) - scale)
	}
	return math.Exp(abs / float64(len(jobs)))
}

// runWitness executes the WIT experiment: the witness precision tier
// (internal/static/witness) over a planted-conflict program catalog and
// the racy workload suite, then the refined cost model against measured
// simulation cost on a mixed may-conflict job set.
//
// Like CONF and STAT it is self-contained (no Plan): generated programs
// bypass the memo, and the cost-model half needs wall-clock timings
// measured here, on pooled machines. The generated-program examinations
// parallelize under cfg.Jobs, each running its replays serially on the
// Runner's pool; the timing pass runs sequentially
// afterwards so measurements are not inflated by concurrent
// simulations.
func runWitness(r *Runner) (*Output, error) {
	fams := witFamilies()
	perFam := int(8 * r.cfg.Scale)
	if perFam < 2 {
		perFam = 2
	}

	// Part 1: classification precision over the planted-conflict catalog.
	type slot struct {
		rep *witness.Report
		err error
	}
	slots := make([][]slot, len(fams))
	for fi := range fams {
		slots[fi] = make([]slot, perFam)
	}
	r.parallel(len(fams)*perFam, func(k int) {
		fi, i := k/perFam, k%perFam
		seed := r.cfg.Seed*1000 + int64(fi)*100 + int64(i)
		prog := conformance.Generate(fams[fi].cfg, seed)
		s := slot{}
		an, err := static.Analyze(prog.Trace)
		if err == nil {
			start := time.Now()
			s.rep, err = witness.Examine(prog.Trace, an, witness.Options{Pool: r.pool})
			r.record(fmt.Sprintf("wit/%s/s%d", prog.Cfg.Kind(), seed), time.Since(start))
		}
		s.err = err
		slots[fi][i] = s
	})

	var predicted, confirmed, refuted, unwitnessed, replays int
	var errs []string
	t1 := stats.NewTable(
		fmt.Sprintf("Witness classification over generated conflict programs (%d programs)", len(fams)*perFam),
		"family", "programs", "predicted", "confirmed", "refuted", "unwitnessed", "replays", "precision")
	for fi, fam := range fams {
		var p, c, rf, uw, rp int
		for _, s := range slots[fi] {
			if s.err != nil {
				errs = append(errs, s.err.Error())
				continue
			}
			p += s.rep.Predicted
			c += s.rep.Confirmed
			rf += s.rep.Refuted
			uw += s.rep.Unwitnessed
			rp += s.rep.Replays
		}
		predicted += p
		confirmed += c
		refuted += rf
		unwitnessed += uw
		replays += rp
		prec := 1.0
		if p > 0 {
			prec = float64(c+rf) / float64(p)
		}
		t1.AddRow(fam.name, fmt.Sprintf("%d", perFam),
			fmt.Sprintf("%d", p), fmt.Sprintf("%d", c), fmt.Sprintf("%d", rf),
			fmt.Sprintf("%d", uw), fmt.Sprintf("%d", rp), fmt.Sprintf("%.0f%%", 100*prec))
	}
	precision := 1.0
	if predicted > 0 {
		precision = float64(confirmed+refuted) / float64(predicted)
	}

	// Part 2: the refined cost model on a mixed may-conflict job set —
	// the racy suite (confirmed-heavy) next to acquisition-history
	// refuted traces (statically may-conflict, dynamically DRF), all
	// submitted oracle-checked as a conformance sweep would. Measured
	// cost is what a witness-aware tier actually executes: refuted-DRF
	// jobs skip the redundant oracle mirror.
	var jobs []witJob
	for _, spec := range workload.RacySuite() {
		rep, err := r.WitnessReport(spec.Name, r.cfg.Cores)
		if err != nil {
			return nil, fmt.Errorf("wit: examining %s: %w", spec.Name, err)
		}
		an, err := r.Analysis(spec.Name, r.cfg.Cores)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, witJob{
			name:      spec.Name,
			events:    an.Stats().Events,
			confirmed: rep.Confirmed,
			refuted:   rep.Predicted > 0 && rep.Refuted == rep.Predicted,
		})
	}
	refutedOK := true
	for _, iters := range []int{64, 256, 1024} {
		tr := refutedTrace(iters)
		an, err := static.Analyze(tr)
		if err != nil {
			return nil, fmt.Errorf("wit: analyzing %s: %w", tr.Name, err)
		}
		start := time.Now()
		rep, err := witness.Examine(tr, an, witness.Options{Pool: r.pool})
		if err != nil {
			return nil, fmt.Errorf("wit: examining %s: %w", tr.Name, err)
		}
		r.record("wit/"+tr.Name, time.Since(start))
		allRefuted := rep.Predicted > 0 && rep.Refuted == rep.Predicted
		if !allRefuted {
			refutedOK = false
			errs = append(errs, fmt.Sprintf("%s: %d/%d refuted (want all)", tr.Name, rep.Refuted, rep.Predicted))
		}
		jobs = append(jobs, witJob{
			name:      tr.Name,
			events:    tr.Events(),
			confirmed: rep.Confirmed,
			refuted:   allRefuted,
		})
	}
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].name < jobs[j].name })

	// Quiet timing pass: execute each job as the witness-aware tier
	// would (oracle mirrored unless every prediction is refuted) and
	// price it both ways. Collect first, as STAT does, so a GC cycle the
	// examinations left in flight does not land in a millisecond-scale
	// timing.
	runtime.GC()
	for i := range jobs {
		j := &jobs[i]
		var tr *trace.Trace
		var err error
		if spec, ok := workload.ByName(j.name); ok {
			tr, err = r.trace(spec.Name, r.cfg.Cores)
		} else {
			var iters int
			fmt.Sscanf(j.name, "ah-refuted/%d", &iters)
			tr = refutedTrace(iters)
		}
		if err != nil {
			return nil, err
		}
		cores := tr.NumThreads()
		m, p, err := r.pool.Get(protocols.CE, machine.Default(cores))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		_, err = sim.Run(m, p, tr, sim.Options{CheckWithOracle: !j.refuted})
		j.actual = time.Since(start)
		r.pool.Put(protocols.CE, m, p)
		if err != nil {
			return nil, fmt.Errorf("wit: simulating %s: %w", j.name, err)
		}
		r.record("wit/sim/"+j.name, j.actual)

		j.flat = sched.EstimateCost(sched.CostInputs{
			Events: j.events, Cores: tr.NumThreads(), Oracle: true,
		})
		j.refined = sched.EstimateCost(sched.CostInputs{
			Events: j.events, Cores: tr.NumThreads(), Oracle: true,
			WitnessRefined: true, ConfirmedConflicts: j.confirmed, RefutedDRF: j.refuted,
		})
	}
	flatErr := fitError(jobs, func(j witJob) float64 { return j.flat })
	refinedErr := fitError(jobs, func(j witJob) float64 { return j.refined })

	t2 := stats.NewTable(
		fmt.Sprintf("Refined cost model vs measured simulation cost (%d-job mixed may-conflict set)", len(jobs)),
		"job", "events", "confirmed", "verdict", "measured", "flat est", "refined est")
	for _, j := range jobs {
		verdict := "may-conflict"
		if j.refuted {
			verdict = "refuted-DRF"
		}
		t2.AddRow(j.name, stats.FormatCount(uint64(j.events)),
			fmt.Sprintf("%d", j.confirmed), verdict,
			fmt.Sprintf("%.1fms", float64(j.actual)/1e6),
			fmt.Sprintf("%.0f", j.flat), fmt.Sprintf("%.0f", j.refined))
	}

	body := t1.Render() + "\n" + t2.Render() + fmt.Sprintf(`
Every prediction of the static analyzer is classified by the witness
tier (DESIGN.md, "Witness-directed precision"): Confirmed predictions
carry a replayable schedule directive — validated continuously by
FuzzWitness — Refuted ones an acquisition-history proof that no schedule
can realize the pair, and Unwitnessed ones exhausted the replay budget
(%d directed replays spent across the catalog). The refined verdicts
feed sched.EstimateCost: an all-refuted trace earns the proven-DRF
oracle skip and each confirmed conflict adds a surcharge, shrinking the
typical misprediction from %.2fx to %.2fx on the mixed job set above.
`, replays, flatErr, refinedErr)
	for _, e := range errs {
		body += fmt.Sprintf("\nERROR: %s", e)
	}

	return &Output{
		ID:    "WIT",
		Title: "Witness-directed precision: confirm or refute predicted conflicts",
		Claim: "static analysis alone is imprecise; directed replay recovers precision by separating realizable conflicts (with witnesses) from provable false positives, and the refined verdicts sharpen the fleet cost model.",
		Body:  body,
		Checks: []Check{
			{
				Desc: "precision: >= 80% of predictions confirmed or refuted on the planted-conflict catalog",
				Pass: precision >= 0.8 && len(errs) == 0,
				Detail: fmt.Sprintf("%.0f%% (%d confirmed + %d refuted of %d; %d unwitnessed)",
					100*precision, confirmed, refuted, predicted, unwitnessed),
			},
			{
				Desc:   "acquisition-history traces are fully refuted (dynamically DRF despite may-conflict verdict)",
				Pass:   refutedOK,
				Detail: fmt.Sprintf("3 synthetic traces, all-refuted=%v", refutedOK),
			},
			{
				Desc:   "refined cost estimates fit measured cost at least as well as flat may-conflict pricing",
				Pass:   refinedErr <= flatErr,
				Detail: fmt.Sprintf("geomean misprediction %.2fx refined vs %.2fx flat", refinedErr, flatErr),
			},
			{
				Desc:   "replay budget respected per trace",
				Pass:   replays <= 64*len(fams)*perFam,
				Detail: fmt.Sprintf("%d replays over %d programs", replays, len(fams)*perFam),
			},
		},
	}, nil
}
