package bench

import (
	"fmt"
	"sync"
	"time"

	"arcsim/internal/machine"
	"arcsim/internal/protocols"
	"arcsim/internal/sim"
	"arcsim/internal/stats"
	"arcsim/internal/trace"
	"arcsim/internal/workload"
)

// r1Seeds are the workload generation seeds R1 compares.
var r1Seeds = []int64{1, 2, 3}

// planR1 declares the runs R1 reads through the memo: under the
// Runner's own seed, R1's row is exactly F1's run set. The memo is keyed
// on that one seed, so the other seeds' runs are not plannable.
func planR1(cfg Config) []RunSpec {
	for _, seed := range r1Seeds {
		if seed == cfg.Seed {
			return planF1(cfg)
		}
	}
	return nil
}

// runR1 re-runs the headline comparison (F1's geomeans) under several
// workload generation seeds: the reproduction's qualitative ordering must
// be a property of the sharing structure, not of one lucky trace.
func runR1(r *Runner) (*Output, error) {
	geos, err := r.seedGeomeans(r1Seeds)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("Robustness R1: geomean runtime normalized to MESI per seed (%d cores)", r.cfg.Cores),
		"seed", "ce", "ce+", "arc", "ce+ < ce", "arc <= 1.15*ce+")
	ordering := true
	competitive := true
	for i, seed := range r1Seeds {
		geo := geos[i]
		ok1 := geo[protocols.CEPlus] < geo[protocols.CE]
		ok2 := geo[protocols.ARC] <= geo[protocols.CEPlus]*1.15
		ordering = ordering && ok1
		competitive = competitive && ok2
		t.AddRow(fmt.Sprintf("%d", seed),
			fmt.Sprintf("%.3f", geo[protocols.CE]),
			fmt.Sprintf("%.3f", geo[protocols.CEPlus]),
			fmt.Sprintf("%.3f", geo[protocols.ARC]),
			fmt.Sprintf("%v", ok1),
			fmt.Sprintf("%v", ok2))
	}
	out := &Output{
		ID: "R1", Title: "Seed robustness",
		Claim: "the reproduced ordering (CE+ beats CE; ARC competitive with CE+) is stable across workload seeds",
		Body:  t.Render(),
	}
	out.Checks = []Check{
		{Desc: "CE+ beats CE under every seed", Pass: ordering},
		{Desc: "ARC within 15% of CE+ under every seed", Pass: competitive},
	}
	return out, nil
}

// seedGeomeans computes F1-style geomeans (each detecting design's
// runtime normalized to MESI) under each generation seed. The Runner's
// own seed reads F1's memoized runs. Every other seed's runs execute
// here on pooled machines, one run at a time over cfg.Jobs workers;
// each (seed, workload) trace is generated once and shared by its four
// designs. The geomeans are folded in seed and suite order afterwards,
// so they are byte-identical at every cfg.Jobs.
func (r *Runner) seedGeomeans(seeds []int64) ([]map[string]float64, error) {
	suite := workload.Suite()
	cores := r.cfg.Cores
	designs := protocols.Names()
	nd, nw := len(designs), len(suite)
	type seedTrace struct {
		once sync.Once
		tr   *trace.Trace
	}
	traces := make([]seedTrace, len(seeds)*nw)
	// Run i is design i%nd on trace i/nd, which is workload (i/nd)%nw
	// under seed i/(nd*nw); cycles[i] is its run time.
	cycles := make([]uint64, len(traces)*nd)
	errs := make([]error, len(cycles))
	r.parallel(len(cycles), func(i int) {
		t, proto := &traces[i/nd], designs[i%nd]
		seed, spec := seeds[i/(nd*nw)], suite[(i/nd)%nw]
		if seed == r.cfg.Seed {
			res, err := r.Result(spec.Name, proto, cores, 0)
			if err == nil {
				cycles[i] = res.Cycles
			}
			errs[i] = err
			return
		}
		t.once.Do(func() {
			t.tr = spec.Build(workload.Params{Threads: cores, Seed: seed, Scale: r.cfg.Scale})
		})
		m, p, err := r.pool.Get(proto, machine.Default(cores))
		if err != nil {
			errs[i] = err
			return
		}
		start := time.Now()
		res, err := sim.Run(m, p, t.tr, sim.Options{})
		elapsed := time.Since(start)
		r.pool.Put(proto, m, p)
		if err != nil {
			errs[i] = fmt.Errorf("seed %d %s/%s: %w", seed, spec.Name, proto, err)
			return
		}
		r.record(fmt.Sprintf("%s/%s/%d/seed%d", spec.Name, proto, cores, seed), elapsed)
		cycles[i] = res.Cycles
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	geos := make([]map[string]float64, len(seeds))
	for s := range seeds {
		per := make(map[string][]float64)
		for w := range suite {
			run := cycles[(s*nw+w)*nd:][:nd] // designs[0] is the MESI baseline
			for d := 1; d < nd; d++ {
				per[designs[d]] = append(per[designs[d]], float64(run[d])/float64(run[0]))
			}
		}
		geos[s] = make(map[string]float64, len(per))
		for p, vs := range per {
			geos[s][p] = stats.Geomean(vs)
		}
	}
	return geos, nil
}
