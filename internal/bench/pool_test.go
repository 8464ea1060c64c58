package bench

import (
	"testing"

	"arcsim/internal/machine"
	"arcsim/internal/protocols"
)

// pooledDesigns is every design the experiments request, and so every
// design whose pairs the Runner recycles: the four evaluated designs and
// the A1-A3 variants.
var pooledDesigns = []string{
	protocols.MESI, protocols.CE, protocols.CEPlus, protocols.ARC,
	protocols.ARCNoRO, protocols.ARCNoPrivate,
	protocols.MOESI, protocols.CEPlusMOESI,
	protocols.CEPlusWord, protocols.ARCWord,
}

// TestPooledRunsMatchFresh proves that a Runner, and a Runner Derive
// made from it at another seed, run on their shared pool, and that a
// recycled run is byte-identical to the same run on a fresh build
// (protocols.TestPoolGetResets holds the Pool itself to that after a
// priming run across most LLC sets). Runner A's canneal run leaves state
// in the pair; A's dedup run, then the derived runner's, must run on the
// same pair and match a fresh Runner's.
func TestPooledRunsMatchFresh(t *testing.T) {
	const cores = 4
	cfg := Config{Scale: 0.02, Seed: 1, Cores: cores}
	for _, proto := range pooledDesigns {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			a := NewRunner(cfg)
			m, p, err := a.pool.Get(proto, machine.Default(cores))
			if err != nil {
				t.Fatal(err)
			}
			a.pool.Put(proto, m, p)
			derived := a.Derive(cfg.Scale, 7)
			for _, step := range []struct {
				r  *Runner
				wl string
			}{{a, "canneal"}, {a, "dedup"}, {derived, "dedup"}} {
				res, err := step.r.Result(step.wl, proto, cores, 0)
				if err != nil {
					t.Fatalf("seed %d %s: %v", step.r.cfg.Seed, step.wl, err)
				}
				if m.L1Stats() != res.L1 || m.LLCStats() != res.LLC {
					t.Fatalf("seed %d %s did not run on the pooled pair", step.r.cfg.Seed, step.wl)
				}
				fresh, err := NewRunner(step.r.cfg).Result(step.wl, proto, cores, 0)
				if err != nil {
					t.Fatalf("fresh run: %v", err)
				}
				if !jsonEqual(res, fresh) {
					t.Errorf("seed %d %s: pooled result (%d cycles) diverges from a fresh build (%d cycles)",
						step.r.cfg.Seed, step.wl, res.Cycles, fresh.Cycles)
				}
			}
			if a.Timing().Runs != 2 || derived.Timing().Runs != 1 {
				t.Errorf("runs: %d and %d; want 2 and 1 (memo and timing are per runner)",
					a.Timing().Runs, derived.Timing().Runs)
			}
		})
	}
}
