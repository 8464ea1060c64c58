package bench

import (
	"encoding/json"
	"testing"

	"arcsim/internal/cache"
	"arcsim/internal/protocols"
	"arcsim/internal/sim"
	"arcsim/internal/workload"
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

// TestPooledRunsMatchFresh proves the pooling contract: a run on a
// recycled (Reset) machine+protocol pair is byte-identical to the same
// run on a freshly built pair. Runner A primes a pair with a canneal
// trace large enough to leave lines in most LLC sets, returns it to the
// pool, then simulates the probe workload on the recycled pair; Runner B
// simulates only the probe workload, so its build is fresh.
func TestPooledRunsMatchFresh(t *testing.T) {
	const cores = 4
	cfg := Config{Scale: 0.02, Seed: 1, Cores: cores}
	canneal, ok := workload.ByName("canneal")
	if !ok {
		t.Fatal("workload canneal missing")
	}
	prime := canneal.Build(workload.Params{Threads: cores, Seed: 2, Scale: 0.5})
	for _, proto := range pooledDesigns {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			a := NewRunner(cfg)
			m, p, err := a.acquire(proto, cores, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sim.Run(m, p, prime, sim.Options{}); err != nil {
				t.Fatalf("priming run: %v", err)
			}
			occupied, sets := 0, 0
			for _, c := range m.LLC {
				seen := make(map[int]bool)
				c.ForEach(func(l *cache.Line) { seen[c.SetIndex(l.Tag)] = true })
				occupied += len(seen)
				sets += c.Config().Sets()
			}
			if 2*occupied < sets {
				t.Fatalf("priming run left lines in %d of %d LLC sets, want at least half", occupied, sets)
			}
			a.release(proto, cores, 0, m, p)

			pooled, err := a.Result("dedup", proto, cores, 0)
			if err != nil {
				t.Fatalf("pooled run: %v", err)
			}
			if s := a.pool[poolKey{proto, cores, 0}]; len(s) != 1 || s[0].m != m {
				t.Fatalf("probe run did not recycle the primed pair")
			}

			b := NewRunner(cfg)
			fresh, err := b.Result("dedup", proto, cores, 0)
			if err != nil {
				t.Fatalf("fresh run: %v", err)
			}

			pj, err := json.Marshal(pooled)
			if err != nil {
				t.Fatal(err)
			}
			fj, err := json.Marshal(fresh)
			if err != nil {
				t.Fatal(err)
			}
			if string(pj) != string(fj) {
				t.Errorf("pooled result diverges from fresh build:\npooled: %s\nfresh:  %s", pj, fj)
			}
		})
	}
}
