package sim

import (
	"testing"

	"arcsim/internal/machine"
	"arcsim/internal/protocols"
	"arcsim/internal/trace"
	"arcsim/internal/workload"
)

// allocBudget is the allowed per-run allocation count for a warm
// (pooled, Reset) machine+protocol pair. It covers result assembly only
// — the Result struct, counter and energy maps, per-core slices, the
// latency histogram, and trace validation's per-thread lock maps — and
// is deliberately independent of trace length: the simulation core
// itself (scheduler loop, protocol metadata tables, counters) must not
// allocate per event.
const allocBudget = 40

// TestSteadyStateAllocs pins the zero-alloc property of the simulation
// core for all four evaluated designs. It measures a warm pair twice, on
// a small trace and on one ~4x longer; both must fit the same fixed
// budget, which fails if any hot path regresses to per-event allocation.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are not deterministic")
	}
	const cores = 4
	spec, ok := workload.ByName("dedup")
	if !ok {
		t.Fatal("workload dedup missing")
	}
	events := func(tr *trace.Trace) (n int) {
		for _, th := range tr.Threads {
			n += len(th)
		}
		return n
	}
	small := spec.Build(workload.Params{Threads: cores, Seed: 1, Scale: 0.02})
	big := spec.Build(workload.Params{Threads: cores, Seed: 1, Scale: 0.08})
	if be, se := events(big), events(small); be < 3*se {
		t.Fatalf("scale did not grow the trace (%d vs %d events)", be, se)
	}

	for _, proto := range []string{"mesi", "ce", "ce+", "arc"} {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			m, p, err := protocols.Build(proto, machine.Default(cores))
			if err != nil {
				t.Fatal(err)
			}
			runOnce := func(tr *trace.Trace) {
				m.Reset()
				p.Reset()
				if _, err := Run(m, p, tr, Options{}); err != nil {
					t.Fatal(err)
				}
			}
			// Warm once per trace so lazily-grown capacities (metadata
			// tables, counter slots, sync-state maps) reach steady state.
			runOnce(big)
			runOnce(small)

			allocsSmall := testing.AllocsPerRun(3, func() { runOnce(small) })
			allocsBig := testing.AllocsPerRun(3, func() { runOnce(big) })
			t.Logf("allocs/run: small=%v big=%v (%d vs %d events)",
				allocsSmall, allocsBig, events(small), events(big))
			if allocsSmall > allocBudget {
				t.Errorf("small trace: %v allocs/run exceeds budget %d", allocsSmall, allocBudget)
			}
			if allocsBig > allocBudget {
				t.Errorf("4x trace: %v allocs/run exceeds budget %d", allocsBig, allocBudget)
			}
			if allocsBig > allocsSmall+2 {
				t.Errorf("allocations scale with trace length: %v small vs %v 4x", allocsSmall, allocsBig)
			}
		})
	}
}
