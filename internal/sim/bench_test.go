package sim

import (
	"strconv"
	"testing"

	"arcsim/internal/core"
	"arcsim/internal/machine"
	"arcsim/internal/workload"
)

// nullProtocol charges a fixed latency for every access and boundary and
// keeps no state, so a run on it costs the engine loop alone: the pick,
// the sync operations' NoC messages, region bookkeeping and result
// assembly.
type nullProtocol struct{}

func (nullProtocol) Name() string                                   { return "null" }
func (nullProtocol) Access(uint64, core.CoreID, core.Access) uint64 { return 2 }
func (nullProtocol) Boundary(uint64, core.CoreID) uint64            { return 1 }
func (nullProtocol) Reset()                                         {}

// BenchmarkEngineLoop measures the engine loop apart from protocol cost:
// fluidanimate, the lock- and barrier-heavy catalog workload, on the null
// protocol at 16 and 64 cores. The caches are shrunk because the null
// protocol never touches them.
func BenchmarkEngineLoop(b *testing.B) {
	spec, ok := workload.ByName("fluidanimate")
	if !ok {
		b.Fatal("workload fluidanimate missing")
	}
	for _, n := range []int{16, 64} {
		tr := spec.Build(workload.Params{Threads: n, Seed: 1, Scale: 0.25})
		cfg := machine.Default(n)
		cfg.L1SizeBytes = 16 * core.LineSize
		cfg.L1Ways = 2
		cfg.LLCSliceBytes = 64 * core.LineSize
		cfg.LLCWays = 4
		m := machine.New(cfg)
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				m.Reset()
				res, err := Run(m, nullProtocol{}, tr, Options{})
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}
