package sim

import (
	"strconv"
	"testing"

	"arcsim/internal/core"
	"arcsim/internal/machine"
	"arcsim/internal/trace"
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

// holdOne directs every step as a co-timing director does: it holds one
// core, the highest-numbered, and steps the default pick among the
// others, so that core runs only when no other can. Each step asks
// DefaultExcept, which pays its O(log n) withdraw-and-restore path
// whenever the held core is the winner tree's pick.
type holdOne struct{}

func (holdOne) Pick(h *Sched) int                { return h.DefaultExcept(h.Cores()-1, -1) }
func (holdOne) Stepped(int, trace.Event, uint64) {}

// BenchmarkEngineLoop measures the engine loop apart from protocol cost:
// fluidanimate, the lock- and barrier-heavy catalog workload, on the null
// protocol at 16 and 64 cores. The caches are shrunk because the null
// protocol never touches them. The directed cases run the same loop
// under holdOne, so a directed step's ns/event, like an undirected
// one's, should not grow with the core count.
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
		for _, opt := range []Options{{}, {Director: holdOne{}}} {
			name := strconv.Itoa(n)
			if opt.Director != nil {
				name = "directed/" + name
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				var events uint64
				for i := 0; i < b.N; i++ {
					m.Reset()
					res, err := Run(m, nullProtocol{}, tr, opt)
					if err != nil {
						b.Fatal(err)
					}
					events += res.Events
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			})
		}
	}
}
