package core_test

import (
	"testing"

	"arcsim/internal/core"
	"arcsim/internal/machine"
	"arcsim/internal/protocols"
	"arcsim/internal/sim"
	"arcsim/internal/workload"
)

// reportRecorder wraps a protocol and records the conflicts it reports,
// in order and with repeats across calls: around each call it gives the
// machine an empty conflict set, so each report lands in Exceptions,
// and moves what landed to stream. A key reported twice within one call
// (CE can find one region in both its table and a coherence response)
// is recorded once.
type reportRecorder struct {
	machine.Protocol
	m       *machine.Machine
	scratch *core.ConflictSet
	stream  []core.Conflict
}

func (r *reportRecorder) record(call func() uint64) uint64 {
	real, n := r.m.Conflicts, len(r.m.Exceptions)
	r.scratch.Reset()
	r.m.Conflicts = r.scratch
	lat := call()
	for _, e := range r.m.Exceptions[n:] {
		r.stream = append(r.stream, e.Conflict)
	}
	r.m.Conflicts, r.m.Exceptions = real, r.m.Exceptions[:n]
	return lat
}

func (r *reportRecorder) Access(now uint64, c core.CoreID, acc core.Access) uint64 {
	return r.record(func() uint64 { return r.Protocol.Access(now, c, acc) })
}

func (r *reportRecorder) Boundary(now uint64, c core.CoreID) uint64 {
	return r.record(func() uint64 { return r.Protocol.Boundary(now, c) })
}

// BenchmarkConflictSet times the conflict set alone over the report
// stream of racy-sharing on CE at 64 cores and sim-core's scale 0.25,
// the most conflicted run of the arcbench sim-core matrix: every report
// is Added in order, then the set is Reset for the next iteration.
func BenchmarkConflictSet(b *testing.B) {
	spec, _ := workload.ByName("racy-sharing")
	tr := spec.Build(workload.Params{Threads: 64, Seed: 1, Scale: 0.25})
	m, p, err := protocols.Build(protocols.CE, machine.Default(64))
	if err != nil {
		b.Fatal(err)
	}
	rec := &reportRecorder{Protocol: p, m: m, scratch: core.NewConflictSet()}
	if _, err := sim.Run(m, rec, tr, sim.Options{}); err != nil {
		b.Fatal(err)
	}
	s := core.NewConflictSet()
	for _, c := range rec.stream { // size the set, as a pooled machine's is
		s.Add(c)
	}
	s.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range rec.stream {
			s.Add(c)
		}
		s.Reset()
	}
	b.StopTimer()
	for _, c := range rec.stream {
		s.Add(c)
	}
	b.ReportMetric(float64(len(rec.stream)), "reports")
	b.ReportMetric(float64(s.Len()), "new")
}
