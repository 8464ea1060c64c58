package sim

import (
	"math"
	"testing"

	"arcsim/internal/trace"
)

// TestDegenerateRunsHaveFiniteMetrics pins the zero-cycle/empty-trace
// behaviour of the per-cycle ratio metrics: a run that executes no
// events (or no memory accesses) must report 0 — never NaN or Inf — for
// every utilization and per-access ratio.
func TestDegenerateRunsHaveFiniteMetrics(t *testing.T) {
	cases := []struct {
		name string
		tr   *trace.Trace
	}{
		{"end-only", &trace.Trace{Name: "end-only", Threads: [][]trace.Event{
			{trace.End()},
		}}},
		{"empty-thread", &trace.Trace{Name: "empty-thread", Threads: [][]trace.Event{
			{},
			{trace.End()},
		}}},
		{"compute-only", &trace.Trace{Name: "compute-only", Threads: [][]trace.Event{
			{trace.Compute(10), trace.End()},
			{trace.Compute(3), trace.End()},
		}}},
		{"zero-compute", &trace.Trace{Name: "zero-compute", Threads: [][]trace.Event{
			{trace.Compute(0), trace.End()},
		}}},
		{"single-access", &trace.Trace{Name: "single-access", Threads: [][]trace.Event{
			{trace.Read(0x1000, 8), trace.End()},
		}}},
	}
	finite := func(t *testing.T, name string, v float64) {
		t.Helper()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v, want finite", name, v)
		}
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.tr.Validate(); err != nil {
				t.Fatal(err)
			}
			for _, pn := range protoNames {
				m, p := build(pn, tc.tr.NumThreads())
				res, err := Run(m, p, tc.tr, Options{CheckWithOracle: true})
				if err != nil {
					t.Fatalf("%s: %v", pn, err)
				}
				finite(t, pn+" NoCPeakUtil", res.NoCPeakUtil)
				finite(t, pn+" DRAMPeakUtil", res.DRAMPeakUtil)
				finite(t, pn+" TotalEnergyPJ", res.TotalEnergyPJ)
				if res.Conflicts != 0 {
					t.Errorf("%s: %d conflicts on a degenerate trace", pn, res.Conflicts)
				}
			}
		})
	}
}
