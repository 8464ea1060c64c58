package arcsim

import (
	"fmt"
	"strings"

	"arcsim/internal/static"
	"arcsim/internal/workload"
)

// PredictedConflict describes one statically predicted region conflict:
// two groups of concurrent, lock-disjoint regions on different threads
// that touch overlapping bytes of a cache line with at least one write.
// Unlike Conflict, a prediction is schedule-independent — it says the
// bytes *may* race in some interleaving, not that they did in one run.
type PredictedConflict struct {
	// LineAddr is the base address of the cache line.
	LineAddr uint64
	// Phase is the barrier phase both sides run in.
	Phase int
	// ThreadA/RegionA and ThreadB/RegionB name the earliest conflicting
	// region of each side (aggregated reports cover Pairs raw pairs).
	ThreadA, ThreadB int
	RegionA, RegionB uint64
	// AWrites/BWrites report which sides contribute writes.
	AWrites, BWrites bool
	// Bytes is the number of clashing bytes.
	Bytes int
	// Pairs is how many raw region pairs this record aggregates.
	Pairs int
}

func (c PredictedConflict) String() string {
	k := func(w bool) string {
		if w {
			return "W"
		}
		return "R"
	}
	return fmt.Sprintf("line %#x phase %d: thread %d region %d (%s) vs thread %d region %d (%s), %d bytes, %d pair(s)",
		c.LineAddr, c.Phase, c.ThreadA, c.RegionA, k(c.AWrites),
		c.ThreadB, c.RegionB, k(c.BWrites), c.Bytes, c.Pairs)
}

// AnalysisReport is the result of statically analyzing a trace. When
// ProvenDRF is true the program is data-race-free under every schedule
// the simulator can produce, so no design (CE, CE+, ARC) can raise a
// region-conflict exception on it — simulation for conflict-detection
// purposes is redundant (see examples/racedetect for the pre-filter
// pattern). Otherwise Conflicts lists every byte range that may race.
// The prediction is sound (every dynamically detectable conflict is
// predicted) but conservative (a prediction may be unrealizable); see
// DESIGN.md for the contract.
type AnalysisReport struct {
	Trace   string
	Threads int
	Events  int
	// Accesses counts memory accesses; Regions the synchronization-free
	// regions across all threads; Phases the barrier phases.
	Accesses int
	Regions  int
	Phases   int
	// Lines counts distinct cache lines touched; SharedLines those
	// touched by more than one thread.
	Lines       int
	SharedLines int

	ProvenDRF bool
	Conflicts []PredictedConflict
}

// String renders the report for terminals.
func (r *AnalysisReport) String() string {
	var b strings.Builder
	verdict := "may-conflict"
	if r.ProvenDRF {
		verdict = "proven-DRF"
	}
	fmt.Fprintf(&b, "static analysis of %s: %s\n", r.Trace, verdict)
	fmt.Fprintf(&b, "  threads %d, events %d, accesses %d, regions %d, phases %d\n",
		r.Threads, r.Events, r.Accesses, r.Regions, r.Phases)
	fmt.Fprintf(&b, "  lines touched %d (%d shared)\n", r.Lines, r.SharedLines)
	if !r.ProvenDRF {
		fmt.Fprintf(&b, "  predicted conflicts: %d\n", len(r.Conflicts))
		for i, c := range r.Conflicts {
			if i == 16 {
				fmt.Fprintf(&b, "    ... %d more\n", len(r.Conflicts)-i)
				break
			}
			fmt.Fprintf(&b, "    %s\n", c)
		}
	}
	return b.String()
}

// Analyze runs the static region-conflict analyzer over the trace
// without simulating it. The analysis is interleaving-agnostic: it
// decomposes each thread into synchronization-free regions, computes
// Eraser-style locksets and a barrier-phase happens-before order, and
// predicts every conflict that can manifest under any schedule.
func (t *Trace) Analyze() (*AnalysisReport, error) {
	if t == nil || t.inner == nil {
		return nil, fmt.Errorf("arcsim: nil trace")
	}
	an, err := static.Analyze(t.inner)
	if err != nil {
		return nil, err
	}
	st := an.Stats()
	rep := &AnalysisReport{
		Trace:       t.inner.Name,
		Threads:     st.Threads,
		Events:      st.Events,
		Accesses:    st.Accesses,
		Regions:     st.Regions,
		Phases:      st.Phases,
		Lines:       st.Lines,
		SharedLines: st.Shared,
		ProvenDRF:   an.ProvenDRF(),
	}
	for _, c := range an.Conflicts() {
		rep.Conflicts = append(rep.Conflicts, predictedConflict(c))
	}
	return rep, nil
}

// predictedConflict adapts one analyzer record to the facade type
// (shared by Trace.Analyze and Trace.Witness).
func predictedConflict(c static.PredictedConflict) PredictedConflict {
	return PredictedConflict{
		LineAddr: uint64(c.Line.Base()),
		Phase:    c.Phase,
		ThreadA:  int(c.RegionA.Core),
		RegionA:  c.RegionA.Seq,
		ThreadB:  int(c.RegionB.Core),
		RegionB:  c.RegionB.Seq,
		AWrites:  c.AWrites,
		BWrites:  c.BWrites,
		Bytes:    c.Bytes.Count(),
		Pairs:    c.Pairs,
	}
}

// WorkloadTrace builds the trace Run would simulate under cfg —
// cfg.Workload (including the kernels outside the catalog that Run
// names), sized by Cores, Scale, and Seed — without running it, e.g. to
// feed Trace.Analyze or Trace.Encode.
func WorkloadTrace(cfg Config) (*Trace, error) {
	cfg = cfg.normalized()
	gen, ok := workload.Generator(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("arcsim: unknown workload %q (see Workloads())", cfg.Workload)
	}
	return &Trace{inner: gen(workload.Params{Threads: cfg.Cores, Seed: cfg.Seed, Scale: cfg.Scale})}, nil
}
