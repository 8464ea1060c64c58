package sim

import (
	"reflect"
	"testing"

	"arcsim/internal/trace"
	"arcsim/internal/workload"
)

// runPair runs tr twice under the protocol — undirected and with d — and
// returns both results.
func runPair(t *testing.T, pn string, cores int, tr *trace.Trace, d Director) (plain, directed *Result) {
	t.Helper()
	m, p := build(pn, cores)
	plain, err := Run(m, p, tr, Options{CheckWithOracle: pn != "mesi"})
	if err != nil {
		t.Fatalf("%s undirected: %v", pn, err)
	}
	m, p = build(pn, cores)
	directed, err = Run(m, p, tr, Options{CheckWithOracle: pn != "mesi", Director: d})
	if err != nil {
		t.Fatalf("%s directed: %v", pn, err)
	}
	return plain, directed
}

// TestDefaultDirectorIdentity pins the director hook's core contract:
// DefaultDirector (and any director that always defers) reproduces the
// undirected engine's results byte-identically, across every workload
// and design.
func TestDefaultDirectorIdentity(t *testing.T) {
	specs := append(workload.Suite(), workload.RacySuite()...)
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			tr := spec.Build(workload.Params{Threads: 4, Seed: 2, Scale: 0.03})
			for _, pn := range protoNames {
				plain, directed := runPair(t, pn, 4, tr, DefaultDirector{})
				if !reflect.DeepEqual(plain, directed) {
					t.Errorf("%s: DefaultDirector result differs from undirected run", pn)
				}
			}
		})
	}
}

// invalidDirector returns picks the engine must reject: out of range, or
// a core that is not runnable.
type invalidDirector struct{ step int }

func (d *invalidDirector) Pick(h *Sched) int {
	d.step++
	if d.step%2 == 0 {
		return h.Cores() + 3
	}
	for c := range h.Cores() {
		if !h.Core(c).Runnable {
			return c
		}
	}
	return -1
}

func (*invalidDirector) Stepped(int, trace.Event, uint64) {}

// TestDirectorInvalidPicksFallBack: out-of-range and non-runnable picks
// defer to the default policy rather than erroring, so a buggy or
// narrowly-focused director degrades to the default schedule.
func TestDirectorInvalidPicksFallBack(t *testing.T) {
	spec, _ := workload.ByName("racy-sharing")
	tr := spec.Build(workload.Params{Threads: 4, Seed: 2, Scale: 0.05})
	plain, directed := runPair(t, "ce", 4, tr, &invalidDirector{})
	if !reflect.DeepEqual(plain, directed) {
		t.Errorf("invalid picks changed the schedule")
	}
}

// recordingDirector defers every pick but audits the observation
// surface: Stepped event counts and the Region tracking in CoreState.
type recordingDirector struct {
	stepped    int
	boundaries int
	maxRegion  []uint64
}

func (d *recordingDirector) Pick(h *Sched) int {
	if d.maxRegion == nil {
		d.maxRegion = make([]uint64, h.Cores())
	}
	for c := range h.Cores() {
		r := h.Core(c).Region
		if r < d.maxRegion[c] {
			panic("region sequence went backwards")
		}
		d.maxRegion[c] = r
	}
	return -1
}

func (d *recordingDirector) Stepped(c int, ev trace.Event, now uint64) {
	d.stepped++
	switch ev.Op {
	case trace.OpAcquire, trace.OpRelease, trace.OpBarrier, trace.OpEnd:
		d.boundaries++
	}
}

// TestDirectorObservesEveryEvent: each executed trace event (plus each
// implicit final boundary, reported as OpEnd) reaches Stepped, and the
// per-core Region counters advance monotonically.
func TestDirectorObservesEveryEvent(t *testing.T) {
	spec, _ := workload.ByName("dedup")
	tr := spec.Build(workload.Params{Threads: 4, Seed: 1, Scale: 0.03})
	d := &recordingDirector{}
	m, p := build("ce", 4)
	res, err := Run(m, p, tr, Options{Director: d})
	if err != nil {
		t.Fatal(err)
	}
	if d.stepped < int(res.Events) {
		t.Errorf("Stepped saw %d events, run executed %d", d.stepped, res.Events)
	}
	// Every thread ends in a boundary (explicit or implicit), so the
	// director must have seen at least one boundary per thread.
	if d.boundaries < tr.NumThreads() {
		t.Errorf("Stepped saw %d boundaries for %d threads", d.boundaries, tr.NumThreads())
	}
}

// reverseDirector always runs the highest-id runnable core — the polar
// opposite of the default tie-break — to prove a directed schedule still
// satisfies the engine's invariants (oracle agreement, event parity).
type reverseDirector struct{}

func (reverseDirector) Pick(h *Sched) int {
	for c := h.Cores() - 1; c >= 0; c-- {
		if h.Core(c).Runnable {
			return c
		}
	}
	return -1
}

func (reverseDirector) Stepped(int, trace.Event, uint64) {}

func TestDirectedScheduleKeepsInvariants(t *testing.T) {
	for _, name := range []string{"racy-sharing", "dedup"} {
		spec, _ := workload.ByName(name)
		tr := spec.Build(workload.Params{Threads: 4, Seed: 2, Scale: 0.04})
		for _, pn := range []string{"ce", "arc"} {
			plain, directed := runPair(t, pn, 4, tr, reverseDirector{})
			if plain.Events != directed.Events || plain.MemAccesses != directed.MemAccesses {
				t.Errorf("%s/%s: directed run executed %d events / %d accesses, undirected %d / %d",
					name, pn, directed.Events, directed.MemAccesses, plain.Events, plain.MemAccesses)
			}
			if !directed.OracleChecked {
				t.Errorf("%s/%s: directed run skipped the oracle check", name, pn)
			}
		}
	}
}
