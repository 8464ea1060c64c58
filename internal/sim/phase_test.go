package sim

import (
	"context"
	"encoding/json"
	"runtime"
	"sync/atomic"
	"testing"

	"arcsim/internal/core"
	"arcsim/internal/machine"
	"arcsim/internal/protocols"
	"arcsim/internal/static"
	"arcsim/internal/trace"
)

// phasedTrace builds a barrier-phased trace whose per-phase footprints
// are disjoint and small enough to satisfy PlanPhases' no-eviction
// gates on the default machine config: per-thread private lines (some
// written under a lock, so segment lock handling is exercised) plus
// per-phase read-only shared lines. Thread 1 ends exactly at the last
// barrier to exercise the empty-final-segment path. With racy set,
// phase 1 adds a lock-protected shared write and an unsynchronized
// write-write clash between threads 0 and 1 — ineligible for
// PlanPhases, but used to exercise the stitcher's exception rebasing
// directly.
func phasedTrace(threads, phases int, racy bool) *trace.Trace {
	tr := &trace.Trace{Name: "phased-test", Threads: make([][]trace.Event, threads)}
	line := func(p, t, j int) core.Addr {
		return core.Addr(uint64((p*threads+t)*8+j+1) * core.LineSize)
	}
	roLine := func(p, j int) core.Addr {
		return core.Addr(uint64(0x4000+p*8+j) * core.LineSize)
	}
	sharedLine := func(p int) core.Addr {
		return core.Addr(uint64(0x4800+p) * core.LineSize)
	}
	racyLine := core.Addr(uint64(0x5001) * core.LineSize)
	for t := 0; t < threads; t++ {
		var evs []trace.Event
		for p := 0; p < phases; p++ {
			for j := 0; j < 4; j++ {
				evs = append(evs,
					trace.Write(line(p, t, j), 8),
					trace.Read(line(p, t, j), 8),
					trace.Read(line(p, t, j)+16, 4),
				)
			}
			evs = append(evs,
				trace.Read(roLine(p, 0), 8),
				trace.Read(roLine(p, 1), 4),
				trace.Acquire(uint32(100+p)),
				trace.Write(line(p, t, 4), 8),
				trace.Release(uint32(100+p)),
			)
			if racy && p == 1 {
				// The clash opens the phase so both racy regions are
				// temporally overlapping regardless of lock ordering;
				// compute padding keeps them open long enough for the
				// lazy detectors.
				if t < 2 {
					evs = append(evs,
						trace.Write(racyLine, 8),
						trace.Compute(500),
						trace.Read(racyLine, 8),
					)
				}
				evs = append(evs,
					trace.Acquire(uint32(200)),
					trace.Write(sharedLine(p), 8),
					trace.Release(uint32(200)),
				)
			}
			if p < phases-1 {
				evs = append(evs, trace.Barrier(uint32(p)))
			}
		}
		if t == 1 {
			// Strip phase's tail so the thread ends exactly at the last
			// barrier: its final segment is empty.
			cut := len(evs)
			for cut > 0 && evs[cut-1].Op != trace.OpBarrier {
				cut--
			}
			if cut > 0 {
				evs = evs[:cut]
			}
		}
		if t == 0 {
			evs = append(evs, trace.End())
		}
		tr.Threads[t] = evs
	}
	return tr
}

func phaseTestConfig(cores int) machine.Config {
	return machine.Default(cores)
}

// TestRunPhasedByteIdentical is the engine tier's core property: for an
// eligible trace, phase-parallel simulation is byte-identical to the
// straight-line run on every design.
func TestRunPhasedByteIdentical(t *testing.T) {
	const cores = 4
	tr := phasedTrace(cores, 3, false)
	an, err := static.Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	if an.Phases() != 3 {
		t.Fatalf("Phases() = %d, want 3", an.Phases())
	}
	for _, name := range []string{protocols.MESI, protocols.CE, protocols.CEPlus, protocols.ARC} {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := phaseTestConfig(cores)
			plan := PlanPhases(an, tr, cfg)
			if plan == nil {
				t.Fatal("PlanPhases returned nil for an eligible trace")
			}
			if plan.Phases() != 3 {
				t.Fatalf("plan.Phases() = %d, want 3", plan.Phases())
			}
			opt := Options{CheckWithOracle: true}

			m, proto, err := protocols.Build(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			straight, err := Run(m, proto, tr, opt)
			if err != nil {
				t.Fatal(err)
			}

			sj, err := json.Marshal(straight)
			if err != nil {
				t.Fatal(err)
			}
			// Run at the host's GOMAXPROCS and at 1, where one worker
			// runs every phase and each after the first starts on a
			// Reset machine.
			for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
				var builds atomic.Int32
				buildFn := func() (*machine.Machine, machine.Protocol, error) {
					builds.Add(1)
					return protocols.Build(name, cfg)
				}
				prev := runtime.GOMAXPROCS(procs)
				phased, err := RunPhased(context.Background(), buildFn, tr, plan, opt)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				// Workers build lazily, so one that finds the queue
				// drained builds nothing: with several workers the count
				// lies between 1 and one per worker. One worker must
				// build exactly once, so every later phase runs on a
				// Reset machine.
				got, most := int(builds.Load()), min(procs, plan.Phases())
				if procs == 1 && got != 1 || got < 1 || got > most {
					t.Errorf("GOMAXPROCS %d: %d machines built, want 1 with one worker, at most one per worker (%d) otherwise", procs, got, most)
				}
				pj, err := json.Marshal(phased)
				if err != nil {
					t.Fatal(err)
				}
				if string(sj) != string(pj) {
					t.Errorf("GOMAXPROCS %d: phased result differs from straight-line:\nstraight: %s\nphased:   %s", procs, sj, pj)
				}
			}
			if straight.Conflicts != 0 {
				t.Errorf("%s: unexpected conflicts in a DRF trace", name)
			}
		})
	}
}

// TestPlanPhasesIneligibility checks the planner's fallback gates.
func TestPlanPhasesIneligibility(t *testing.T) {
	const cores = 4
	tr := phasedTrace(cores, 3, false)
	an, err := static.Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("locked-shared-write", func(t *testing.T) {
		// DRF (lock-protected), but a written line touched by more than
		// one thread can be remotely reclassified across a boundary.
		sh := &trace.Trace{Name: "locked", Threads: make([][]trace.Event, cores)}
		for c := 0; c < cores; c++ {
			sh.Threads[c] = []trace.Event{
				trace.Acquire(7),
				trace.Write(core.Addr(0x9000*core.LineSize), 8),
				trace.Release(7),
				trace.Barrier(0),
				trace.Read(core.Addr(uint64(0x9100+c)*core.LineSize), 8),
			}
		}
		san, err := static.Analyze(sh)
		if err != nil {
			t.Fatal(err)
		}
		if !san.ProvenDRF() {
			t.Fatal("lock-protected trace should be proven DRF")
		}
		if PlanPhases(san, sh, phaseTestConfig(cores)) != nil {
			t.Error("cross-thread written line must be ineligible")
		}
	})

	t.Run("may-conflict", func(t *testing.T) {
		racy := phasedTrace(cores, 3, true)
		ran, err := static.Analyze(racy)
		if err != nil {
			t.Fatal(err)
		}
		if ran.ProvenDRF() {
			t.Fatal("racy trace unexpectedly proven DRF")
		}
		if PlanPhases(ran, racy, phaseTestConfig(cores)) != nil {
			t.Error("MayConflict trace must be ineligible")
		}
	})

	t.Run("failstop-policy", func(t *testing.T) {
		cfg := phaseTestConfig(cores)
		cfg.Policy = core.FailStop
		if PlanPhases(an, tr, cfg) != nil {
			t.Error("FailStop config must be ineligible")
		}
	})

	t.Run("fractional-energy", func(t *testing.T) {
		cfg := phaseTestConfig(cores)
		cfg.Energy.FlitHopPJ = 6.5
		if PlanPhases(an, tr, cfg) != nil {
			t.Error("fractional dynamic energy constants must be ineligible")
		}
	})

	t.Run("single-phase", func(t *testing.T) {
		flat := &trace.Trace{Name: "flat", Threads: make([][]trace.Event, cores)}
		for c := 0; c < cores; c++ {
			flat.Threads[c] = []trace.Event{
				trace.Write(core.Addr(uint64(c+1)*core.LineSize), 8),
				trace.End(),
			}
		}
		fan, err := static.Analyze(flat)
		if err != nil {
			t.Fatal(err)
		}
		if PlanPhases(fan, flat, phaseTestConfig(cores)) != nil {
			t.Error("single-phase trace must be ineligible")
		}
	})

	t.Run("cross-phase-line", func(t *testing.T) {
		cross := &trace.Trace{Name: "cross", Threads: make([][]trace.Event, cores)}
		for c := 0; c < cores; c++ {
			cross.Threads[c] = []trace.Event{
				trace.Write(core.Addr(uint64(c+1)*core.LineSize), 8),
				trace.Barrier(0),
				// Same line touched again after the barrier.
				trace.Read(core.Addr(uint64(c+1)*core.LineSize), 8),
			}
		}
		can, err := static.Analyze(cross)
		if err != nil {
			t.Fatal(err)
		}
		if PlanPhases(can, cross, phaseTestConfig(cores)) != nil {
			t.Error("a line touched in two phases must be ineligible")
		}
	})

	t.Run("thread-mismatch", func(t *testing.T) {
		if PlanPhases(an, tr, phaseTestConfig(cores*2)) != nil {
			t.Error("thread/core mismatch must be ineligible")
		}
	})
}

// TestPhaseFenceTranslationInvariance pins the property stitching relies
// on: simulating one phase segment standalone (local time 0) produces
// the same timing the straight-line run produces for that phase after
// the fence, because NoC/DRAM contention state depends only on
// now - winStart.
func TestPhaseFenceTranslationInvariance(t *testing.T) {
	const cores = 4
	tr := phasedTrace(cores, 3, false)
	an, err := static.Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := phaseTestConfig(cores)
	plan := PlanPhases(an, tr, cfg)
	if plan == nil {
		t.Fatal("PlanPhases returned nil")
	}
	// Segment cycle counts must chain to the straight-line total: each
	// intermediate segment ends at its release instant, which is where
	// the next phase starts.
	m, proto, err := protocols.Build(protocols.ARC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	straight, err := Run(m, proto, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for p := 0; p < plan.Phases(); p++ {
		mm, pp, err := protocols.Build(protocols.ARC, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mode := modeSegment
		if p == plan.Phases()-1 {
			mode = modeSegmentFinal
		}
		seg, err := runContext(context.Background(), mm, pp, plan.segments[p], Options{}, mode)
		if err != nil {
			t.Fatal(err)
		}
		total += seg.Cycles
	}
	if total != straight.Cycles {
		t.Errorf("chained segment cycles %d != straight-line %d", total, straight.Cycles)
	}
}

// TestStitchRebasesExceptions drives the stitcher's exception rebasing
// directly on a racy trace (which PlanPhases itself refuses): segment
// runs report conflicts in segment-local cycles and region seqs, and
// the stitcher must map them back onto whole-trace coordinates exactly
// as the straight-line run records them.
func TestStitchRebasesExceptions(t *testing.T) {
	const cores = 4
	tr := phasedTrace(cores, 3, true)
	an, err := static.Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := phaseTestConfig(cores)
	plan := &PhasePlan{
		segments: splitPhases(tr, an.Phases()),
		starts:   an.PhaseStarts(),
	}

	m, proto, err := protocols.Build(protocols.ARC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	straight, err := Run(m, proto, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(straight.Exceptions) == 0 {
		t.Fatal("racy trace produced no exceptions")
	}

	segs := make([]*Result, plan.Phases())
	for p := range segs {
		mm, pp, err := protocols.Build(protocols.ARC, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mode := modeSegment
		if p == plan.Phases()-1 {
			mode = modeSegmentFinal
		}
		segs[p], err = runContext(context.Background(), mm, pp, plan.segments[p], Options{}, mode)
		if err != nil {
			t.Fatal(err)
		}
	}
	stitched := stitch(tr, plan, segs, cfg)
	if len(stitched.Exceptions) != len(straight.Exceptions) {
		t.Fatalf("stitched %d exceptions, straight-line %d", len(stitched.Exceptions), len(straight.Exceptions))
	}
	for i := range stitched.Exceptions {
		got, want := stitched.Exceptions[i], straight.Exceptions[i]
		if got != want {
			t.Errorf("exception %d: stitched %+v != straight %+v", i, got, want)
		}
	}
	if stitched.Conflicts != straight.Conflicts {
		t.Errorf("stitched Conflicts %d != straight %d", stitched.Conflicts, straight.Conflicts)
	}
	if stitched.Cycles != straight.Cycles {
		t.Errorf("stitched Cycles %d != straight %d", stitched.Cycles, straight.Cycles)
	}
}
