package static_test

import (
	"testing"

	"arcsim/internal/conformance"
	"arcsim/internal/core"
	"arcsim/internal/static"
	"arcsim/internal/trace"
	"arcsim/internal/workload"
)

// twoThreads builds a named two-thread trace from the given event
// streams, appending End markers.
func twoThreads(name string, t0, t1 []trace.Event) *trace.Trace {
	return &trace.Trace{Name: name, Threads: [][]trace.Event{
		append(t0, trace.End()),
		append(t1, trace.End()),
	}}
}

func analyze(t *testing.T, tr *trace.Trace) *static.Analysis {
	t.Helper()
	an, err := static.Analyze(tr)
	if err != nil {
		t.Fatalf("Analyze(%s): %v", tr.Name, err)
	}
	return an
}

const base = core.Addr(0x1000)

func TestSingleThreadIsAlwaysDRF(t *testing.T) {
	tr := &trace.Trace{Name: "single", Threads: [][]trace.Event{{
		trace.Write(base, 8),
		trace.Acquire(0),
		trace.Write(base, 8),
		trace.Release(0),
		trace.Read(base, 8),
		trace.End(),
	}}}
	an := analyze(t, tr)
	if !an.ProvenDRF() {
		t.Fatalf("single-thread program not proven DRF: %v", an.Conflicts())
	}
	if st := an.Stats(); st.Threads != 1 || st.Regions != 4 || st.Shared != 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestUnsynchronizedWritesConflict(t *testing.T) {
	tr := twoThreads("racy",
		[]trace.Event{trace.Write(base, 8)},
		[]trace.Event{trace.Write(base+4, 8)},
	)
	an := analyze(t, tr)
	if an.Verdict() != static.MayConflict {
		t.Fatal("overlapping unsynchronized writes not predicted")
	}
	cs := an.Conflicts()
	if len(cs) != 1 {
		t.Fatalf("want 1 predicted conflict, got %v", cs)
	}
	c := cs[0]
	want := core.MaskRange(4, 4) // bytes 4..7 overlap
	if c.Line != core.LineOf(base) || c.Bytes != want || !c.AWrites || !c.BWrites {
		t.Fatalf("unexpected conflict record: %+v", c)
	}
	r0 := core.RegionID{Core: 0, Seq: 0}
	r1 := core.RegionID{Core: 1, Seq: 0}
	if !an.PredictsPair(c.Line, r0, r1) || !an.PredictsPair(c.Line, r1, r0) {
		t.Fatal("PredictsPair should hold symmetrically for the racy pair")
	}
	if an.PredictsPair(c.Line, r0, core.RegionID{Core: 0, Seq: 1}) {
		t.Fatal("same-thread pair must never be predicted")
	}
}

func TestDisjointBytesOfOneLineAreDRF(t *testing.T) {
	tr := twoThreads("disjoint-bytes",
		[]trace.Event{trace.Write(base, 8)},
		[]trace.Event{trace.Write(base+8, 8)},
	)
	if an := analyze(t, tr); !an.ProvenDRF() {
		t.Fatalf("byte-disjoint writes predicted as conflicting: %v", an.Conflicts())
	}
}

func TestReadSharingIsDRF(t *testing.T) {
	tr := twoThreads("read-shared",
		[]trace.Event{trace.Read(base, 8)},
		[]trace.Event{trace.Read(base, 8)},
	)
	if an := analyze(t, tr); !an.ProvenDRF() {
		t.Fatalf("read-read sharing predicted as conflicting: %v", an.Conflicts())
	}
}

func TestLocksetProtection(t *testing.T) {
	locked := func(lock uint32, evs ...trace.Event) []trace.Event {
		out := []trace.Event{trace.Acquire(lock)}
		out = append(out, evs...)
		return append(out, trace.Release(lock))
	}
	if an := analyze(t, twoThreads("locked",
		locked(7, trace.Write(base, 8)),
		locked(7, trace.Write(base, 8)),
	)); !an.ProvenDRF() {
		t.Fatalf("common-lock writes predicted as conflicting: %v", an.Conflicts())
	}
	if an := analyze(t, twoThreads("different-locks",
		locked(7, trace.Write(base, 8)),
		locked(8, trace.Write(base, 8)),
	)); an.Verdict() != static.MayConflict {
		t.Fatal("disjoint-lock writes must be predicted")
	}
	// One side unlocked: still a conflict.
	if an := analyze(t, twoThreads("half-locked",
		locked(7, trace.Write(base, 8)),
		[]trace.Event{trace.Write(base, 8)},
	)); an.Verdict() != static.MayConflict {
		t.Fatal("lock vs no-lock writes must be predicted")
	}
}

func TestReentrantAndNestedLocks(t *testing.T) {
	// Reentrant: the inner region still holds lock 0 (depth 2), and the
	// region between the two releases holds it at depth 1.
	t0 := []trace.Event{
		trace.Acquire(0),
		trace.Acquire(0),
		trace.Write(base, 8),
		trace.Release(0),
		trace.Write(base+8, 8),
		trace.Release(0),
	}
	t1 := []trace.Event{
		trace.Acquire(0),
		trace.Write(base, 16),
		trace.Release(0),
	}
	if an := analyze(t, twoThreads("reentrant", t0, t1)); !an.ProvenDRF() {
		t.Fatalf("reentrant-locked writes predicted as conflicting: %v", an.Conflicts())
	}
	// Nested distinct locks: {0,1} vs {1} share lock 1 → DRF; {0,1} vs
	// {2} are disjoint → conflict.
	nested := []trace.Event{
		trace.Acquire(0),
		trace.Acquire(1),
		trace.Write(base, 8),
		trace.Release(1),
		trace.Release(0),
	}
	inner := core.RegionID{Core: 0, Seq: 2}
	an := analyze(t, twoThreads("nested-shared",
		nested,
		[]trace.Event{trace.Acquire(1), trace.Write(base, 8), trace.Release(1)},
	))
	if !an.ProvenDRF() {
		t.Fatalf("nested {0,1} vs {1} predicted as conflicting: %v", an.Conflicts())
	}
	if ls := an.Lockset(inner); len(ls) != 2 || ls[0] != 0 || ls[1] != 1 {
		t.Fatalf("inner nested region lockset = %v, want [0 1]", ls)
	}
	if an := analyze(t, twoThreads("nested-disjoint",
		nested,
		[]trace.Event{trace.Acquire(2), trace.Write(base, 8), trace.Release(2)},
	)); an.Verdict() != static.MayConflict {
		t.Fatal("nested {0,1} vs {2} must be predicted")
	}
}

func TestBarrierPhaseSeparation(t *testing.T) {
	// Same line written by both threads, but in different barrier
	// phases: DRF in every schedule.
	tr := twoThreads("phased",
		[]trace.Event{trace.Write(base, 8), trace.Barrier(0)},
		[]trace.Event{trace.Barrier(0), trace.Write(base, 8)},
	)
	an := analyze(t, tr)
	if !an.ProvenDRF() {
		t.Fatalf("barrier-separated writes predicted as conflicting: %v", an.Conflicts())
	}
	r0p0 := core.RegionID{Core: 0, Seq: 0} // t0's write, phase 0
	r1p1 := core.RegionID{Core: 1, Seq: 1} // t1's write, phase 1
	if !an.HappensBefore(r0p0, r1p1) || an.HappensBefore(r1p1, r0p0) {
		t.Fatal("phase-0 region must happen before phase-1 region")
	}
	if an.Concurrent(r0p0, r1p1) {
		t.Fatal("phase-separated regions must not be concurrent")
	}
	if an.Phase(r0p0) != 0 || an.Phase(r1p1) != 1 {
		t.Fatalf("phases = %d, %d; want 0, 1", an.Phase(r0p0), an.Phase(r1p1))
	}
	// Same-phase regions of different threads are concurrent.
	r1p0 := core.RegionID{Core: 1, Seq: 0}
	if !an.Concurrent(r0p0, r1p0) {
		t.Fatal("same-phase regions must be concurrent")
	}
	// The start clock of t1's phase-1 region has seen t0 past its
	// phase-0 regions (t0 completed region 0 before the barrier edge).
	if c := an.StartClock(r1p1); c[0] <= 0 {
		t.Fatalf("phase-1 start clock %v has not seen t0's phase-0 region", c)
	}
	// Same writes without the barrier: predicted.
	if an := analyze(t, twoThreads("unphased",
		[]trace.Event{trace.Write(base, 8)},
		[]trace.Event{trace.Write(base, 8)},
	)); an.Verdict() != static.MayConflict {
		t.Fatal("same-phase same-line writes must be predicted")
	}
}

func TestSubwordOverlapAcrossLineBoundary(t *testing.T) {
	// t0 writes the last 4 bytes of line 0; t1 reads 2 bytes straddling
	// neither line boundary but overlapping t0's write by one byte, and
	// separately reads the first bytes of line 1. Only the sub-word
	// overlap on line 0 is a conflict; the adjacent-line access is not.
	lineEnd := base + core.LineSize - 4 // bytes 60..63 of line 0
	tr := twoThreads("subword",
		[]trace.Event{trace.Write(lineEnd, 4)},
		[]trace.Event{
			trace.Read(base+core.LineSize-1, 1), // byte 63 of line 0
			trace.Read(base+core.LineSize, 4),   // bytes 0..3 of line 1
		},
	)
	an := analyze(t, tr)
	cs := an.Conflicts()
	if len(cs) != 1 {
		t.Fatalf("want exactly one predicted conflict, got %v", cs)
	}
	c := cs[0]
	if c.Line != core.LineOf(base) {
		t.Fatalf("conflict on line %#x, want line of %#x", uint64(c.Line.Base()), uint64(base))
	}
	if want := core.MaskRange(63, 1); c.Bytes != want {
		t.Fatalf("clash bytes %v, want %v", c.Bytes, want)
	}
	if !c.AWrites || c.BWrites {
		t.Fatalf("kinds wrong: %+v (want writer vs reader)", c)
	}
}

func TestPlantedGeneratorsArePredicted(t *testing.T) {
	for _, plant := range []conformance.Plant{conformance.PlantOverlap, conformance.PlantSubword, conformance.PlantEvict} {
		for seed := int64(1); seed <= 5; seed++ {
			prog := conformance.Generate(conformance.Config{
				Threads: 4, Ops: 60, Phases: 2, Locks: 2,
				SharedLines: 4, Plant: plant,
			}, seed)
			an := analyze(t, prog.Trace)
			if an.ProvenDRF() {
				t.Fatalf("plant %v seed %d: program with a planted conflict proven DRF", plant, seed)
			}
			for _, line := range prog.Planted {
				found := false
				for _, c := range an.Conflicts() {
					if c.Line == line {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("plant %v seed %d: planted line %#x not among predictions %v",
						plant, seed, uint64(line.Base()), an.Conflicts())
				}
			}
		}
	}
}

func TestGeneratedDRFProgramsProven(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		prog := conformance.Generate(conformance.Config{
			Threads: 4, Ops: 120, Phases: 3, Locks: 3, MaxNest: 2,
			SharedLines: 6,
		}, seed)
		if !prog.DRF {
			t.Fatalf("seed %d: generator did not mark the program DRF", seed)
		}
		an := analyze(t, prog.Trace)
		if !an.ProvenDRF() {
			t.Fatalf("seed %d: DRF-by-construction program not proven DRF: %v",
				seed, an.Conflicts()[0])
		}
	}
}

func TestAnalyzeRejectsInvalidTraces(t *testing.T) {
	if _, err := static.Analyze(nil); err == nil {
		t.Fatal("nil trace accepted")
	}
	bad := &trace.Trace{Name: "bad", Threads: [][]trace.Event{{
		trace.Release(0), trace.End(), // release without acquire
	}}}
	if _, err := static.Analyze(bad); err == nil {
		t.Fatal("invalid trace accepted")
	}
}

func TestWorkloadSuiteVerdicts(t *testing.T) {
	// The DRF workload suite must be proven DRF (the STAT experiment
	// reports this as the false-positive rate); the racy workloads must
	// not be.
	params := workload.Params{Threads: 8, Scale: 0.05, Seed: 1}
	for _, spec := range workload.Catalog() {
		tr := spec.Build(params)
		an := analyze(t, tr)
		if spec.Racy && an.ProvenDRF() {
			t.Errorf("%s: racy workload proven DRF", spec.Name)
		}
		if !spec.Racy && !an.ProvenDRF() {
			t.Errorf("%s: DRF workload not proven (first: %v)", spec.Name, an.Conflicts()[0])
		}
	}
}

// BenchmarkAnalyze times the analyzer on STAT's inputs: every catalog
// workload at 16 threads and scale 0.25, the paper-sweep configuration.
func BenchmarkAnalyze(b *testing.B) {
	for _, spec := range workload.Catalog() {
		tr := spec.Build(workload.Params{Threads: 16, Scale: 0.25, Seed: 1})
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := static.Analyze(tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPredictsPairFootprintEdges probes the binary search behind the
// per-pair predicate. A line's entries are sorted by (thread, seq); the
// search must hit the span's first and last entries, miss seqs that fall
// between entries (lock-held regions that skipped the line), miss
// out-of-range regions, handle a single-entry span, and answer false for
// a line nobody touched.
func TestPredictsPairFootprintEdges(t *testing.T) {
	// T0 touches the target line in regions 0 (first entry), 2, and 4
	// (last entry); regions 1 and 3 hold a lock and write a different
	// line. T1's span on the line has exactly one entry.
	tr := twoThreads("footprint-edges",
		[]trace.Event{
			trace.Write(base, 1),
			trace.Acquire(7), trace.Write(base+256, 8), trace.Release(7),
			trace.Write(base+1, 1),
			trace.Acquire(7), trace.Write(base+256, 8), trace.Release(7),
			trace.Write(base+2, 1),
		},
		[]trace.Event{trace.Read(base, 8)},
	)
	an := analyze(t, tr)
	cs := an.Conflicts()
	if len(cs) == 0 {
		t.Fatal("no conflicts predicted")
	}
	line := cs[0].Line
	t1 := core.RegionID{Core: 1, Seq: 0}
	for _, seq := range []uint64{0, 2, 4} {
		r := core.RegionID{Core: 0, Seq: seq}
		if !an.PredictsPair(line, r, t1) {
			t.Errorf("PredictsPair(line, %v, %v) = false, want true", r, t1)
		}
		if !an.PredictsPair(line, t1, r) {
			t.Errorf("PredictsPair is not symmetric for %v", r)
		}
	}
	// Known regions whose seq falls between the span's entries: the
	// search lands on the next entry and must reject the seq mismatch.
	for _, seq := range []uint64{1, 3} {
		r := core.RegionID{Core: 0, Seq: seq}
		if an.PredictsPair(line, r, t1) {
			t.Errorf("PredictsPair(line, %v, %v) = true for an off-line region", r, t1)
		}
	}
	// Past the last entry of the span / unknown regions.
	if an.PredictsPair(line, core.RegionID{Core: 0, Seq: 5}, t1) {
		t.Error("out-of-range region predicted")
	}
	if an.PredictsPair(line, core.RegionID{Core: 1, Seq: 1}, core.RegionID{Core: 0, Seq: 0}) {
		t.Error("unknown region on the single-entry side predicted")
	}
	// A line nobody touched has no entry table at all.
	if an.PredictsPair(line+1, core.RegionID{Core: 0, Seq: 0}, t1) {
		t.Error("absent line predicted")
	}
	// Same-core pairs are never conflicts.
	if an.PredictsPair(line, core.RegionID{Core: 0, Seq: 0}, core.RegionID{Core: 0, Seq: 2}) {
		t.Error("same-core pair predicted")
	}
}
