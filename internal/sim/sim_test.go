package sim

import (
	"testing"

	"arcsim/internal/aim"
	"arcsim/internal/arc"
	"arcsim/internal/ce"
	"arcsim/internal/coherence"
	"arcsim/internal/core"
	"arcsim/internal/machine"
	"arcsim/internal/trace"
	"arcsim/internal/workload"
)

// protoNames are the four designs of the evaluation.
var protoNames = []string{"mesi", "ce", "ce+", "arc"}

// build constructs a machine + protocol pair for tests.
func build(name string, cores int) (*machine.Machine, machine.Protocol) {
	cfg := machine.Default(cores)
	cfg.L1SizeBytes = 16 * core.LineSize
	cfg.L1Ways = 2
	cfg.LLCSliceBytes = 64 * core.LineSize
	cfg.LLCWays = 4
	cfg.AIM = aim.Config{Entries: 32 * cores, Ways: 4, Latency: 3}
	if name == "ce" {
		cfg.AIM = aim.Config{}
	}
	m := machine.New(cfg)
	switch name {
	case "mesi":
		return m, coherence.New(m)
	case "ce", "ce+":
		return m, ce.New(m)
	case "arc":
		return m, arc.New(m)
	}
	panic("unknown protocol " + name)
}

func TestDRFWorkloadsHaveNoConflicts(t *testing.T) {
	for _, spec := range workload.Suite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			tr := spec.Build(workload.Params{Threads: 4, Seed: 2, Scale: 0.03})
			for _, pn := range protoNames {
				m, p := build(pn, 4)
				res, err := Run(m, p, tr, Options{CheckWithOracle: true})
				if err != nil {
					t.Fatalf("%s: %v", pn, err)
				}
				if res.Conflicts != 0 {
					t.Errorf("%s: %d conflicts in DRF workload: %v",
						pn, res.Conflicts, res.Exceptions[0])
				}
				if pn != "mesi" && res.Conflicts == 0 && len(res.Exceptions) != 0 {
					t.Errorf("%s: exceptions without conflicts", pn)
				}
			}
		})
	}
}

func TestRacyWorkloadsDetectConflicts(t *testing.T) {
	for _, spec := range workload.RacySuite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			tr := spec.Build(workload.Params{Threads: 4, Seed: 2, Scale: 0.05})
			var counts []int
			for _, pn := range []string{"ce", "ce+", "arc"} {
				m, p := build(pn, 4)
				res, err := Run(m, p, tr, Options{CheckWithOracle: true})
				if err != nil {
					t.Fatalf("%s: %v", pn, err)
				}
				if res.Conflicts == 0 {
					t.Errorf("%s: racy workload produced no conflicts", pn)
				}
				counts = append(counts, res.Conflicts)
			}
			// All detecting designs found the oracle set, so counts match.
			if counts[0] != counts[1] || counts[1] != counts[2] {
				t.Errorf("designs disagree on conflict count: %v", counts)
			}
		})
	}
}

func TestLockEnforcesMutualExclusion(t *testing.T) {
	// Two threads increment a shared counter 50 times, always under
	// the lock: zero conflicts under every design.
	mk := func(locked bool) *trace.Trace {
		tr := &trace.Trace{Name: "mutex"}
		for th := 0; th < 2; th++ {
			var evs []trace.Event
			for i := 0; i < 50; i++ {
				if locked {
					evs = append(evs, trace.Acquire(1))
				}
				evs = append(evs, trace.Read(0x9000, 8), trace.Write(0x9000, 8))
				if locked {
					evs = append(evs, trace.Release(1))
				}
				evs = append(evs, trace.Compute(5))
			}
			evs = append(evs, trace.End())
			tr.Threads = append(tr.Threads, evs)
		}
		return tr
	}
	for _, pn := range []string{"ce", "ce+", "arc"} {
		m, p := build(pn, 2)
		res, err := Run(m, p, mk(true), Options{CheckWithOracle: true})
		if err != nil {
			t.Fatalf("%s locked: %v", pn, err)
		}
		if res.Conflicts != 0 {
			t.Errorf("%s: locked counter raised %d conflicts", pn, res.Conflicts)
		}
		m, p = build(pn, 2)
		res, err = Run(m, p, mk(false), Options{CheckWithOracle: true})
		if err != nil {
			t.Fatalf("%s unlocked: %v", pn, err)
		}
		if res.Conflicts == 0 {
			t.Errorf("%s: unsynchronized counter raised no conflicts", pn)
		}
	}
}

func TestBarrierSeparatesRegions(t *testing.T) {
	mk := func(withBarrier bool) *trace.Trace {
		t0 := []trace.Event{trace.Write(0xA000, 8)}
		t1 := []trace.Event{trace.Compute(200)}
		if withBarrier {
			t0 = append(t0, trace.Barrier(0))
			t1 = append(t1, trace.Barrier(0))
		}
		t1 = append(t1, trace.Read(0xA000, 8), trace.End())
		t0 = append(t0, trace.Compute(1000), trace.End())
		return &trace.Trace{Name: "barrier", Threads: [][]trace.Event{t0, t1}}
	}
	for _, pn := range []string{"ce+", "arc"} {
		m, p := build(pn, 2)
		res, err := Run(m, p, mk(true), Options{CheckWithOracle: true})
		if err != nil {
			t.Fatalf("%s: %v", pn, err)
		}
		if res.Conflicts != 0 {
			t.Errorf("%s: barrier-separated accesses conflicted", pn)
		}
		m, p = build(pn, 2)
		res, err = Run(m, p, mk(false), Options{CheckWithOracle: true})
		if err != nil {
			t.Fatalf("%s: %v", pn, err)
		}
		if res.Conflicts != 1 {
			t.Errorf("%s: racy pair found %d conflicts, want 1", pn, res.Conflicts)
		}
	}
}

// TestRandomMixMatchesOracle is the repository's central integration
// property: random valid traces (racy and DRF), full machine, locks and
// barriers, all detecting protocols — conflict sets must equal the
// oracle's exactly.
func TestRandomMixMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		racy := seed%2 == 0
		tr := workload.Random(workload.MixParams{
			Threads:         3,
			Seed:            seed,
			EventsPerThread: 250,
			SharedLines:     10,
			Locks:           3,
			Racy:            racy,
			Barriers:        2,
		})
		for _, pn := range []string{"ce", "ce+", "arc"} {
			m, p := build(pn, 3)
			if _, err := Run(m, p, tr, Options{CheckWithOracle: true}); err != nil {
				t.Fatalf("seed %d %s: %v", seed, pn, err)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	spec, _ := workload.ByName("fluidanimate")
	tr := spec.Build(workload.Params{Threads: 4, Seed: 3, Scale: 0.03})
	for _, pn := range protoNames {
		m1, p1 := build(pn, 4)
		r1, err := Run(m1, p1, tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		m2, p2 := build(pn, 4)
		r2, err := Run(m2, p2, tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r1.Cycles != r2.Cycles || r1.NoC != r2.NoC || r1.DRAM != r2.DRAM ||
			r1.TotalEnergyPJ != r2.TotalEnergyPJ || r1.Conflicts != r2.Conflicts {
			t.Errorf("%s: nondeterministic results:\n%+v\n%+v", pn, r1, r2)
		}
	}
}

func TestFailStopHalts(t *testing.T) {
	spec, _ := workload.ByName("racy-sharing")
	tr := spec.Build(workload.Params{Threads: 4, Seed: 2, Scale: 0.05})

	cfg := machine.Default(4)
	cfg.AIM = aim.Config{Entries: 128, Ways: 4, Latency: 3}
	cfg.Policy = core.FailStop
	m := machine.New(cfg)
	res, err := Run(m, ce.New(m), tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("FailStop did not halt")
	}
	if res.Conflicts != 1 {
		t.Errorf("halted run recorded %d conflicts, want 1", res.Conflicts)
	}
	// A log-and-continue run of the same trace executes more events.
	m2, p2 := build("ce+", 4)
	res2, err := Run(m2, p2, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Events <= res.Events {
		t.Errorf("fail-stop (%d events) did not stop earlier than log-and-continue (%d)",
			res.Events, res2.Events)
	}
}

func TestThreadCountMismatch(t *testing.T) {
	m, p := build("mesi", 4)
	tr := &trace.Trace{Name: "x", Threads: [][]trace.Event{{trace.End()}}}
	if _, err := Run(m, p, tr, Options{}); err == nil {
		t.Fatal("thread/core mismatch accepted")
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	m, p := build("mesi", 2)
	spec, _ := workload.ByName("swaptions")
	tr := spec.Build(workload.Params{Threads: 2, Seed: 1, Scale: 0.05})
	if _, err := Run(m, p, tr, Options{MaxCycles: 100}); err == nil {
		t.Fatal("cycle limit not enforced")
	}
}

func TestResultAccounting(t *testing.T) {
	spec, _ := workload.ByName("streamcluster")
	tr := spec.Build(workload.Params{Threads: 4, Seed: 1, Scale: 0.03})
	m, p := build("ce+", 4)
	res, err := Run(m, p, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Events == 0 || res.MemAccesses == 0 {
		t.Errorf("empty accounting: %+v", res)
	}
	if res.TotalEnergyPJ <= 0 {
		t.Error("no energy")
	}
	if res.L1.Hits+res.L1.Misses != res.MemAccesses {
		// Each memory access probes the L1 exactly once in every design.
		t.Errorf("L1 probes %d != accesses %d",
			res.L1.Hits+res.L1.Misses, res.MemAccesses)
	}
	if res.BarrierWaits == 0 {
		t.Error("barrier-phased workload recorded no barrier waits")
	}
	if res.Counters["ce.spills"] == 0 && res.Counters["ce.meta_reads"] == 0 {
		t.Error("CE counters empty")
	}
}

func TestMESIBaselineFastest(t *testing.T) {
	// Sanity on the central performance shape: the baseline without
	// detection must not be slower than CE on a sharing-heavy workload.
	spec, _ := workload.ByName("x264")
	tr := spec.Build(workload.Params{Threads: 4, Seed: 1, Scale: 0.05})
	cycles := map[string]uint64{}
	for _, pn := range protoNames {
		m, p := build(pn, 4)
		res, err := Run(m, p, tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cycles[pn] = res.Cycles
	}
	if cycles["ce"] < cycles["mesi"] {
		t.Errorf("CE (%d cycles) beat the MESI baseline (%d)", cycles["ce"], cycles["mesi"])
	}
}

func TestPerCoreAccounting(t *testing.T) {
	spec, _ := workload.ByName("bodytrack")
	tr := spec.Build(workload.Params{Threads: 4, Seed: 1, Scale: 0.03})
	m, p := build("mesi", 4)
	res, err := Run(m, p, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CoreFinish) != 4 || len(res.CoreEvents) != 4 {
		t.Fatalf("per-core slices sized %d/%d", len(res.CoreFinish), len(res.CoreEvents))
	}
	var evSum uint64
	var maxFinish uint64
	for c := 0; c < 4; c++ {
		if res.CoreFinish[c] == 0 || res.CoreEvents[c] == 0 {
			t.Errorf("core %d has empty accounting", c)
		}
		evSum += res.CoreEvents[c]
		if res.CoreFinish[c] > maxFinish {
			maxFinish = res.CoreFinish[c]
		}
	}
	if evSum != res.Events {
		t.Errorf("per-core events %d != total %d", evSum, res.Events)
	}
	if maxFinish != res.Cycles {
		t.Errorf("max core finish %d != cycles %d", maxFinish, res.Cycles)
	}
}
