package conformance

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"arcsim/internal/machine"
	"arcsim/internal/protocols"
	"arcsim/internal/sim"
	"arcsim/internal/static"
)

// resultJSON is the byte-identity yardstick for tiered execution: two
// results are the same iff their canonical JSON encodings (what the
// store persists and the daemon serves) are equal byte for byte.
func resultJSON(t *testing.T, res *sim.Result) []byte {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkTiered asserts both tiered-execution identities for one program
// under every design:
//
//   - oracle skip: on a statically proven-DRF trace, the oracle-checked
//     run is byte-identical to the unchecked run with only the
//     OracleChecked flag set — soundness guarantees the oracle mirror
//     can never fire, so skipping it changes nothing;
//   - phase parallel: when PlanPhases accepts the trace, RunPhased's
//     stitched result is byte-identical to the straight-line run.
//
// When PlanPhases refuses (racy, planted, shared-write, multi-phase
// footprints, ...) the fallback path is exercised instead: plan == nil
// and the straight-line result stands alone.
func checkTiered(t *testing.T, prog *Program) {
	t.Helper()
	an, err := static.Analyze(prog.Trace)
	if err != nil {
		t.Fatalf("analyzer rejected a generated program: %v", err)
	}
	cores := prog.Trace.NumThreads()
	if cores == 0 {
		return // degenerate: nothing to simulate
	}
	mcfg := machine.Fitted(cores)
	plan := sim.PlanPhases(an, prog.Trace, mcfg)
	for _, name := range Designs() {
		straight, err := runOne(prog.Trace, DesignBuild(name), false, defaultMaxCycles)
		if err != nil {
			t.Fatalf("%s straight run: %v", name, err)
		}
		if an.ProvenDRF() {
			oracle, err := runOne(prog.Trace, DesignBuild(name), true, defaultMaxCycles)
			if err != nil {
				t.Fatalf("%s oracle run: %v", name, err)
			}
			skipped := *straight
			skipped.OracleChecked = true
			if a, b := resultJSON(t, oracle), resultJSON(t, &skipped); !bytes.Equal(a, b) {
				t.Fatalf("%s: oracle-skip not byte-identical on proven-DRF program\noracle:  %s\nskipped: %s\n%s",
					name, a, b, renderTrace(prog.Trace))
			}
		}
		if plan == nil {
			continue
		}
		name := name
		phased, err := sim.RunPhased(context.Background(),
			func() (*machine.Machine, machine.Protocol, error) {
				return protocols.Build(name, mcfg)
			},
			prog.Trace, plan, sim.Options{MaxCycles: defaultMaxCycles})
		if err != nil {
			t.Fatalf("%s phased run: %v", name, err)
		}
		if a, b := resultJSON(t, straight), resultJSON(t, phased); !bytes.Equal(a, b) {
			t.Fatalf("%s: phase-parallel not byte-identical\nstraight: %s\nphased:   %s\n%s",
				name, a, b, renderTrace(prog.Trace))
		}
	}
}

// FuzzPhasePar feeds fuzzer-chosen generator parameters through the
// tiered-execution identities (see checkTiered): every reachable
// program must produce byte-identical results under the oracle-skip and
// phase-parallel tiers, or be refused by PlanPhases and fall back.
//
//	go test ./internal/conformance/ -run='^$' -fuzz=FuzzPhasePar -fuzztime=30s
func FuzzPhasePar(f *testing.F) {
	// Phase-disjoint (mode 6) entries plan phase-parallel; the others
	// exercise the refusal/fallback path and the oracle-skip identity.
	f.Add(int64(1), uint8(3), uint8(20), uint8(1), uint8(6), uint8(3))
	f.Add(int64(2), uint8(2), uint8(15), uint8(0), uint8(6), uint8(17))
	f.Add(int64(3), uint8(1), uint8(25), uint8(1), uint8(6), uint8(40))
	f.Add(int64(4), uint8(3), uint8(30), uint8(1), uint8(0), uint8(33))
	f.Add(int64(5), uint8(2), uint8(20), uint8(2), uint8(1), uint8(5))
	f.Add(int64(6), uint8(2), uint8(40), uint8(2), uint8(5), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, threads, ops, phases, mode, knobs uint8) {
		checkTiered(t, Generate(fuzzConfig(threads, ops, phases, mode, knobs), seed))
	})
}

// TestPhaseDisjointGeneratorEligible pins that the phase-disjoint
// family actually reaches the phase-parallel tier — without it the fuzz
// identities would be vacuous — and that the tiered identities hold on
// a deterministic sample of both eligible and refused families.
func TestPhaseDisjointGeneratorEligible(t *testing.T) {
	for s := int64(0); s < 4; s++ {
		prog := Generate(Config{PhaseDisjoint: true, Phases: 3}, s)
		an, err := static.Analyze(prog.Trace)
		if err != nil {
			t.Fatal(err)
		}
		if !an.ProvenDRF() {
			t.Fatalf("seed %d: phase-disjoint program not proven DRF: %v", s, an.Conflicts())
		}
		if sim.PlanPhases(an, prog.Trace, machine.Fitted(prog.Trace.NumThreads())) == nil {
			t.Fatalf("seed %d: phase-disjoint program refused by PlanPhases", s)
		}
		checkTiered(t, prog)
	}
	// A racy program must be refused (fallback path) but still satisfy
	// the (trivial) identities.
	prog := Generate(Config{Racy: true, Phases: 3}, 1)
	an, err := static.Analyze(prog.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if sim.PlanPhases(an, prog.Trace, machine.Fitted(prog.Trace.NumThreads())) != nil {
		t.Fatal("racy program accepted by PlanPhases")
	}
	checkTiered(t, prog)
}
