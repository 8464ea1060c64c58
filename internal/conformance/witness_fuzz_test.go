package conformance

import (
	"reflect"
	"testing"

	"arcsim/internal/machine"
	"arcsim/internal/protocols"
	"arcsim/internal/sim"
	"arcsim/internal/static"
	"arcsim/internal/static/witness"
)

// runDirected executes prog under ce with a director, tolerating
// schedule faults (a directed interleaving may deadlock even when the
// default schedule does not).
func runDirected(t *testing.T, prog *Program, d sim.Director) *sim.Result {
	t.Helper()
	m, p, err := protocols.Build(protocols.CE, machine.Fitted(prog.Trace.NumThreads()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(m, p, prog.Trace, sim.Options{
		CheckWithOracle: true,
		MaxCycles:       defaultMaxCycles,
		Director:        d,
	})
	if err != nil {
		if res == nil {
			return nil // deadlock / cycle bound: that schedule detected nothing
		}
		t.Fatalf("directed run: %v\n%s", err, renderTrace(prog.Trace))
	}
	return res
}

// FuzzWitness drives the witness tier's three contracts over
// fuzzer-chosen programs and schedules:
//
//   - identity: DefaultDirector reproduces the undirected engine's
//     result byte-identically (the directed hook perturbs nothing);
//
//   - witness validity: every Confirmed prediction ships a directive
//     whose replay detects a conflict of that record, and the report
//     is the same when replays run ahead on two goroutines;
//
//   - refutation soundness: a refuted pair (static.RefutesPair) is
//     never detected — not by the default schedule, not by the witness
//     replays, and not by a seeded random schedule the default policy
//     would never produce. Soundness proper (detected ⊆ predicted) is
//     asserted on the random schedule too, extending FuzzStatic's
//     default-schedule check to arbitrary interleavings.
//
//     go test ./internal/conformance/ -run='^$' -fuzz=FuzzWitness -fuzztime=30s
func FuzzWitness(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(30), uint8(1), uint8(0), uint8(3), uint64(11))
	f.Add(int64(2), uint8(2), uint8(20), uint8(2), uint8(1), uint8(17), uint64(5))
	f.Add(int64(3), uint8(3), uint8(10), uint8(0), uint8(2), uint8(33), uint64(0))
	f.Add(int64(4), uint8(1), uint8(15), uint8(1), uint8(3), uint8(5), uint64(99))
	f.Add(int64(5), uint8(1), uint8(25), uint8(0), uint8(4), uint8(40), uint64(7))
	f.Add(int64(6), uint8(2), uint8(40), uint8(2), uint8(5), uint8(0), uint64(123))
	f.Fuzz(func(t *testing.T, seed int64, threads, ops, phases, mode, knobs uint8, schedSeed uint64) {
		prog := Generate(fuzzConfig(threads, ops, phases, mode, knobs), seed)
		an, err := static.Analyze(prog.Trace)
		if err != nil {
			t.Fatalf("analyzer rejected a generated program: %v", err)
		}

		// Identity: the default director must not perturb the engine.
		plain := runDirected(t, prog, nil)
		directed := runDirected(t, prog, sim.DefaultDirector{})
		if !reflect.DeepEqual(plain, directed) {
			t.Fatalf("DefaultDirector diverged from the undirected engine\n%s", renderTrace(prog.Trace))
		}

		noRefuted := func(res *sim.Result, how string) {
			if res == nil {
				return
			}
			for _, ex := range res.Exceptions {
				c := ex.Conflict
				if !an.PredictsPair(c.Line, c.First, c.Second) {
					t.Fatalf("soundness (%s): detected %v vs %v on line %#x, not predicted\n%s",
						how, c.First, c.Second, uint64(c.Line.Base()), renderTrace(prog.Trace))
				}
				if an.RefutesPair(c.First, c.Second) {
					t.Fatalf("refutation unsound (%s): detected refuted pair %v vs %v on line %#x\n%s",
						how, c.First, c.Second, uint64(c.Line.Base()), renderTrace(prog.Trace))
				}
			}
		}
		noRefuted(plain, "default")

		// A random schedule the default policy never produces: soundness
		// and refutation soundness must hold for any interleaving.
		noRefuted(runDirected(t, prog, witness.NewRandomDirector(schedSeed)), "random")

		// Witness validity on a small budget.
		opt := witness.Options{MaxReplays: 8, PairLimit: 2, Oracle: true}
		rep, err := witness.Examine(prog.Trace, an, opt)
		if err != nil {
			t.Fatalf("Examine: %v\n%s", err, renderTrace(prog.Trace))
		}
		// Run-ahead: replays started ahead of the budget walk on two
		// goroutines must leave the serial report unchanged.
		opt.Jobs = 2
		par, err := witness.Examine(prog.Trace, an, opt)
		if err != nil {
			t.Fatalf("Examine at 2 jobs: %v\n%s", err, renderTrace(prog.Trace))
		}
		if !reflect.DeepEqual(par, rep) {
			t.Fatalf("Examine at 2 jobs differs from the serial report\n%s", renderTrace(prog.Trace))
		}
		for _, p := range rep.Predictions {
			if p.Status != witness.Confirmed {
				continue
			}
			ok, res, err := witness.Replay(prog.Trace, an, p.Conflict, *p.Witness, witness.Options{Oracle: true})
			if err != nil {
				t.Fatalf("witness replay: %v", err)
			}
			if !ok {
				t.Fatalf("confirmed witness %v did not replay its conflict\n%s",
					p.Witness, renderTrace(prog.Trace))
			}
			noRefuted(res, "witness-replay")
		}
	})
}
