package conformance

import (
	"fmt"

	"arcsim/internal/core"
	"arcsim/internal/machine"
	"arcsim/internal/protocols"
	"arcsim/internal/sim"
	"arcsim/internal/static"
	"arcsim/internal/trace"
)

// Designs returns the protocol lineup the differential runner executes:
// the MESI baseline plus every detecting design.
func Designs() []string {
	return []string{protocols.MESI, protocols.CE, protocols.CEPlus, protocols.ARC}
}

// detects reports whether the named design detects region conflicts
// (everything but the plain-coherence baselines).
func detects(name string) bool {
	return name != protocols.MESI && name != protocols.MOESI
}

// defaultMaxCycles aborts runaway simulations of generated traces; real
// conformance programs finish in well under a million cycles.
const defaultMaxCycles = 50_000_000

// Options tunes a differential check.
type Options struct {
	// Designs overrides the protocol lineup (default Designs()).
	Designs []string
	// MaxCycles bounds each simulation (default defaultMaxCycles).
	MaxCycles uint64
}

func (o Options) normalized() Options {
	if len(o.Designs) == 0 {
		o.Designs = Designs()
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = defaultMaxCycles
	}
	return o
}

// Failure describes one conformance violation. It is an error so that
// property tests and the fuzz target can fail on it directly.
type Failure struct {
	Design string
	Reason string
}

func (f *Failure) Error() string {
	return fmt.Sprintf("conformance: design %s: %s", f.Design, f.Reason)
}

// BuildFunc assembles a (machine, protocol) pair for the given core
// count. Real designs come from DesignBuild; mutants inject faults.
type BuildFunc func(cores int) (*machine.Machine, machine.Protocol, error)

// DesignBuild returns the honest build for a named design on the default
// machine configuration, with the AIM trimmed to fit the core count
// (machine.Fitted): generated, and especially shrunk, traces run on
// arbitrary thread counts.
func DesignBuild(name string) BuildFunc {
	return func(cores int) (*machine.Machine, machine.Protocol, error) {
		return protocols.Build(name, machine.Fitted(cores))
	}
}

// runOne executes tr under one build, optionally mirrored into the
// golden oracle. A run error (including "protocol disagrees with the
// oracle") comes back as the error.
func runOne(tr *trace.Trace, build BuildFunc, oracle bool, maxCycles uint64) (*sim.Result, error) {
	m, p, err := build(tr.NumThreads())
	if err != nil {
		return nil, err
	}
	return sim.Run(m, p, tr, sim.Options{CheckWithOracle: oracle, MaxCycles: maxCycles})
}

// Check runs the full differential check on a generated program. See
// CheckTrace for the asserted properties.
func Check(prog *Program, opt Options) (map[string]*sim.Result, error) {
	return CheckTrace(prog.Trace, prog.DRF, prog.Planted, opt)
}

// CheckTrace executes tr under every design in opt.Designs and asserts:
//
//   - every detecting design reports exactly its run's golden-oracle
//     conflict set (enforced inside sim.Run via CheckWithOracle);
//   - on DRF traces every design — including the baseline, which is
//     also oracle-mirrored then — reports zero conflicts;
//   - every design executes the same number of events and memory
//     accesses (LogAndContinue must execute the full trace everywhere);
//   - each planted line's conflict is reported by every detecting
//     design (planted conflicts are schedule-independent, so presence
//     must not depend on the design's timing);
//   - the static analyzer (internal/static) is sound against every run:
//     each dynamically detected conflict pair was statically predicted
//     (predicted ⊇ detected);
//   - the static analyzer is precise on DRF-by-construction programs:
//     they are proven DRF (their discipline — private arenas, read-only
//     sharing, a fixed protecting lock per shared line, barrier-phased
//     writes — is exactly lockset/phase-provable).
//
// A statically proven-DRF program additionally skips the baseline's
// redundant golden-oracle mirror: the proof covers every schedule, which
// is strictly stronger than one run's oracle emptiness (the detecting
// designs stay oracle-mirrored — their conformance to the oracle is the
// point of the differential check).
//
// Conflict sets of different designs are compared per-run against the
// oracle rather than against each other: latencies differ across
// designs, so racy programs can legitimately race differently under
// each (see experiment T3) — only oracle agreement, DRF emptiness,
// planted presence, and the static predictions are
// schedule-independent.
func CheckTrace(tr *trace.Trace, drf bool, planted []core.Line, opt Options) (map[string]*sim.Result, error) {
	opt = opt.normalized()
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	an, err := static.Analyze(tr)
	if err != nil {
		return nil, &Failure{Design: "static", Reason: err.Error()}
	}
	if drf && !an.ProvenDRF() {
		return nil, &Failure{Design: "static",
			Reason: fmt.Sprintf("precision: DRF-by-construction program not proven DRF; first prediction: %v",
				an.Conflicts()[0])}
	}
	results := make(map[string]*sim.Result, len(opt.Designs))
	var refEvents, refAccesses uint64
	for i, name := range opt.Designs {
		oracle := (drf && !an.ProvenDRF()) || detects(name)
		res, err := runOne(tr, DesignBuild(name), oracle, opt.MaxCycles)
		if err != nil {
			return results, &Failure{Design: name, Reason: err.Error()}
		}
		results[name] = res
		if drf && res.Conflicts != 0 {
			return results, &Failure{Design: name,
				Reason: fmt.Sprintf("%d conflicts on a DRF program: %v", res.Conflicts, res.Exceptions)}
		}
		for _, ex := range res.Exceptions {
			c := ex.Conflict
			if !an.PredictsPair(c.Line, c.First, c.Second) {
				return results, &Failure{Design: name,
					Reason: fmt.Sprintf("soundness: detected conflict not statically predicted: %v vs %v on line %#x (detected by core %d)",
						c.First, c.Second, uint64(c.Line.Base()), ex.DetectedBy)}
			}
		}
		if detects(name) {
			for _, line := range planted {
				if !hasConflictOn(res, line) {
					return results, &Failure{Design: name,
						Reason: fmt.Sprintf("planted conflict on line %#x not reported", uint64(line.Base()))}
				}
			}
		}
		if i == 0 {
			refEvents, refAccesses = res.Events, res.MemAccesses
		} else if res.Events != refEvents || res.MemAccesses != refAccesses {
			return results, &Failure{Design: name,
				Reason: fmt.Sprintf("executed %d events / %d accesses, %s executed %d / %d",
					res.Events, res.MemAccesses, opt.Designs[0], refEvents, refAccesses)}
		}
	}
	return results, nil
}

func hasConflictOn(res *sim.Result, line core.Line) bool {
	for _, e := range res.Exceptions {
		if e.Conflict.Line == line {
			return true
		}
	}
	return false
}
