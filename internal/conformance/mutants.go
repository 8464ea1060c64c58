package conformance

import (
	"fmt"

	"arcsim/internal/ce"
	"arcsim/internal/core"
	"arcsim/internal/machine"
	"arcsim/internal/protocols"
	"arcsim/internal/trace"
)

// Mutant is one deliberately broken protocol variant. The mutation smoke
// test proves the differential checker has teeth: every mutant must be
// caught (its run must fail the oracle cross-check) within a bounded
// number of generated programs of its Expose family.
type Mutant struct {
	// Name is the stable identifier; repro corpus files are named
	// <Name>.trace.
	Name string
	// Design is the honest design the fault is injected into.
	Design string
	// Desc is a one-line description of the fault.
	Desc string
	// Expose is the generator family that (deterministically, or within
	// a few seeds) manifests the fault as an oracle mismatch.
	Expose Config
	// Build assembles the broken (machine, protocol) pair.
	Build BuildFunc
}

// Mutants returns the mutation-smoke suite.
func Mutants() []Mutant {
	return []Mutant{
		{
			Name:   "phantom-conflict",
			Design: protocols.CE,
			Desc:   "fabricates a conflict report at every 3rd region boundary",
			Expose: Config{},
			Build: wrapped(protocols.CE, func(m *machine.Machine, p machine.Protocol) machine.Protocol {
				return &phantomConflict{Protocol: p, m: m, every: 3}
			}),
		},
		{
			Name:   "drop-access",
			Design: protocols.ARC,
			Desc:   "hides every 3rd memory access from the detection engine",
			Expose: Config{Plant: PlantOverlap},
			Build: wrapped(protocols.ARC, func(m *machine.Machine, p machine.Protocol) machine.Protocol {
				return &dropAccess{Protocol: p, every: 3}
			}),
		},
		{
			Name:   "narrow-access",
			Design: protocols.CEPlus,
			Desc:   "truncates every access to its first byte before metadata tracking",
			Expose: Config{Plant: PlantSubword},
			Build: wrapped(protocols.CEPlus, func(m *machine.Machine, p machine.Protocol) machine.Protocol {
				return &narrowAccess{Protocol: p}
			}),
		},
		{
			Name:   "shift-addr",
			Design: protocols.ARC,
			Desc:   "displaces every tracked access by one cache line",
			Expose: Config{Plant: PlantOverlap},
			Build: wrapped(protocols.ARC, func(m *machine.Machine, p machine.Protocol) machine.Protocol {
				return &shiftAddr{Protocol: p}
			}),
		},
		{
			Name:   "ce-drop-read-spill",
			Design: protocols.CE,
			Desc:   "CE loses read bits when spilling evicted metadata to the memory table",
			Expose: Config{Plant: PlantEvict},
			Build:  ceDropReadSpill(protocols.CE),
		},
		{
			Name:   "ce+-drop-read-spill",
			Design: protocols.CEPlus,
			Desc:   "CE+ loses read bits when spilling evicted metadata through the AIM",
			Expose: Config{Plant: PlantEvict},
			Build:  ceDropReadSpill(protocols.CEPlus),
		},
	}
}

// MutantByName finds a mutant by its stable name (repro replay uses the
// corpus file stem).
func MutantByName(name string) (Mutant, bool) {
	for _, m := range Mutants() {
		if m.Name == name {
			return m, true
		}
	}
	return Mutant{}, false
}

// CheckMutant runs tr under the mutant with the golden oracle mirrored
// and reports the resulting mismatch, if any. A non-nil error means the
// fault was caught on this trace.
func CheckMutant(tr *trace.Trace, m Mutant) error {
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("conformance: invalid trace for mutant %s: %w", m.Name, err)
	}
	_, err := runOne(tr, m.Build, true, defaultMaxCycles)
	return err
}

// wrapped lifts a protocol-wrapper constructor into a BuildFunc over the
// honest design's default machine.
func wrapped(design string, wrap func(*machine.Machine, machine.Protocol) machine.Protocol) BuildFunc {
	return func(cores int) (*machine.Machine, machine.Protocol, error) {
		m, p, err := protocols.Build(design, machine.Fitted(cores))
		if err != nil {
			return nil, nil, err
		}
		return m, wrap(m, p), nil
	}
}

// ceDropReadSpill enables the fault-injection knob inside the CE engine
// itself (the one fault a wrapper cannot express: it corrupts the spill
// path deep in the eviction handling).
func ceDropReadSpill(design string) BuildFunc {
	return func(cores int) (*machine.Machine, machine.Protocol, error) {
		m, p, err := protocols.Build(design, machine.Fitted(cores))
		if err != nil {
			return nil, nil, err
		}
		cep, ok := p.(*ce.Protocol)
		if !ok {
			return nil, nil, fmt.Errorf("conformance: design %s is not a CE engine", design)
		}
		cep.DropReadBitsOnSpill = true
		return m, p, nil
	}
}

// ---------------------------------------------------------------------------
// Wrapper mutants. Each embeds the honest protocol and perturbs what the
// detection engine observes; the golden oracle still sees the true
// access stream, so any semantic divergence surfaces as a mismatch.

// phantomConflict fabricates a conflict report at every k-th boundary —
// the false-positive direction (caught even on DRF programs).
type phantomConflict struct {
	machine.Protocol
	m     *machine.Machine
	every int
	calls int
}

func (p *phantomConflict) Boundary(now uint64, c core.CoreID) uint64 {
	p.calls++
	if p.calls%p.every == 0 && p.m.Cfg.Cores > 1 {
		other := core.CoreID((int(c) + 1) % p.m.Cfg.Cores)
		p.m.Report(now, c, core.Conflict{
			Line:       core.LineOf(racyArena) + core.Line(p.calls),
			First:      core.RegionID{Core: other, Seq: p.m.Seq(other)},
			Second:     p.m.Region(c),
			FirstWrote: true,
			SecondKind: core.Write,
			Bytes:      1,
		})
	}
	return p.Protocol.Boundary(now, c)
}

// dropAccess hides every k-th memory access from the engine — the
// missed-conflict direction (caught when a hidden access participates in
// a real conflict).
type dropAccess struct {
	machine.Protocol
	every int
	count int
}

func (d *dropAccess) Access(now uint64, c core.CoreID, acc core.Access) uint64 {
	d.count++
	if d.count%d.every == 0 {
		return 1 // the engine never sees this access
	}
	return d.Protocol.Access(now, c, acc)
}

// narrowAccess truncates every access to its first byte, losing the
// byte-granularity extent — caught by conflicts whose clash excludes the
// accesses' first bytes (the sub-word plant).
type narrowAccess struct {
	machine.Protocol
}

func (n *narrowAccess) Access(now uint64, c core.CoreID, acc core.Access) uint64 {
	acc.Size = 1
	return n.Protocol.Access(now, c, acc)
}

// shiftAddr displaces every tracked access by one line, so conflicts are
// reported on the wrong line (a canonical-key mismatch on any conflict).
type shiftAddr struct {
	machine.Protocol
}

func (s *shiftAddr) Access(now uint64, c core.CoreID, acc core.Access) uint64 {
	acc.Addr += core.LineSize
	return s.Protocol.Access(now, c, acc)
}
