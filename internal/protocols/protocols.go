// Package protocols is the factory that assembles a (machine, protocol)
// pair for one of the four evaluated designs, applying each design's AIM
// policy: the baseline and the original CE run without an AIM; CE+ and
// ARC require one.
package protocols

import (
	"fmt"

	"arcsim/internal/aim"
	"arcsim/internal/arc"
	"arcsim/internal/ce"
	"arcsim/internal/coherence"
	"arcsim/internal/machine"
)

// Design names, in the evaluation's canonical order.
const (
	MESI   = "mesi"
	CE     = "ce"
	CEPlus = "ce+"
	ARC    = "arc"
	// Ablated ARC variants for the A1 design-choice study.
	ARCNoRO      = "arc-noro"
	ARCNoPrivate = "arc-nopriv"
	// MOESI variants for the A2 baseline-coherence study: the paper
	// describes CE as extending "M(O)ESI-based coherence".
	MOESI       = "moesi"
	CEPlusMOESI = "ce+moesi"
	// Word-granularity metadata variants for the A3 precision study.
	CEPlusWord = "ce+word"
	ARCWord    = "arc-word"
)

// Names returns all design names in canonical order.
func Names() []string { return []string{MESI, CE, CEPlus, ARC} }

// Detecting returns the designs that detect region conflicts.
func Detecting() []string { return []string{CE, CEPlus, ARC} }

// MachineConfig returns cfg as the named design runs it, or the error
// Build would return for it. It is the designs' whole rulebook: it
// rejects an unknown design, applies the design's AIM policy (disabled
// for MESI, MOESI and CE; the default AIM when unset for the others),
// and validates the result with machine.Config.Validate. It allocates
// nothing on success, so a caller can check a configuration without
// building a machine.
func MachineConfig(name string, cfg machine.Config) (machine.Config, error) {
	switch name {
	case MESI, CE, MOESI:
		cfg.AIM = aim.Config{}
	case CEPlus, ARC, ARCNoRO, ARCNoPrivate, CEPlusMOESI, CEPlusWord, ARCWord:
		if cfg.AIM.Entries == 0 {
			cfg.AIM = aim.DefaultConfig()
		}
	default:
		return machine.Config{}, fmt.Errorf("protocols: unknown design %q (want one of %v)", name, Names())
	}
	if err := cfg.Validate(); err != nil {
		return machine.Config{}, fmt.Errorf("protocols: %s: %w", name, err)
	}
	return cfg, nil
}

// Build assembles a machine for the configuration MachineConfig returns
// for name and cfg, and the named protocol engine on top of it. It fails
// exactly when MachineConfig does, before allocating anything.
func Build(name string, cfg machine.Config) (*machine.Machine, machine.Protocol, error) {
	cfg, err := MachineConfig(name, cfg)
	if err != nil {
		return nil, nil, err
	}
	m := machine.New(cfg)
	var p machine.Protocol
	switch name {
	case MESI:
		p = coherence.New(m)
	case MOESI:
		eng := coherence.New(m)
		eng.UseOwned = true
		p = eng
	case CE, CEPlus:
		p = ce.New(m)
	case CEPlusMOESI:
		cep := ce.New(m)
		cep.Mesi().UseOwned = true
		p = cep
	case CEPlusWord:
		cep := ce.New(m)
		cep.WordGranularity = true
		p = cep
	case ARCWord:
		a := arc.New(m)
		a.WordGranularity = true
		p = a
	case ARC:
		p = arc.New(m)
	case ARCNoRO:
		p = arc.NewWithOptions(m, arc.Options{DisableReadOnly: true})
	case ARCNoPrivate:
		p = arc.NewWithOptions(m, arc.Options{DisablePrivate: true})
	}
	return m, p, nil
}
