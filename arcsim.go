// Package arcsim is a library-grade reimplementation of the systems from
// "Rethinking Support for Region Conflict Exceptions" (Biswas, Zhang,
// Bond, Lucia — IPDPS 2019): an architectural simulator for multicore
// machines that detect region conflicts in hardware, with four designs —
//
//	Mesi    the plain MESI-directory baseline (no detection)
//	CE      Conflict Exceptions over MESI with in-memory metadata
//	CEPlus  CE extended with the on-chip AIM metadata cache
//	ARC     conflict detection over self-invalidation/release-consistency
//	        coherence (the paper's novel design)
//
// The package runs deterministic multithreaded workloads (a built-in
// catalog modelled on the paper's benchmark suite, or custom traces built
// with TraceBuilder) on a configurable simulated machine — private L1s, a
// tiled shared LLC, a 2D-mesh interconnect with contention, DRAM with
// banked row buffers, and an energy model — and reports run time,
// traffic, energy, and every region conflict detected.
//
// Quick start:
//
//	rep, err := arcsim.Run(arcsim.Config{Protocol: arcsim.ARC, Workload: "x264", Cores: 16})
//	if err != nil { ... }
//	fmt.Println(rep)
package arcsim

import (
	"fmt"

	"arcsim/internal/aim"
	"arcsim/internal/config"
	"arcsim/internal/core"
	"arcsim/internal/machine"
	"arcsim/internal/protocols"
	"arcsim/internal/sim"
	"arcsim/internal/workload"
)

// Protocol selects one of the four evaluated designs.
type Protocol string

// The four designs of the paper's evaluation.
const (
	Mesi   Protocol = protocols.MESI
	CE     Protocol = protocols.CE
	CEPlus Protocol = protocols.CEPlus
	ARC    Protocol = protocols.ARC
)

// Protocols returns all designs in the evaluation's canonical order.
func Protocols() []Protocol {
	return []Protocol{Mesi, CE, CEPlus, ARC}
}

// Config describes one simulation run.
type Config struct {
	// Protocol is the design to simulate. Required.
	Protocol Protocol
	// Cores is the number of cores (= threads); power of two up to 64.
	// Defaults to 8.
	Cores int
	// Workload names a catalog workload (see Workloads). Used by Run;
	// ignored by RunTrace.
	Workload string
	// Scale multiplies workload size; 1.0 (default) is the standard
	// evaluation size.
	Scale float64
	// Seed drives workload generation. Defaults to 1.
	Seed int64
	// AIMEntries overrides the AIM capacity for CEPlus and ARC
	// (default 32768 entries). Ignored for Mesi and CE, which have no
	// AIM. Must be divisible across cores into power-of-two sets.
	AIMEntries int
	// FailStop halts the machine at the first conflict (the paper's
	// exception semantics). The default logs conflicts and continues,
	// which keeps racy workloads comparable across designs.
	FailStop bool
	// VerifyWithOracle cross-checks the protocol's conflict set against
	// the golden detector and fails the run on any difference.
	VerifyWithOracle bool
	// MaxCycles aborts the run if simulated time exceeds it (0 = off).
	MaxCycles uint64
	// MachineJSON optionally supplies a full machine description (the
	// JSON written by `arcsim -dump-machine` / internal presets),
	// overriding Cores and the default cache/NoC/DRAM/energy
	// parameters. AIMEntries and FailStop still apply on top.
	MachineJSON []byte
}

func (c Config) normalized() Config {
	if c.Cores == 0 {
		c.Cores = 8
	}
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// WorkloadInfo describes one catalog workload.
type WorkloadInfo struct {
	Name        string
	Description string
	// Racy workloads intentionally contain region conflicts.
	Racy bool
}

// Workloads lists the built-in catalog: fourteen data-race-free
// workloads modelled on the paper's benchmark suite (PARSEC/SPLASH-2
// style) plus three racy variants.
func Workloads() []WorkloadInfo {
	var out []WorkloadInfo
	for _, s := range workload.Catalog() {
		out = append(out, WorkloadInfo{Name: s.Name, Description: s.Desc, Racy: s.Racy})
	}
	return out
}

// Run simulates the named catalog workload under cfg. Besides the
// catalog (see Workloads), three kernels are available by name:
// "falseshare" (byte-level false sharing; DRF at byte granularity),
// "aimstress" (metadata-table pressure for AIM sizing) and
// "phasedisjoint" (barrier phases with disjoint footprints).
func Run(cfg Config) (*Report, error) {
	cfg = cfg.normalized()
	if len(cfg.MachineJSON) > 0 {
		parsed, err := config.Parse(cfg.MachineJSON)
		if err != nil {
			return nil, err
		}
		cfg.Cores = parsed.Cores
	}
	t, err := WorkloadTrace(cfg)
	if err != nil {
		return nil, err
	}
	return runTrace(cfg, t)
}

// RunTrace simulates a custom trace (built with TraceBuilder) under cfg.
// The trace's thread count must equal cfg.Cores.
func RunTrace(cfg Config, t *Trace) (*Report, error) {
	cfg = cfg.normalized()
	if t == nil || t.inner == nil {
		return nil, fmt.Errorf("arcsim: nil trace")
	}
	return runTrace(cfg, t)
}

// DefaultMachineJSON returns the JSON description of the default machine
// for the given core count; edit it and feed it back via
// Config.MachineJSON (or `arcsim -machine file.json`).
func DefaultMachineJSON(cores int) ([]byte, error) {
	mcfg := machine.Default(cores)
	if err := mcfg.Validate(); err != nil {
		return nil, err
	}
	return config.Marshal(mcfg)
}

func runTrace(cfg Config, t *Trace) (*Report, error) {
	mcfg := machine.Default(cfg.Cores)
	if len(cfg.MachineJSON) > 0 {
		parsed, err := config.Parse(cfg.MachineJSON)
		if err != nil {
			return nil, err
		}
		mcfg = parsed
	}
	if cfg.AIMEntries > 0 {
		mcfg.AIM = aim.Config{Entries: cfg.AIMEntries, Ways: 8, Latency: mcfg.AIM.Latency}
	}
	if cfg.FailStop {
		mcfg.Policy = core.FailStop
	}
	m, proto, err := protocols.Build(string(cfg.Protocol), mcfg)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(m, proto, t.inner, sim.Options{
		CheckWithOracle: cfg.VerifyWithOracle,
		MaxCycles:       cfg.MaxCycles,
	})
	if err != nil {
		return nil, err
	}
	return newReport(res), nil
}
