// Phase-parallel simulation: barrier phases whose predicted footprints
// are disjoint are independent by construction — the static analyzer
// proves no cache line crosses a phase boundary, and the simulator's
// phase fence (machine.PhaseFence at every barrier release) makes the
// machine's transient contention state a pure function of post-barrier
// traffic. Such phases can be simulated on parallel goroutines, each on
// a fresh (or freshly Reset) machine, and the per-phase results stitched
// into a run byte-identical to the straight-line simulation (FuzzPhasePar
// and the conformance engine enforce exactly this).
//
// Eligibility (PlanPhases) is deliberately strict. Beyond footprint
// disjointness it requires that the straight-line run could never evict —
// per L1 set, per LLC-slice set, and per AIM-bank set the whole trace's
// distinct lines fit in the ways — because an eviction in the warm
// straight-line machine would have no counterpart in a cold per-phase
// machine. When any gate fails PlanPhases returns nil and callers fall
// back to straight-line simulation; the tier is an optimization, never a
// semantic change.
package sim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"arcsim/internal/cache"
	"arcsim/internal/core"
	"arcsim/internal/energy"
	"arcsim/internal/machine"
	"arcsim/internal/static"
	"arcsim/internal/trace"
)

// BuildMachine constructs a fresh machine plus protocol engine for phase
// segments. RunPhased calls it once per worker goroutine, possibly
// concurrently, so it must be safe for concurrent use (the usual closure
// over protocols.Build with a value Config is).
type BuildMachine func() (*machine.Machine, machine.Protocol, error)

// PhasePlan is a proof, produced by PlanPhases, that a trace's barrier
// phases may be simulated independently. It carries the per-phase trace
// segments and the region-seq rebasing table.
type PhasePlan struct {
	segments []*trace.Trace
	// starts[t][p] is the whole-trace region seq of thread t's first
	// region in phase p (static.Analysis.PhaseStarts): segment-local
	// region seqs rebase by adding it.
	starts [][]uint64
}

// Phases returns the number of independent phase segments.
func (p *PhasePlan) Phases() int { return len(p.segments) }

// PlanPhases decides whether tr may be simulated phase-parallel on a
// machine configured by cfg, using an's footprint and phase information
// (an must be the analysis of tr). It returns nil — fall back to
// straight-line simulation — unless every eligibility gate passes.
func PlanPhases(an *static.Analysis, tr *trace.Trace, cfg machine.Config) *PhasePlan {
	if an == nil || tr == nil || cfg.Validate() != nil {
		return nil
	}
	// FailStop halts the machine mid-run; a halted prefix cannot be
	// stitched from independently simulated phases.
	if cfg.Policy != core.LogAndContinue {
		return nil
	}
	if tr.NumThreads() != cfg.Cores || an.Phases() < 2 {
		return nil
	}
	// Conflict detection can mutate cache state across a thread's
	// boundary: ARC's eager join, for one, reclassifies the victim's
	// resident line when the *other* thread's conflicting access lands —
	// possibly after the victim already passed its barrier boundary — and
	// the reclassified line is then self-invalidated (and counted) at a
	// boundary in the NEXT phase. A cold per-phase machine has no such
	// carried line, so phased counters would drift. Soundness (detected ⊆
	// predicted) means a ProvenDRF trace can never take any conflict
	// path on any design, closing off every such leak.
	if !an.ProvenDRF() {
		return nil
	}
	// Stitching sums per-phase dynamic energy in plain float64 adds. With
	// integer per-event constants every partial sum is an exact integer
	// (well below 2^53), so the sum is associative and bit-identical to
	// the straight-line accumulation order; with fractional constants it
	// may differ in the last ulp, so such models are ineligible.
	for _, c := range []float64{
		cfg.Energy.L1AccessPJ, cfg.Energy.LLCAccessPJ, cfg.Energy.AIMAccessPJ,
		cfg.Energy.FlitHopPJ, cfg.Energy.DRAMPerBytePJ,
	} {
		if c != math.Trunc(c) {
			return nil
		}
	}

	// Gate 1: every line's footprint must be confined to one phase, so
	// no cache or metadata state built in one phase is ever consulted in
	// another — and a line touched by more than one thread must be
	// read-only. Written sharing is excluded even when lock-protected:
	// a writer's access can reclassify another thread's resident copy
	// (recall-downgrade) after that thread already passed its barrier
	// boundary, leaving a line the NEXT phase's boundary work observes
	// in the warm straight-line machine but a cold per-phase machine
	// lacks. Read-only sharing induces no such remote mutation on any
	// design (verified byte-identical across all ten engines).
	type lineInfo struct {
		phase   int
		threads uint64 // bitmask; cfg.Cores <= 64 per machine.Validate
		wrote   bool
	}
	lines := make(map[core.Line]*lineInfo)
	ok := true
	an.ForEachLineTouch(func(line core.Line, thread, phase int, wrote bool) {
		li := lines[line]
		if li == nil {
			lines[line] = &lineInfo{phase: phase, threads: 1 << uint(thread), wrote: wrote}
			return
		}
		if li.phase != phase {
			ok = false
		}
		li.threads |= 1 << uint(thread)
		li.wrote = li.wrote || wrote
	})
	if !ok {
		return nil
	}
	for _, li := range lines {
		if li.wrote && li.threads&(li.threads-1) != 0 {
			return nil
		}
	}

	// Gate 2: the straight-line run must never evict. Count the whole
	// trace's distinct lines per cache set and require each count to fit
	// in the ways: private L1s per toucher thread, LLC slices and AIM
	// banks per home tile. Set mapping uses the cache configs alone
	// (cache.Config.SetOf) — instantiating a real LLC just to index it
	// would allocate megabytes per plan.
	l1Cfg := cache.Config{Name: "l1", SizeBytes: cfg.L1SizeBytes, Ways: cfg.L1Ways}
	llcCfg := cache.Config{Name: "llc", SizeBytes: cfg.LLCSliceBytes, Ways: cfg.LLCWays, IndexHash: true}
	var aimCfg cache.Config
	hasAIM := cfg.AIM.Entries > 0
	if hasAIM {
		aimCfg = cache.Config{
			Name:      "aim",
			SizeBytes: cfg.AIM.Entries / cfg.Cores * core.LineSize,
			Ways:      cfg.AIM.Ways,
			IndexHash: true,
		}
	}
	l1Count := make(map[int]int)  // thread*l1Sets + set
	llcCount := make(map[int]int) // tile*llcSets + set
	aimCount := make(map[int]int) // tile*aimSets + set
	for line, li := range lines {
		l1Set := l1Cfg.SetOf(line)
		for t := 0; t < cfg.Cores; t++ {
			if li.threads&(1<<uint(t)) == 0 {
				continue
			}
			k := t*l1Cfg.Sets() + l1Set
			if l1Count[k]++; l1Count[k] > cfg.L1Ways {
				return nil
			}
		}
		tile := int(uint64(line) % uint64(cfg.Cores))
		k := tile*llcCfg.Sets() + llcCfg.SetOf(line)
		if llcCount[k]++; llcCount[k] > cfg.LLCWays {
			return nil
		}
		if hasAIM {
			k = tile*aimCfg.Sets() + aimCfg.SetOf(line)
			if aimCount[k]++; aimCount[k] > cfg.AIM.Ways {
				return nil
			}
		}
	}

	return &PhasePlan{
		segments: splitPhases(tr, an.Phases()),
		starts:   an.PhaseStarts(),
	}
}

// splitPhases slices tr into per-phase segment traces: each intermediate
// segment ends with (and includes) its closing barrier, the final
// segment runs to the thread's end. Segments share tr's event storage.
func splitPhases(tr *trace.Trace, phases int) []*trace.Trace {
	segs := make([]*trace.Trace, phases)
	for p := range segs {
		segs[p] = &trace.Trace{
			Name:    tr.Name,
			Threads: make([][]trace.Event, len(tr.Threads)),
		}
	}
	for t, evs := range tr.Threads {
		p, start := 0, 0
		for i, ev := range evs {
			if ev.Op == trace.OpBarrier {
				segs[p].Threads[t] = evs[start : i+1]
				p, start = p+1, i+1
			}
		}
		segs[p].Threads[t] = evs[start:]
	}
	return segs
}

// RunPhased simulates tr phase-parallel under plan (from PlanPhases over
// the same trace and machine config) and returns a result byte-identical
// to RunContext on one fresh machine. At most GOMAXPROCS workers run the
// phases; each builds one machine with build and Resets it between the
// phases it runs.
func RunPhased(ctx context.Context, build BuildMachine, tr *trace.Trace, plan *PhasePlan, opt Options) (*Result, error) {
	return RunPhasedHooked(ctx, build, tr, plan, opt, nil)
}

// RunPhasedHooked is RunPhased with a per-phase observation hook: when
// non-nil, hook(p) is called just before phase p's segment simulates and
// the function it returns when the segment completes. The TIER
// experiment times segments this way to compute the critical-path
// (achievable) speedup on hosts whose GOMAXPROCS hides it; the engine
// itself stays wall-clock-free, so the hook must not influence results.
// With GOMAXPROCS=1 one worker runs the segments in turn, so
// hook-measured durations are not inflated by preempted neighbors.
func RunPhasedHooked(ctx context.Context, build BuildMachine, tr *trace.Trace, plan *PhasePlan, opt Options, hook func(phase int) func()) (*Result, error) {
	if plan == nil || plan.Phases() == 0 {
		return nil, fmt.Errorf("sim: RunPhased needs a non-nil phase plan")
	}
	phases := plan.Phases()
	results := make([]*Result, phases)
	errs := make([]error, phases)
	cfgs := make([]machine.Config, phases)

	par := runtime.GOMAXPROCS(0)
	if par > phases {
		par = phases
	}
	if par < 1 {
		par = 1
	}
	// Each worker builds one machine and Resets it between its phases:
	// a Reset pair is byte-identical to a fresh build (the
	// machine.Protocol contract) and clears only what the last segment
	// touched, where a build allocates a whole machine and its first
	// segment faults the memory in.
	next := make(chan int, phases)
	for p := 0; p < phases; p++ {
		next <- p
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var m *machine.Machine
			var proto machine.Protocol
			for p := range next {
				if m == nil {
					var err error
					if m, proto, err = build(); err != nil {
						errs[p] = fmt.Errorf("sim: phase %d machine: %w", p, err)
						m = nil
						continue
					}
				} else {
					m.Reset()
					proto.Reset()
				}
				cfgs[p] = m.Cfg
				mode := modeSegment
				if p == phases-1 {
					mode = modeSegmentFinal
				}
				var stop func()
				if hook != nil {
					stop = hook(p)
				}
				results[p], errs[p] = runContext(ctx, m, proto, plan.segments[p], opt, mode)
				if stop != nil {
					stop()
				}
			}
		}()
	}
	wg.Wait()
	for p := 0; p < phases; p++ {
		if errs[p] != nil {
			return nil, errs[p]
		}
	}
	return stitch(tr, plan, results, cfgs[0]), nil
}

// stitch folds the per-phase results into one whole-run result, exactly
// reproducing what the straight-line simulation accumulates.
func stitch(tr *trace.Trace, plan *PhasePlan, segs []*Result, cfg machine.Config) *Result {
	last := segs[len(segs)-1]
	res := &Result{
		Protocol:      last.Protocol,
		Workload:      tr.Name,
		Cores:         last.Cores,
		CoreFinish:    make([]uint64, last.Cores),
		CoreEvents:    make([]uint64, last.Cores),
		EnergyPJ:      make(map[energy.Component]float64),
		Counters:      make(map[string]uint64),
		OracleChecked: true,
	}

	// offset[p] is the global cycle at which phase p begins: intermediate
	// segments end (and report Cycles) at their barrier's release
	// instant, which is exactly when the straight-line run starts the
	// next phase's events.
	offset := make([]uint64, len(segs))
	for p := 1; p < len(segs); p++ {
		offset[p] = offset[p-1] + segs[p-1].Cycles
	}

	for p, s := range segs {
		res.Events += s.Events
		res.MemAccesses += s.MemAccesses
		res.LockWaits += s.LockWaits
		res.BarrierWaits += s.BarrierWaits
		for c := range s.CoreEvents {
			res.CoreEvents[c] += s.CoreEvents[c]
		}

		res.L1.Hits += s.L1.Hits
		res.L1.Misses += s.L1.Misses
		res.L1.Evictions += s.L1.Evictions
		res.L1.DirtyEvictions += s.L1.DirtyEvictions
		res.LLC.Hits += s.LLC.Hits
		res.LLC.Misses += s.LLC.Misses
		res.LLC.Evictions += s.LLC.Evictions
		res.LLC.DirtyEvictions += s.LLC.DirtyEvictions
		res.AIM.Hits += s.AIM.Hits
		res.AIM.Misses += s.AIM.Misses
		res.AIM.Fills += s.AIM.Fills
		res.AIM.DirtyWritebacks += s.AIM.DirtyWritebacks
		res.NoC.Messages += s.NoC.Messages
		res.NoC.Flits += s.NoC.Flits
		res.NoC.FlitHops += s.NoC.FlitHops
		res.NoC.Bytes += s.NoC.Bytes
		res.NoC.QueueCycles += s.NoC.QueueCycles
		res.DRAM.Reads += s.DRAM.Reads
		res.DRAM.Writes += s.DRAM.Writes
		res.DRAM.BytesRead += s.DRAM.BytesRead
		res.DRAM.BytesWrite += s.DRAM.BytesWrite
		res.DRAM.RowHits += s.DRAM.RowHits
		res.DRAM.RowMisses += s.DRAM.RowMisses
		res.DRAM.QueueCycles += s.DRAM.QueueCycles
		res.DRAM.MetadataBytes += s.DRAM.MetadataBytes

		// The phase fence resets smoothed utilization at every barrier
		// release, so the straight-line peak is the max of the per-phase
		// peaks — a bitwise-exact max, not an approximation.
		if s.NoCPeakUtil > res.NoCPeakUtil {
			res.NoCPeakUtil = s.NoCPeakUtil
		}
		if s.DRAMPeakUtil > res.DRAMPeakUtil {
			res.DRAMPeakUtil = s.DRAMPeakUtil
		}

		for comp, pj := range s.EnergyPJ {
			res.EnergyPJ[comp] += pj
		}
		res.AccessLatency.Merge(&s.AccessLatency)

		// Conflict keys include the line, and footprints are
		// phase-disjoint, so per-phase dedup partitions the whole-run
		// dedup: counts sum, and exceptions concatenate in phase order
		// (all phase-p accesses are processed before any phase-p+1
		// access) with cycles and region seqs rebased to whole-trace
		// coordinates.
		res.Conflicts += s.Conflicts
		for _, ex := range s.Exceptions {
			ex.Cycle += offset[p]
			ex.Conflict.First.Seq += plan.starts[int(ex.Conflict.First.Core)][p]
			ex.Conflict.Second.Seq += plan.starts[int(ex.Conflict.Second.Core)][p]
			res.Exceptions = append(res.Exceptions, ex)
		}

		for k, v := range s.Counters {
			res.Counters[k] += v
		}
		res.Halted = res.Halted || s.Halted
		res.OracleChecked = res.OracleChecked && s.OracleChecked
	}

	res.Cycles = offset[len(segs)-1] + last.Cycles
	for c := range res.CoreFinish {
		// CoreFinish is monotone in simulated time, so each core's
		// whole-run finish is its final-segment finish rebased.
		res.CoreFinish[c] = offset[len(segs)-1] + last.CoreFinish[c]
	}

	// Segment runs skip FinishStatics: distributing the static charge
	// over segments would round differently from the straight-line
	// single charge (the per-cycle rate is not exactly representable).
	// Recompute it in one step, exactly as the straight-line run does.
	meter := energy.NewMeter(cfg.Energy)
	meter.StaticCycles(res.Cycles, cfg.Cores, cfg.AIM.Entries)
	res.EnergyPJ[energy.Static] = meter.PJ(energy.Static)
	res.TotalEnergyPJ = 0
	for _, comp := range energy.Components() {
		res.TotalEnergyPJ += res.EnergyPJ[comp]
	}
	return res
}
