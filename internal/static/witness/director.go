// The co-timing director: a deterministic sim.Director that steers the
// scheduler toward overlapping two specific regions, plus the seeded
// random director the fuzz targets use to probe arbitrary schedules.
package witness

import (
	"arcsim/internal/core"
	"arcsim/internal/sim"
	"arcsim/internal/trace"
)

// clash mirrors the analyzer's conflict predicate: bytes where the two
// footprints overlap with at least one writer.
func clash(x, y core.AccessBits) core.ByteMask {
	return (x.WriteMask & y.Touched()) | (x.Touched() & y.WriteMask)
}

// boundaryNext reports whether stepping the core would process a region
// boundary (an exhausted thread's one remaining step is the implicit
// final boundary).
func boundaryNext(cs sim.CoreState) bool {
	if !cs.HasNext {
		return true
	}
	switch cs.Next.Op {
	case trace.OpAcquire, trace.OpRelease, trace.OpBarrier, trace.OpEnd:
		return true
	}
	return false
}

// coTimer steers the schedule toward opening the directive's two target
// regions simultaneously with clashing accesses, in three phases:
//
//   - park the primary entirely until the secondary reaches the "door"
//     of its target region (one boundary short of entering) — the
//     secondary gets first claim on any locks it must pass through;
//   - advance the primary into its region, holding the secondary at
//     the door;
//   - release the secondary through the door with both regions' closing
//     boundaries held open, until the accumulated per-side accesses on
//     the target line clash — at which point the detecting protocol has
//     had its conflict and all holds release.
//
// Non-target cores, and any step that is not a hold, follow the default
// policy (minimum ready time, lowest id).
//
// Holds are preferences, not locks: when every runnable core is held,
// the director defers and the engine's default policy steps one anyway,
// so directed runs can neither deadlock nor livelock — a failed
// co-timing just degrades toward the default schedule, and the attempt
// is judged solely by whether the targeted conflict was detected.
type coTimer struct {
	line core.Line
	tc   [2]int    // target cores: index 0 = side A, 1 = side B
	ts   [2]uint64 // target region seqs
	// primary is the side that must enter its region first (the
	// directive's Order).
	primary int

	reg  [2]uint64          // each target core's current region seq
	bits [2]core.AccessBits // per-side accumulated target-line accesses
	met  bool               // the clash was realized
	dead bool               // a target region closed before the clash
}

func newCoTimer(d Directive) *coTimer {
	ct := &coTimer{
		line: d.Line,
		tc:   [2]int{int(d.A.Core), int(d.B.Core)},
		ts:   [2]uint64{d.A.Seq, d.B.Seq},
	}
	if d.Order == OrderBFirst {
		ct.primary = 1
	}
	return ct
}

// Pick asks the scheduler about the two target cores only. When neither
// is held it defers: the default pick is then the runnable core with the
// smallest ready time, lowest ID first, which is the co-timer's pick
// too. Otherwise it takes the default pick among the cores it does not
// hold, so a step costs O(log n) in the core count.
func (ct *coTimer) Pick(h *sim.Sched) int {
	if ct.met || ct.dead {
		return -1
	}
	var cs [2]sim.CoreState
	for s := 0; s < 2; s++ {
		cs[s] = h.Core(ct.tc[s])
		if cs[s].Region > ct.ts[s] || cs[s].Done {
			ct.dead = true
			return -1
		}
	}
	sec := 1 - ct.primary
	primIn := cs[ct.primary].Region == ct.ts[ct.primary]
	// The secondary is "ready" once it is parked at its region's entry
	// boundary (or already inside — a seq-0 region has no door).
	secReady := cs[sec].Region == ct.ts[sec] ||
		(cs[sec].Region+1 == ct.ts[sec] && boundaryNext(cs[sec]))
	held := func(s int) bool {
		switch {
		case cs[s].Region == ct.ts[s] && boundaryNext(cs[s]):
			return true // hold the entered target region open
		case s == ct.primary && !primIn && !secReady:
			return true // park the primary until the secondary is at its door
		case s == sec && !primIn && cs[s].Region+1 == ct.ts[s] && boundaryNext(cs[s]):
			return true // hold the secondary at the door
		}
		return false
	}
	a, b := -1, -1
	if held(0) {
		a = ct.tc[0]
	}
	if held(1) {
		b = ct.tc[1]
	}
	if a < 0 && b < 0 {
		return -1
	}
	return h.DefaultExcept(a, b) // -1 when all runnable cores are held: defer
}

func (ct *coTimer) Stepped(c int, ev trace.Event, now uint64) {
	s := -1
	switch c {
	case ct.tc[0]:
		s = 0
	case ct.tc[1]:
		s = 1
	default:
		return
	}
	switch ev.Op {
	case trace.OpAcquire, trace.OpRelease, trace.OpBarrier, trace.OpEnd:
		ct.reg[s]++
	case trace.OpRead, trace.OpWrite:
		if ct.reg[s] != ct.ts[s] {
			return
		}
		acc := ev.Mem()
		if acc.Line() != ct.line {
			return
		}
		ct.bits[s].Add(acc.Kind, acc.Mask())
		if clash(ct.bits[0], ct.bits[1]) != 0 {
			ct.met = true
		}
	}
}

// RandomDirector picks uniformly among the runnable cores from a seeded
// xorshift64 stream — a deterministic schedule fuzzer. FuzzWitness uses
// it to assert that refuted pairs stay undetected and soundness holds
// under schedules the default policy never produces.
type RandomDirector struct{ s uint64 }

// NewRandomDirector seeds a random director; equal seeds replay equal
// schedules on equal traces.
func NewRandomDirector(seed uint64) *RandomDirector {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15 // xorshift must not start at 0
	}
	return &RandomDirector{s: seed}
}

func (r *RandomDirector) Pick(h *sim.Sched) int {
	n := 0
	for c := range h.Cores() {
		if h.Core(c).Runnable {
			n++
		}
	}
	if n == 0 {
		return -1
	}
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	k := int((r.s >> 1) % uint64(n))
	for c := range h.Cores() {
		if !h.Core(c).Runnable {
			continue
		}
		if k == 0 {
			return c
		}
		k--
	}
	return -1
}

// Stepped ignores the observation.
func (*RandomDirector) Stepped(int, trace.Event, uint64) {}
