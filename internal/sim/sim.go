// Package sim is the trace-driven multicore simulation engine. It
// interleaves per-thread event streams deterministically (the runnable
// core with the smallest ready time executes next, ties broken by core
// ID), implements lock and barrier synchronization, drives a
// machine.Protocol for every memory access and region boundary, and
// assembles the run's statistics.
//
// The engine can mirror every access into the golden oracle detector and
// verify at the end that the protocol reported exactly the oracle's
// conflict set — the repository's central correctness property.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"arcsim/internal/aim"
	"arcsim/internal/cache"
	"arcsim/internal/core"
	"arcsim/internal/dram"
	"arcsim/internal/energy"
	"arcsim/internal/machine"
	"arcsim/internal/noc"
	"arcsim/internal/stats"
	"arcsim/internal/trace"
)

// Options tunes a run.
type Options struct {
	// CheckWithOracle mirrors the run into the golden detector and
	// fails the run if the protocol's conflict set differs.
	CheckWithOracle bool
	// MaxCycles aborts runaway simulations (0 = no limit).
	MaxCycles uint64
	// Director, when non-nil, steers which runnable core steps next
	// (see director.go). nil keeps the engine on the default policy's
	// exact legacy path; DefaultDirector reproduces it byte-identically.
	Director Director
}

// Result summarizes one simulation run.
type Result struct {
	Protocol string
	Workload string
	Cores    int

	// Cycles is the completion time (the slowest core's finish).
	Cycles uint64
	// Events is the number of trace events executed.
	Events uint64
	// MemAccesses is the number of loads+stores executed.
	MemAccesses uint64

	L1   cache.Stats
	LLC  cache.Stats
	AIM  aim.Stats
	NoC  noc.Stats
	DRAM dram.Stats

	NoCPeakUtil  float64
	DRAMPeakUtil float64

	EnergyPJ      map[energy.Component]float64
	TotalEnergyPJ float64

	// AccessLatency is the distribution of per-access latencies —
	// detection designs show their stalls (DRAM metadata, recalls,
	// invalidation storms) in its tail.
	AccessLatency stats.Histogram

	Conflicts  int
	Exceptions []core.Exception
	Halted     bool
	// Synthesized marks a result fabricated from a ProvenDRF static
	// analysis verdict instead of simulated (the service tier's
	// conflicts-only short circuit): conflict-dependent fields are exact,
	// timing fields are zero. Synthesized results are never persisted
	// under a simulation's cache key.
	Synthesized bool `json:"synthesized,omitempty"`
	// CacheHit marks a result that was served from a persistent result
	// store rather than simulated in this process. It is excluded from
	// the persisted encoding so that a stored result and its cache-hit
	// replay remain byte-identical.
	CacheHit bool `json:"-"`
	// OracleChecked records that this run was mirrored into the golden
	// detector and its conflict set verified (Options.CheckWithOracle).
	OracleChecked bool

	LockWaits    uint64
	BarrierWaits uint64

	// CoreFinish is each core's completion time; CoreEvents each
	// core's executed event count (load-imbalance diagnostics).
	CoreFinish []uint64
	CoreEvents []uint64

	Counters map[string]uint64
}

// finiteOrZero maps NaN/Inf to 0: degenerate runs (zero cycles, no
// traffic, a windowless 1-tile mesh) can produce 0/0 utilization ratios,
// and a per-cycle ratio of a run that did nothing is best reported as 0.
func finiteOrZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Errors returned by Run.
var (
	ErrDeadlock  = errors.New("sim: deadlock (all live cores blocked)")
	ErrMaxCycles = errors.New("sim: cycle limit exceeded")
	ErrThreads   = errors.New("sim: trace thread count does not match machine cores")
	// ErrCanceled reports that the run's context was canceled before the
	// trace finished (RunContext).
	ErrCanceled = errors.New("sim: run canceled")
)

// cancelCheckInterval is how many scheduler steps pass between context
// polls: frequent enough that cancellation lands within microseconds of
// real time, rare enough that the select never shows up in a profile.
const cancelCheckInterval = 4096

type coreStatus uint8

const (
	statusRunning coreStatus = iota
	statusBlockedLock
	statusBlockedBarrier
	statusDone
)

type lockState struct {
	holder int // -1 when free
	depth  int
	// waiters is a FIFO: enqueue appends, dequeue advances head. The
	// slice rewinds to [:0] whenever the queue drains, so a recycled
	// lockState reuses one backing array forever instead of leaking
	// capacity one slot per dequeue (waiters[1:] churn allocated on
	// every contended acquire).
	waiters []int
	head    int
}

type barrierState struct {
	arrived int
	maxTime uint64
	waiting []int
}

// runScratch holds the scheduler's per-run working state. None of it
// escapes into the Result, so it is pooled across runs: concurrent
// sweeps reuse a handful of arrays instead of allocating per run.
type runScratch struct {
	idx    []int
	ready  []uint64
	status []coreStatus
	// win is a winner (tournament) tree over the cores that holds the
	// default policy's pick at its root, win[1]. Leaf c is
	// win[size+c], with size the smallest power of two >= n (leaves
	// past n are padding that never wins), and each inner node holds
	// the earlier of its two children (see entry). A step changes the
	// ready time or status of a handful of cores, and each change
	// re-plays only the log2(size) matches on its leaf's path.
	win []entry

	// Sync state, lazily created on the first lock/barrier event (most
	// sweep runs never pay for it) and then retained across pooled
	// runs: the maps are cleared on reuse, and the state structs are
	// recycled through the slabs, so lock-heavy runs stop allocating
	// once a slab covers the workload's distinct sync objects.
	locks    map[uint32]*lockState
	barriers map[uint32]*barrierState
	lockSlab []*lockState
	barSlab  []*barrierState
	nLocks   int
	nBars    int
}

var scratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// getScratch returns zeroed scheduler arrays for n cores.
func getScratch(n int) *runScratch {
	s := scratchPool.Get().(*runScratch)
	if cap(s.idx) < n {
		s.idx = make([]int, n)
		s.ready = make([]uint64, n)
		s.status = make([]coreStatus, n)
	}
	s.idx = s.idx[:n]
	s.ready = s.ready[:n]
	s.status = s.status[:n]
	size := 1
	for size < n {
		size <<= 1
	}
	if cap(s.win) < 2*size {
		s.win = make([]entry, 2*size)
	}
	s.win = s.win[:2*size]
	clear(s.idx)
	clear(s.ready)
	clear(s.status)
	clear(s.locks)
	clear(s.barriers)
	s.nLocks, s.nBars = 0, 0
	return s
}

// entry is one contender of the winner tree: a core's ready time and
// ID. A core that cannot run (blocked, done, or a padding leaf) enters
// with the notRunning bit in its ID and the largest ready time, so
// ordering entries by (ready, ID) puts every running core first, the
// smallest ready time first among them and the lowest ID first among
// ties: the tree's root is the default policy's pick.
type entry struct {
	ready uint64
	id    uint32
}

const notRunning = 1 << 31

// first plays one match: it returns the entry of a and b that comes
// first in (ready, ID) order. The outcome is data-dependent and
// mispredicts as a branch, so it is computed without one: the borrow out
// of the 128-bit difference (b.ready, b.id) - (a.ready, a.id) is 1
// exactly when b comes first, and selects b by mask.
func first(a, b entry) entry {
	_, borrow := bits.Sub64(uint64(b.id), uint64(a.id), 0)
	_, borrow = bits.Sub64(b.ready, a.ready, borrow)
	mask := -borrow
	a.ready ^= (a.ready ^ b.ready) & mask
	a.id ^= (a.id ^ b.id) & uint32(mask)
	return a
}

// entry returns core c's (or padding leaf c's) current contender.
func (s *runScratch) entry(c int) entry {
	if c < len(s.status) && s.status[c] == statusRunning {
		return entry{ready: s.ready[c], id: uint32(c)}
	}
	return entry{ready: math.MaxUint64, id: uint32(c) | notRunning}
}

// initTree fills the winner tree from the cores' initial state.
func (s *runScratch) initTree() {
	size := len(s.win) / 2
	for c := 0; c < size; c++ {
		s.win[size+c] = s.entry(c)
	}
	for k := size - 1; k > 0; k-- {
		s.win[k] = first(s.win[2*k], s.win[2*k+1])
	}
}

// update re-plays the matches on core c's path to the root after c's
// ready time or status changed, carrying the winner up from the leaf.
func (s *runScratch) update(c int) {
	k := len(s.win)/2 + c
	e := s.entry(c)
	s.win[k] = e
	for ; k > 1; k >>= 1 {
		e = first(e, s.win[k^1])
		s.win[k>>1] = e
	}
}

// running reports whether c is a core that can step now.
func (s *runScratch) running(c int) bool {
	return c >= 0 && c < len(s.status) && s.status[c] == statusRunning
}

// newLock registers a recycled (or, past the slab, freshly allocated)
// lockState under id.
func (s *runScratch) newLock(id uint32) *lockState {
	if s.locks == nil {
		s.locks = make(map[uint32]*lockState)
	}
	var ls *lockState
	if s.nLocks < len(s.lockSlab) {
		ls = s.lockSlab[s.nLocks]
		*ls = lockState{holder: -1, waiters: ls.waiters[:0]}
	} else {
		ls = &lockState{holder: -1}
		s.lockSlab = append(s.lockSlab, ls)
	}
	s.nLocks++
	s.locks[id] = ls
	return ls
}

// newBarrier is newLock's barrierState analogue.
func (s *runScratch) newBarrier(id uint32) *barrierState {
	if s.barriers == nil {
		s.barriers = make(map[uint32]*barrierState)
	}
	var bs *barrierState
	if s.nBars < len(s.barSlab) {
		bs = s.barSlab[s.nBars]
		*bs = barrierState{waiting: bs.waiting[:0]}
	} else {
		bs = &barrierState{}
		s.barSlab = append(s.barSlab, bs)
	}
	s.nBars++
	s.barriers[id] = bs
	return bs
}

// Run simulates tr on machine m under protocol proto. It cannot be
// interrupted; long runs that may need to be abandoned (a service
// handling a client disconnect, a canceled experiment) should use
// RunContext.
func Run(m *machine.Machine, proto machine.Protocol, tr *trace.Trace, opt Options) (*Result, error) {
	return RunContext(context.Background(), m, proto, tr, opt)
}

// runMode selects how the scheduler loop treats a trace: a complete
// program, or one barrier-phase segment of a phase-parallel run.
type runMode uint8

const (
	// modeFull is an ordinary straight-line run of a whole trace.
	modeFull runMode = iota
	// modeSegment runs one intermediate phase segment: every thread's
	// last event is the phase's closing barrier, and the run stops at
	// its release instant without closing final regions (the regions
	// continue into the next segment).
	modeSegment
	// modeSegmentFinal runs the last phase segment. It completes
	// normally, except that a thread whose segment is empty (the
	// original thread ended exactly at the last barrier) still pays the
	// implicit final-region boundary a straight-line run would.
	modeSegmentFinal
)

// RunContext is Run with cooperative cancellation: the scheduler loop
// polls ctx every few thousand steps and abandons the run with an error
// wrapping ErrCanceled once the context is done. A canceled run returns
// no Result — the machine's statistics are mid-flight and unusable.
func RunContext(ctx context.Context, m *machine.Machine, proto machine.Protocol, tr *trace.Trace, opt Options) (*Result, error) {
	return runContext(ctx, m, proto, tr, opt, modeFull)
}

func runContext(ctx context.Context, m *machine.Machine, proto machine.Protocol, tr *trace.Trace, opt Options, mode runMode) (*Result, error) {
	if tr.NumThreads() != m.Cfg.Cores {
		return nil, fmt.Errorf("%w: %d threads on %d cores", ErrThreads, tr.NumThreads(), m.Cfg.Cores)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}

	n := m.Cfg.Cores
	scratch := getScratch(n)
	defer scratchPool.Put(scratch)
	idx, ready, status := scratch.idx, scratch.ready, scratch.status
	// Sync state lives on the scratch: lazily created on the first
	// lock/barrier event (reads from the nil maps below just miss) and
	// recycled across runs with the rest of the scheduler state.
	locks, barriers := scratch.locks, scratch.barriers

	var golden *core.Golden
	if opt.CheckWithOracle {
		golden = core.NewGolden(n)
	}

	res := &Result{
		Protocol:   proto.Name(),
		Workload:   tr.Name,
		Cores:      n,
		CoreFinish: make([]uint64, n),
		CoreEvents: make([]uint64, n),
	}

	// Mark threads with no events as done immediately. In the final
	// segment of a phased run an empty thread means the original thread
	// ended exactly at the last barrier; it must still take the implicit
	// final-boundary path below (as the straight-line run does after the
	// barrier release), so it stays runnable. alive counts the cores
	// not yet done.
	alive := n
	for c := 0; c < n; c++ {
		if len(tr.Threads[c]) == 0 && mode != modeSegmentFinal {
			status[c] = statusDone
			alive--
		}
	}
	scratch.initTree()

	var dir *directorState
	if opt.Director != nil {
		dir = newDirectorState(opt.Director, tr, scratch)
	}

	boundary := func(now uint64, c core.CoreID) uint64 {
		lat := proto.Boundary(now, c)
		m.NextRegion(c)
		if golden != nil {
			golden.Boundary(c)
		}
		if dir != nil {
			dir.region[c]++
		}
		return lat
	}

	var steps uint64
	for {
		steps++
		// %interval == 1 so the very first step polls too: an
		// already-canceled context never starts simulating.
		if steps%cancelCheckInterval == 1 {
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("%w: %v", ErrCanceled, context.Cause(ctx))
			default:
			}
		}
		if m.Halted {
			res.Halted = true
			break
		}
		if alive == 0 {
			break // all threads finished
		}
		// The winner tree's root is the runnable core with the smallest
		// ready time; if it is not running, no core is.
		root := scratch.win[1]
		if root.id&notRunning != 0 {
			return nil, ErrDeadlock
		}
		pick := int(root.id)
		if dir != nil {
			if p := dir.choose(); p >= 0 {
				pick = p
			}
		}
		c := core.CoreID(pick)
		now := ready[pick]
		if dir != nil {
			// A directed pick may run a core whose ready time precedes
			// events already executed; it stalls until the directed
			// clock so machine-model time stays monotone. Default picks
			// are monotone already, so this never changes them.
			if now < dir.clock {
				now = dir.clock
			}
			dir.clock = now
		}
		if opt.MaxCycles > 0 && now > opt.MaxCycles {
			return nil, fmt.Errorf("%w (%d)", ErrMaxCycles, opt.MaxCycles)
		}

		if idx[pick] >= len(tr.Threads[pick]) {
			// Trace ended without an explicit OpEnd (or the last event
			// was a blocking sync op): close the final region.
			ready[pick] = now + boundary(now, c)
			status[pick] = statusDone
			alive--
			scratch.update(pick)
			if dir != nil {
				dir.d.Stepped(pick, trace.Event{Op: trace.OpEnd}, now)
			}
			if ready[pick] > res.CoreFinish[pick] {
				res.CoreFinish[pick] = ready[pick]
			}
			if ready[pick] > res.Cycles {
				res.Cycles = ready[pick]
			}
			continue
		}

		ev := tr.Threads[pick][idx[pick]]
		idx[pick]++
		res.Events++
		res.CoreEvents[pick]++

		switch ev.Op {
		case trace.OpRead, trace.OpWrite:
			acc := ev.Mem()
			lat := proto.Access(now, c, acc)
			if golden != nil {
				golden.Access(c, acc)
			}
			ready[pick] = now + lat
			res.MemAccesses++
			res.AccessLatency.Observe(lat)

		case trace.OpCompute:
			ready[pick] = now + uint64(ev.Arg)

		case trace.OpAcquire:
			// The sync operation itself costs a round trip to the
			// lock's home tile; the region boundary work happens on
			// every acquire, granted or queued.
			syncLat := m.RoundTrip(now, pick, m.SyncHome(ev.Arg), machine.CtrlBytes, machine.CtrlBytes) +
				m.Cfg.SyncLatency
			bLat := boundary(now+syncLat, c)
			at := now + syncLat + bLat

			ls := locks[ev.Arg]
			if ls == nil {
				ls = scratch.newLock(ev.Arg)
				locks = scratch.locks
			}
			if ls.holder == -1 || ls.holder == pick {
				ls.holder = pick
				ls.depth++
				ready[pick] = at
			} else {
				status[pick] = statusBlockedLock
				ready[pick] = at // time at which the wait began
				ls.waiters = append(ls.waiters, pick)
				res.LockWaits++
			}

		case trace.OpRelease:
			syncLat := m.RoundTrip(now, pick, m.SyncHome(ev.Arg), machine.CtrlBytes, machine.CtrlBytes) +
				m.Cfg.SyncLatency
			bLat := boundary(now+syncLat, c)
			at := now + syncLat + bLat
			ready[pick] = at

			ls := locks[ev.Arg]
			if ls == nil || ls.holder != pick {
				return nil, fmt.Errorf("sim: core %d releases lock %d it does not hold", pick, ev.Arg)
			}
			ls.depth--
			if ls.depth == 0 {
				ls.holder = -1
				if ls.head < len(ls.waiters) {
					w := ls.waiters[ls.head]
					ls.head++
					if ls.head == len(ls.waiters) {
						ls.waiters = ls.waiters[:0]
						ls.head = 0
					}
					ls.holder = w
					ls.depth = 1
					status[w] = statusRunning
					grantAt := at + m.Cfg.SyncLatency
					if ready[w] > grantAt {
						grantAt = ready[w]
					}
					ready[w] = grantAt
					scratch.update(w)
				}
			}

		case trace.OpBarrier:
			syncLat := m.Send(now, pick, m.SyncHome(ev.Arg), machine.CtrlBytes) + m.Cfg.SyncLatency
			bLat := boundary(now+syncLat, c)
			at := now + syncLat + bLat

			bs := barriers[ev.Arg]
			if bs == nil {
				bs = scratch.newBarrier(ev.Arg)
				barriers = scratch.barriers
			}
			bs.arrived++
			if at > bs.maxTime {
				bs.maxTime = at
			}
			if bs.arrived == n {
				// Everyone is here: release all at the same instant.
				releaseAt := bs.maxTime + m.Cfg.SyncLatency
				for _, w := range bs.waiting {
					status[w] = statusRunning
					ready[w] = releaseAt
					scratch.update(w)
					m.Send(bs.maxTime, m.SyncHome(ev.Arg), w, machine.CtrlBytes)
				}
				ready[pick] = releaseAt
				delete(barriers, ev.Arg)
				if mode == modeSegment {
					// Intermediate phase segment: the closing barrier is
					// every thread's last event. Stop here — regions stay
					// open into the next segment — and report the release
					// instant as the segment's completion time.
					for c2 := 0; c2 < n; c2++ {
						status[c2] = statusDone
						if releaseAt > res.CoreFinish[c2] {
							res.CoreFinish[c2] = releaseAt
						}
					}
					alive = 0
					if releaseAt > res.Cycles {
						res.Cycles = releaseAt
					}
				} else {
					// A barrier quiesces the machine: transient NoC/DRAM
					// contention state resets at the release instant, so
					// post-barrier timing depends only on post-barrier
					// traffic (the invariant phase-parallel runs rely on).
					m.PhaseFence(releaseAt)
				}
			} else {
				status[pick] = statusBlockedBarrier
				bs.waiting = append(bs.waiting, pick)
				ready[pick] = at
				res.BarrierWaits++
			}

		case trace.OpEnd:
			bLat := boundary(now, c)
			ready[pick] = now + bLat
			status[pick] = statusDone
			alive--
		}
		scratch.update(pick)

		if dir != nil {
			dir.d.Stepped(pick, ev, now)
		}

		if ready[pick] > res.CoreFinish[pick] {
			res.CoreFinish[pick] = ready[pick]
		}
		if ready[pick] > res.Cycles {
			res.Cycles = ready[pick]
		}
	}

	if mode == modeFull {
		// Phase segments skip static energy: the stitcher charges it once
		// for the whole stitched run, because per-segment static sums are
		// not bit-identical to one whole-run charge (the per-cycle rate is
		// not exactly representable, so distributing over segments rounds
		// differently).
		m.FinishStatics(res.Cycles)
	}
	fill(res, m)

	if golden != nil {
		if ok, diff := m.Conflicts.Equal(golden.Set()); !ok {
			return res, fmt.Errorf("sim: protocol %s disagrees with the oracle: %s", proto.Name(), diff)
		}
		res.OracleChecked = true
	}
	return res, nil
}

// fill copies the machine's statistics into the result.
func fill(res *Result, m *machine.Machine) {
	res.L1 = m.L1Stats()
	res.LLC = m.LLCStats()
	res.AIM = m.AIMStats()
	res.NoC = m.Mesh.Stats
	res.DRAM = m.Mem.Stats
	res.NoCPeakUtil = finiteOrZero(m.Mesh.PeakUtilization())
	res.DRAMPeakUtil = finiteOrZero(m.Mem.PeakUtilization())
	res.EnergyPJ = m.Meter.Breakdown()
	res.TotalEnergyPJ = m.Meter.TotalPJ()
	res.Conflicts = m.Conflicts.Len()
	res.Exceptions = append([]core.Exception(nil), m.Exceptions...)
	res.Counters = m.CounterMap()
}
