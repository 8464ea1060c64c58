// Schedule directors: an optional hook that lets a caller steer which
// runnable core the scheduler steps next. The engine's default policy —
// the runnable core with the smallest ready time, ties broken by lowest
// core ID — is deterministic but fixed; a director turns the schedule
// into an input, which is what the witness engine
// (internal/static/witness) needs to co-time two specific regions and
// what schedule fuzzing needs to probe interleavings the default policy
// never produces.
//
// The determinism contract: a run's result is a pure function of
// (machine config, protocol, trace, options, director). A deterministic
// director therefore yields a replayable schedule — the director value
// itself is the witness artifact. A nil Options.Director leaves the
// engine on the exact legacy code path, and DefaultDirector (which
// always defers) is byte-identical to it: directed infrastructure may
// observe a run without perturbing it.
package sim

import (
	"arcsim/internal/trace"
)

// CoreState is the scheduler-visible state of one core, as
// Sched.Core reports it.
type CoreState struct {
	// Ready is when the core can next execute an event.
	Ready uint64
	// Region is the core's current region sequence number (the number
	// of boundary events it has processed), matching core.RegionID.Seq
	// and the static analyzer's numbering.
	Region uint64
	// Runnable marks a core the director may pick this step.
	Runnable bool
	// Blocked marks a core waiting on a lock or a barrier.
	Blocked bool
	// Done marks a finished core.
	Done bool
	// Next is the core's next trace event, valid only when HasNext.
	// HasNext is false on a live core whose explicit events are
	// exhausted: its one remaining step is the implicit final region
	// boundary.
	Next    trace.Event
	HasNext bool
}

// Director steers the scheduler. Pick receives the scheduler handle and
// returns the index of the runnable core to step next, or a negative
// value to defer to the default policy. A pick that is out of range or
// not currently runnable is treated as a deferral, never an error — a
// director can therefore express "I only care about these two cores"
// without tracking global runnability. Stepped observes each executed
// event (the implicit final region boundary is reported as an OpEnd)
// with the global time it executed at.
//
// Directors are invoked from a single goroutine and may carry state.
type Director interface {
	Pick(s *Sched) int
	Stepped(c int, ev trace.Event, now uint64)
}

// DefaultDirector defers every pick, reproducing the engine's default
// interleaving byte-identically (pinned by TestDefaultDirectorIdentity).
type DefaultDirector struct{}

// Pick defers to the default policy.
func (DefaultDirector) Pick(*Sched) int { return -1 }

// Stepped ignores the observation.
func (DefaultDirector) Stepped(int, trace.Event, uint64) {}

// Sched is the scheduler handle passed to Director.Pick. It reads the
// engine's live state, so it answers only during the Pick call it is
// passed to, and no query costs more than O(log n) in the core count: a
// directed run steps at the cost of an undirected one, plus what its
// director asks.
type Sched struct {
	tr     *trace.Trace
	s      *runScratch
	region []uint64
}

// Cores returns the number of cores.
func (h *Sched) Cores() int { return len(h.region) }

// Core returns core c's state, in O(1).
func (h *Sched) Core(c int) CoreState {
	s := h.s
	cs := CoreState{Ready: s.ready[c], Region: h.region[c]}
	switch s.status[c] {
	case statusRunning:
		cs.Runnable = true
	case statusDone:
		cs.Done = true
	default:
		cs.Blocked = true
	}
	if !cs.Done && s.idx[c] < len(h.tr.Threads[c]) {
		cs.Next = h.tr.Threads[c][s.idx[c]]
		cs.HasNext = true
	}
	return cs
}

// DefaultExcept returns the default policy's pick among the runnable
// cores other than a and b — the one with the smallest ready time,
// lowest ID first — or -1 when no other core is runnable. A negative or
// out-of-range argument excludes nothing. When the default pick is
// neither a nor b it is the answer, read at the winner tree's root in
// O(1). Otherwise the query costs O(log n): the winner tree enters the
// excluded cores as not running, is read at its root, and then
// re-plays their paths to restore itself.
func (h *Sched) DefaultExcept(a, b int) int {
	s := h.s
	root := s.win[1]
	if c := int(root.id); root.id&notRunning == 0 && (c == a || c == b) {
		// The pick is excluded: enter the excluded running cores as
		// done, read the root, and restore them.
		wa, wb := s.running(a), s.running(b)
		if wa {
			s.status[a] = statusDone
			s.update(a)
		}
		if wb {
			s.status[b] = statusDone
			s.update(b)
		}
		root = s.win[1]
		if wa {
			s.status[a] = statusRunning
			s.update(a)
		}
		if wb {
			s.status[b] = statusRunning
			s.update(b)
		}
	}
	if root.id&notRunning != 0 {
		return -1
	}
	return int(root.id)
}

// directorState is the engine-side bookkeeping for a directed run. It is
// allocated only when Options.Director is non-nil, so undirected runs
// keep the steady-state allocation budget (TestSteadyStateAllocs).
type directorState struct {
	// Sched is the handle Pick receives; its region counts advance at
	// every boundary the run processes.
	Sched
	d Director
	// clock is the directed global time: the max event start time so
	// far. The default policy's picks are intrinsically monotone (each
	// step runs the minimum ready time, which only grows), but a
	// directed pick may run a core whose ready time precedes an event
	// already executed; clamping such picks to the clock models the
	// stall the direction imposes and keeps machine-model time (NoC
	// idle fast-forward, energy accounting) monotone.
	clock uint64
}

func newDirectorState(d Director, tr *trace.Trace, s *runScratch) *directorState {
	return &directorState{Sched: Sched{tr: tr, s: s, region: make([]uint64, len(s.status))}, d: d}
}

// choose asks the director and validates the answer. A deferral (or
// invalid pick) returns -1 and the engine's default pick stands — the
// director can never deadlock or livelock the scheduler, only reorder
// it.
func (ds *directorState) choose() int {
	p := ds.d.Pick(&ds.Sched)
	if !ds.s.running(p) {
		return -1
	}
	return p
}
