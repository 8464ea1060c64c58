// Package sched is the cost-model scheduler for a fleet of arcsimd
// daemons. Rather than round-robin jobs and react to failures, sched
// plans: each job carries a predicted cost (internal/static's
// verdict plus trace event and core counts — see EstimateCost), and the
// scheduler dispatches longest-job-first onto the least-loaded healthy
// endpoint, work-steals queued jobs back when an endpoint drains early,
// and preempts long-running low-priority jobs when a high-priority batch
// arrives.
//
// The package is split so the policy is testable without wall clocks or
// daemons:
//
//   - Core (this file) is a deterministic state machine. Every event
//     (submit, completion, fault, probe sample, cancel confirmation)
//     synchronously returns the Directives the caller must execute —
//     start this job on that endpoint, cancel that queued job for
//     requeue. Core never spawns goroutines, never sleeps, and reads
//     time only through Options.Now, so a simulation harness
//     (internal/sched/simtest) can drive it on a virtual clock and prove
//     makespan bounds deterministically.
//   - internal/sched/fleet is the production driver: it executes
//     directives against real daemons through internal/client, scrapes
//     per-endpoint load from /metrics, and feeds everything back into
//     the Core.
//
// Degraded mode: the cost model runs on observed endpoint state (worker
// counts, queue depths). When that state is missing or stale — a probe
// failing, a daemon serving unparseable /metrics — the Core falls back
// to round-robin dispatch in submission order rather than scheduling on
// fiction or wedging. DESIGN.md "Cost-model scheduling" documents the
// full policy.
package sched

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"arcsim/internal/backoff"
)

// Job is one schedulable unit of work. The scheduler never looks inside
// the work itself; it plans purely on Cost and Priority.
type Job struct {
	// ID is the scheduler-local identity (unique per Core).
	ID int64
	// Label is a human-readable tag for logs and snapshots.
	Label string
	// Cost is the predicted service cost in arbitrary but consistent
	// units (EstimateCost produces event-count-scaled units).
	Cost float64
	// Priority orders classes of work: a pending job preempts running
	// jobs of strictly lower priority when no capacity is free.
	Priority int
}

// Load is one observed /metrics sample for an endpoint.
type Load struct {
	// Workers is the daemon's worker-pool size (arcsimd_workers).
	Workers int
	// Busy is the number of running simulations (arcsimd_busy_workers).
	Busy int
	// Queue is the daemon's queued-job count (arcsimd_queue_depth).
	Queue int
	// QueueCap is the daemon's queue capacity (arcsimd_queue_capacity).
	QueueCap int
	// Up reports arcsimd_up: false while the daemon drains.
	Up bool
}

// DirKind discriminates Directives.
type DirKind int

const (
	// DirStart instructs the driver to submit Job to Endpoint and see it
	// through to a terminal state.
	DirStart DirKind = iota
	// DirCancel instructs the driver to cancel Job on Endpoint with the
	// requeue-safe reason (a steal or a preemption); the driver reports
	// back via Canceled or CancelFailed.
	DirCancel
	// DirFail reports that Job exhausted its fault budget; the driver
	// surfaces the failure to the job's owner. No further directives will
	// reference the job.
	DirFail
)

func (k DirKind) String() string {
	switch k {
	case DirStart:
		return "start"
	case DirCancel:
		return "cancel"
	case DirFail:
		return "fail"
	}
	return fmt.Sprintf("DirKind(%d)", int(k))
}

// Cancel reasons carried by DirCancel directives.
const (
	// ReasonSteal marks a queued job pulled back from a loaded endpoint
	// because another endpoint drained early.
	ReasonSteal = "steal"
	// ReasonPreempt marks a running low-priority job displaced by a
	// pending higher-priority one.
	ReasonPreempt = "preempt"
)

// Directive is one action the Core wants its driver to take.
type Directive struct {
	Kind     DirKind
	Job      *Job
	Endpoint string
	// Reason qualifies DirCancel (ReasonSteal or ReasonPreempt).
	Reason string
}

func (d Directive) String() string {
	s := fmt.Sprintf("%s %s(#%d)", d.Kind, d.Job.Label, d.Job.ID)
	if d.Endpoint != "" {
		s += " @" + d.Endpoint
	}
	if d.Reason != "" {
		s += " [" + d.Reason + "]"
	}
	return s
}

// Mode is the dispatch policy currently in force.
type Mode int

const (
	// ModeCostModel is the full policy: longest-job-first onto the
	// least-loaded endpoint, with stealing and preemption.
	ModeCostModel Mode = iota
	// ModeRoundRobin is the degraded policy used while observed load is
	// missing or stale (and the forced baseline in experiments): jobs
	// dispatch in submission order, round-robin across healthy
	// endpoints.
	ModeRoundRobin
)

func (m Mode) String() string {
	if m == ModeRoundRobin {
		return "round-robin"
	}
	return "cost-model"
}

// Options tunes a Core.
type Options struct {
	// DefaultSlots is the per-endpoint concurrency assumed before any
	// probe sample arrives (default 1).
	DefaultSlots int
	// PipelineDepth is how many jobs beyond an endpoint's worker slots
	// the scheduler queues on it, keeping the daemon's own queue primed
	// so a finishing worker never waits a round-trip for its next job.
	// 0 selects the default (one pipeline slot per worker, so 2x slots
	// in flight). These queued-but-not-running jobs are what stealing
	// reclaims.
	PipelineDepth int
	// StaleAfter bounds how old a Load sample may be before the endpoint
	// is treated as unobserved and the Core degrades to round-robin
	// (default 10s; simulation harnesses set it effectively infinite).
	StaleAfter time.Duration
	// CooldownBase/CooldownMax shape the exponential bench applied to a
	// faulting endpoint (defaults 1s/30s; see backoff.Cooldown).
	CooldownBase time.Duration
	CooldownMax  time.Duration
	// MaxAttempts is the per-job fault budget: a job requeued by
	// endpoint faults more than this many times fails permanently via
	// DirFail (default 8). Steal/preempt requeues do not count.
	MaxAttempts int
	// ForceRoundRobin pins the degraded policy regardless of observed
	// load: the experiment baseline, and a kill switch.
	ForceRoundRobin bool
	// Now supplies time (default time.Now). The simulation harness
	// injects a virtual clock; determinism of every planning decision
	// given the event sequence is part of the package contract.
	Now func() time.Time
}

func (o Options) normalized() Options {
	if o.DefaultSlots <= 0 {
		o.DefaultSlots = 1
	}
	if o.StaleAfter <= 0 {
		o.StaleAfter = 10 * time.Second
	}
	if o.CooldownBase <= 0 {
		o.CooldownBase = time.Second
	}
	if o.CooldownMax <= 0 {
		o.CooldownMax = 30 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 8
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// job phases within the Core.
const (
	phasePending  = "pending"
	phaseQueued   = "queued"   // dispatched to an endpoint, not yet observed running
	phaseRunning  = "running"  // observed running on the endpoint
	phaseStealing = "stealing" // cancel-for-requeue in flight
)

// jobState tracks one live job.
type jobState struct {
	job      *Job
	phase    string
	ep       *ep // nil while pending
	attempts int // endpoint-fault requeues consumed
	reason   string
	// thief is the reserved destination of an in-flight steal: when the
	// victim confirms the cancel, the job starts there directly instead of
	// re-entering generic assignment (which could hand it back to the
	// victim and steal it again, forever).
	thief *ep
}

// ep is one endpoint's scheduler-side record.
type ep struct {
	name  string
	index int

	queued   []*jobState // dispatch order
	running  map[int64]*jobState
	stealing map[int64]*jobState
	cool     backoff.Cooldown

	load    Load
	loadAt  time.Time
	hasLoad bool
}

func (e *ep) healthy(now time.Time) bool { return e.cool.Ready(now) }

// slots is the endpoint's believed worker-pool size.
func (e *ep) slots(opts Options) int {
	if e.hasLoad && e.load.Workers > 0 {
		return e.load.Workers
	}
	return opts.DefaultSlots
}

// capacity is how many jobs the scheduler will keep in flight on the
// endpoint: the worker slots plus the pipeline of pre-queued jobs.
func (e *ep) capacity(opts Options) int {
	slots := e.slots(opts)
	pipe := opts.PipelineDepth
	if pipe <= 0 {
		pipe = slots
	}
	return slots + pipe
}

func (e *ep) inFlight() int {
	return len(e.queued) + len(e.running) + len(e.stealing)
}

// predicted is the summed predicted cost of work committed to the
// endpoint. Jobs being stolen away are excluded: they are leaving.
func (e *ep) predicted() float64 {
	var sum float64
	for _, js := range e.queued {
		sum += js.job.Cost
	}
	for _, js := range e.running {
		sum += js.job.Cost
	}
	return sum
}

// external estimates backlog on the endpoint that this scheduler did not
// put there (another client's jobs), in job counts.
func (e *ep) external() int {
	if !e.hasLoad {
		return 0
	}
	ext := e.load.Busy + e.load.Queue - (len(e.queued) + len(e.running) + len(e.stealing))
	if ext < 0 {
		return 0
	}
	return ext
}

// Core is the deterministic scheduling state machine. Safe for
// concurrent use; every event method returns the directives the caller
// must execute. See the package comment for the division of labor
// between Core and its drivers.
type Core struct {
	opts Options

	mu       sync.Mutex
	eps      []*ep
	byName   map[string]*ep
	pending  []*jobState // kept in (priority desc, cost desc, id asc) order
	jobs     map[int64]*jobState
	done     map[int64]bool
	rr       int
	steals   int
	preempts int
}

// NewCore builds a Core over the named endpoints (order is the
// round-robin order and the deterministic tie-break order).
func NewCore(endpoints []string, opts Options) *Core {
	c := &Core{
		opts:   opts.normalized(),
		byName: make(map[string]*ep, len(endpoints)),
		jobs:   make(map[int64]*jobState),
		done:   make(map[int64]bool),
	}
	for i, name := range endpoints {
		e := &ep{
			name:     name,
			index:    i,
			running:  make(map[int64]*jobState),
			stealing: make(map[int64]*jobState),
		}
		c.eps = append(c.eps, e)
		c.byName[name] = e
	}
	return c
}

// Endpoints returns the endpoint names in scheduler order.
func (c *Core) Endpoints() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, len(c.eps))
	for i, e := range c.eps {
		names[i] = e.name
	}
	return names
}

// Submit adds jobs to the pending set and plans.
func (c *Core) Submit(jobs ...*Job) []Directive {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, j := range jobs {
		if _, live := c.jobs[j.ID]; live || c.done[j.ID] {
			continue // exactly-once: an ID is never admitted twice
		}
		js := &jobState{job: j, phase: phasePending}
		c.jobs[j.ID] = js
		c.insertPendingLocked(js)
	}
	return c.planLocked()
}

// Started records that a dispatched job was observed running on the
// daemon (the driver sees the SSE state event; the simulator promotes a
// virtual queue slot). It changes no capacity, so no directives result.
func (c *Core) Started(endpoint string, id int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.byName[endpoint]
	js := c.jobs[id]
	if e == nil || js == nil || js.ep != e || js.phase != phaseQueued {
		return
	}
	c.removeQueuedLocked(e, js)
	js.phase = phaseRunning
	e.running[id] = js
}

// Done records a job's successful completion on an endpoint and plans
// the freed capacity. The endpoint's fault record resets: it served.
func (c *Core) Done(endpoint string, id int64) []Directive {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.byName[endpoint]
	js := c.jobs[id]
	if e == nil || js == nil || js.ep != e {
		return nil
	}
	c.detachLocked(js)
	delete(c.jobs, id)
	c.done[id] = true
	e.cool.Reset()
	return c.planLocked()
}

// Final removes a job without requeue: a deterministic failure, an
// operator cancel, or the owner abandoning it. The endpoint (if any) did
// nothing wrong.
func (c *Core) Final(id int64) []Directive {
	c.mu.Lock()
	defer c.mu.Unlock()
	js := c.jobs[id]
	if js == nil {
		return nil
	}
	c.detachLocked(js)
	delete(c.jobs, id)
	c.done[id] = true
	return c.planLocked()
}

// Fault records an endpoint fault while it held the job: the endpoint is
// benched on an exponential cooldown and the job requeues (or fails via
// DirFail once its budget is spent).
func (c *Core) Fault(endpoint string, id int64) []Directive {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.byName[endpoint]
	if e == nil {
		return nil
	}
	e.cool.Fail(c.opts.Now(), c.opts.CooldownBase, c.opts.CooldownMax)
	return c.requeueLocked(e, id, true)
}

// Lost requeues a job whose endpoint restarted under it (the job record
// is gone but the daemon is up and serving): no bench, just resubmit.
func (c *Core) Lost(endpoint string, id int64) []Directive {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.byName[endpoint]
	if e == nil {
		return nil
	}
	return c.requeueLocked(e, id, false)
}

// requeueLocked detaches the job from the endpoint and returns it to
// pending, spending budget when the requeue was fault-driven.
func (c *Core) requeueLocked(e *ep, id int64, countAttempt bool) []Directive {
	js := c.jobs[id]
	if js != nil && js.ep == e {
		c.detachLocked(js)
		if countAttempt {
			js.attempts++
			if js.attempts >= c.opts.MaxAttempts {
				delete(c.jobs, id)
				c.done[id] = true
				dirs := []Directive{{Kind: DirFail, Job: js.job}}
				return append(dirs, c.planLocked()...)
			}
		}
		js.phase = phasePending
		c.insertPendingLocked(js)
	}
	return c.planLocked()
}

// Canceled confirms a requeue-safe cancel: the job is off the endpoint
// and free to run elsewhere, without spending fault budget (the endpoint
// did nothing wrong, and the cancel was the scheduler's own idea — or an
// external actor's explicit requeue request, which is why queued/running
// phases are accepted too). A stolen job goes straight to the thief that
// reserved it; anything else requeues.
func (c *Core) Canceled(endpoint string, id int64) []Directive {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.byName[endpoint]
	js := c.jobs[id]
	if e == nil || js == nil || js.ep != e {
		return nil
	}
	thief := js.thief
	c.detachLocked(js)
	if thief != nil && thief.healthy(c.opts.Now()) && thief.inFlight() < thief.capacity(c.opts) {
		c.dispatchLocked(js, thief)
		dirs := []Directive{{Kind: DirStart, Job: js.job, Endpoint: thief.name}}
		return append(dirs, c.planLocked()...)
	}
	js.phase = phasePending
	c.insertPendingLocked(js)
	return c.planLocked()
}

// CancelFailed reports that a steal/preempt cancel could not be
// delivered; the job stays where it was (its follower will report the
// real terminal state). The conservative assumption is that it runs.
func (c *Core) CancelFailed(endpoint string, id int64) []Directive {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.byName[endpoint]
	js := c.jobs[id]
	if e == nil || js == nil || js.ep != e || js.phase != phaseStealing {
		return nil
	}
	delete(e.stealing, id)
	js.phase = phaseRunning
	js.reason = ""
	js.thief = nil
	e.running[id] = js
	return c.planLocked()
}

// UpdateLoad records a fresh probe sample and replans (capacity may have
// grown, or the sample may re-enable the cost model).
func (c *Core) UpdateLoad(endpoint string, l Load) []Directive {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.byName[endpoint]
	if e == nil {
		return nil
	}
	e.load = l
	e.loadAt = c.opts.Now()
	e.hasLoad = true
	return c.planLocked()
}

// ProbeFailed invalidates an endpoint's load sample (unreachable,
// unparseable, or partial /metrics): the Core stops trusting the cost
// model for the fleet until samples return, degrading to round-robin.
func (c *Core) ProbeFailed(endpoint string) []Directive {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.byName[endpoint]
	if e == nil {
		return nil
	}
	e.hasLoad = false
	return c.planLocked()
}

// Tick replans with no other event: cooldowns expire, staleness
// advances. Drivers call it periodically.
func (c *Core) Tick() []Directive {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.planLocked()
}

// FailPending removes and returns every pending job: the driver calls it
// when the whole fleet is benched and the owner should fall back to
// local execution. In-flight jobs are untouched.
func (c *Core) FailPending() []*Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Job, 0, len(c.pending))
	for _, js := range c.pending {
		out = append(out, js.job)
		delete(c.jobs, js.job.ID)
		c.done[js.job.ID] = true
	}
	c.pending = c.pending[:0]
	return out
}

// Mode reports the dispatch policy currently in force.
func (c *Core) Mode() Mode {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.modeLocked(c.opts.Now()) {
		return ModeRoundRobin
	}
	return ModeCostModel
}

// modeLocked reports whether dispatch must degrade to round-robin: the
// policy is forced, or some healthy endpoint has no fresh load sample
// (the cost model must not schedule on fiction).
func (c *Core) modeLocked(now time.Time) bool {
	if c.opts.ForceRoundRobin {
		return true
	}
	for _, e := range c.eps {
		if !e.healthy(now) {
			continue
		}
		if !e.hasLoad || now.Sub(e.loadAt) > c.opts.StaleAfter {
			return true
		}
	}
	return false
}

// detachLocked removes the job from whatever endpoint structure holds
// it. The caller decides its next phase.
func (c *Core) detachLocked(js *jobState) {
	switch {
	case js.ep == nil:
		c.removePendingLocked(js)
	case js.phase == phaseQueued:
		c.removeQueuedLocked(js.ep, js)
	case js.phase == phaseRunning:
		delete(js.ep.running, js.job.ID)
	case js.phase == phaseStealing:
		delete(js.ep.stealing, js.job.ID)
	}
	js.ep = nil
	js.reason = ""
	js.thief = nil
}

func (c *Core) removeQueuedLocked(e *ep, js *jobState) {
	for i, q := range e.queued {
		if q == js {
			e.queued = append(e.queued[:i], e.queued[i+1:]...)
			return
		}
	}
}

// insertPendingLocked keeps pending ordered by (priority desc, cost
// desc, id asc) — the longest-job-first order within priority classes.
// Round-robin mode instead consumes pending in submission (id) order.
func (c *Core) insertPendingLocked(js *jobState) {
	i := sort.Search(len(c.pending), func(i int) bool {
		p := c.pending[i]
		if p.job.Priority != js.job.Priority {
			return p.job.Priority < js.job.Priority
		}
		if p.job.Cost != js.job.Cost {
			return p.job.Cost < js.job.Cost
		}
		return p.job.ID > js.job.ID
	})
	c.pending = append(c.pending, nil)
	copy(c.pending[i+1:], c.pending[i:])
	c.pending[i] = js
}

func (c *Core) removePendingLocked(js *jobState) {
	for i, p := range c.pending {
		if p == js {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return
		}
	}
}

// meanCostLocked is the average predicted cost of live jobs, used to
// weigh externally-observed backlog against our own predictions.
func (c *Core) meanCostLocked() float64 {
	if len(c.jobs) == 0 {
		return 1
	}
	var sum float64
	for _, js := range c.jobs {
		sum += js.job.Cost
	}
	if sum <= 0 {
		return 1
	}
	return sum / float64(len(c.jobs))
}

// planLocked is the decision procedure: assign pending work, then steal
// for drained endpoints or preempt for starved high-priority work.
// Deterministic given the event history: endpoints break ties in slice
// order, jobs in (priority, cost, id) order.
func (c *Core) planLocked() []Directive {
	now := c.opts.Now()
	var healthy []*ep
	for _, e := range c.eps {
		if e.healthy(now) {
			healthy = append(healthy, e)
		}
	}
	if len(healthy) == 0 {
		return nil
	}
	var dirs []Directive
	if c.modeLocked(now) {
		dirs = c.assignRoundRobinLocked(healthy)
	} else {
		dirs = c.assignCostModelLocked(healthy)
		if len(c.pending) == 0 {
			dirs = append(dirs, c.stealLocked(healthy)...)
		} else {
			dirs = append(dirs, c.preemptLocked(healthy)...)
		}
	}
	return dirs
}

// assignRoundRobinLocked is the degraded policy: submission order,
// next endpoint with room.
func (c *Core) assignRoundRobinLocked(healthy []*ep) []Directive {
	var dirs []Directive
	for len(c.pending) > 0 {
		// Oldest job first (min ID), ignoring cost and priority order.
		ji := 0
		for i, js := range c.pending {
			if js.job.ID < c.pending[ji].job.ID {
				ji = i
			}
		}
		js := c.pending[ji]
		var target *ep
		for i := 0; i < len(healthy); i++ {
			e := healthy[(c.rr+i)%len(healthy)]
			if e.inFlight() < e.capacity(c.opts) {
				target = e
				c.rr = (c.rr + i + 1) % len(healthy)
				break
			}
		}
		if target == nil {
			break
		}
		c.pending = append(c.pending[:ji], c.pending[ji+1:]...)
		c.dispatchLocked(js, target)
		dirs = append(dirs, Directive{Kind: DirStart, Job: js.job, Endpoint: target.name})
	}
	return dirs
}

// assignCostModelLocked drains pending longest-job-first onto the
// endpoint that minimizes predicted completion pressure.
func (c *Core) assignCostModelLocked(healthy []*ep) []Directive {
	var dirs []Directive
	mean := c.meanCostLocked()
	for len(c.pending) > 0 {
		js := c.pending[0] // highest priority, then longest
		var target *ep
		best := 0.0
		for _, e := range healthy {
			if e.inFlight() >= e.capacity(c.opts) {
				continue
			}
			score := (e.predicted() + float64(e.external())*mean + js.job.Cost) / float64(e.slots(c.opts))
			if target == nil || score < best {
				target, best = e, score
			}
		}
		if target == nil {
			break
		}
		c.pending = c.pending[1:]
		c.dispatchLocked(js, target)
		dirs = append(dirs, Directive{Kind: DirStart, Job: js.job, Endpoint: target.name})
	}
	return dirs
}

func (c *Core) dispatchLocked(js *jobState, e *ep) {
	js.phase = phaseQueued
	js.ep = e
	e.queued = append(e.queued, js)
}

// stealLocked reclaims queued jobs for endpoints that drained early: a
// thief with an idle worker slot and nothing pending takes the costliest
// queued job from the most-backlogged victim. Only an overflowed victim
// (more in flight than worker slots) qualifies — its queued jobs are
// genuinely stuck behind others. That restriction also makes steal
// chains terminate: a thief only ever fills up to its slot count, so
// receiving a stolen job can never turn it into a victim.
func (c *Core) stealLocked(healthy []*ep) []Directive {
	var dirs []Directive
	for _, thief := range healthy {
		if thief.inFlight() < thief.slots(c.opts) {
			var victim *ep
			var vBacklog float64
			for _, e := range healthy {
				if e == thief || len(e.queued) == 0 || e.inFlight() <= e.slots(c.opts) {
					continue
				}
				var backlog float64
				for _, q := range e.queued {
					backlog += q.job.Cost
				}
				// Normalize by slots: a 4-worker endpoint clears its queue
				// four times faster than a 1-worker one.
				backlog /= float64(e.slots(c.opts))
				if victim == nil || backlog > vBacklog {
					victim, vBacklog = e, backlog
				}
			}
			if victim == nil {
				return dirs
			}
			// Steal the costliest queued job (the one that hurts most at
			// the back of a slow queue), oldest first on ties.
			si := 0
			for i, q := range victim.queued {
				if q.job.Cost > victim.queued[si].job.Cost {
					si = i
				}
			}
			js := victim.queued[si]
			victim.queued = append(victim.queued[:si], victim.queued[si+1:]...)
			js.phase = phaseStealing
			js.reason = ReasonSteal
			js.thief = thief
			victim.stealing[js.job.ID] = js
			c.steals++
			dirs = append(dirs, Directive{Kind: DirCancel, Job: js.job, Endpoint: victim.name, Reason: ReasonSteal})
			// One steal per plan pass: the cancel confirmation requeues
			// the job and replans, which assigns it (and chains another
			// steal if more endpoints are still idle). Issuing several
			// speculative cancels at once would drain a victim the fleet
			// has not yet proven it can absorb.
			break
		}
	}
	return dirs
}

// preemptLocked displaces running low-priority work for pending
// higher-priority work when assignment found no capacity. One victim per
// starved pending job, already-in-flight preemptions counted against
// the need.
func (c *Core) preemptLocked(healthy []*ep) []Directive {
	inflight := 0
	for _, e := range healthy {
		for _, js := range e.stealing {
			if js.reason == ReasonPreempt {
				inflight++
			}
		}
	}
	var dirs []Directive
	for _, js := range c.pending {
		if inflight > 0 {
			inflight-- // an earlier preemption is already making room
			continue
		}
		victim := c.victimLocked(healthy, js.job.Priority)
		if victim == nil {
			break // nothing running at lower priority anywhere
		}
		victim.phase = phaseStealing
		victim.reason = ReasonPreempt
		delete(victim.ep.running, victim.job.ID)
		victim.ep.stealing[victim.job.ID] = victim
		c.preempts++
		dirs = append(dirs, Directive{Kind: DirCancel, Job: victim.job, Endpoint: victim.ep.name, Reason: ReasonPreempt})
	}
	return dirs
}

// victimLocked picks the running job to displace for a pending job of
// priority pri: the lowest-priority running job strictly below pri,
// longest (highest-cost) first among equals, highest ID as final tie.
func (c *Core) victimLocked(healthy []*ep, pri int) *jobState {
	var victim *jobState
	for _, e := range healthy {
		ids := make([]int64, 0, len(e.running))
		for id := range e.running {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			js := e.running[id]
			if js.job.Priority >= pri {
				continue
			}
			if victim == nil ||
				js.job.Priority < victim.job.Priority ||
				(js.job.Priority == victim.job.Priority && js.job.Cost > victim.job.Cost) ||
				(js.job.Priority == victim.job.Priority && js.job.Cost == victim.job.Cost && js.job.ID > victim.job.ID) {
				victim = js
			}
		}
	}
	return victim
}

// EndpointSnapshot is one endpoint's state for introspection.
type EndpointSnapshot struct {
	Name      string
	Healthy   bool
	HasLoad   bool
	Slots     int
	Capacity  int
	Queued    int
	Running   int
	Stealing  int
	Predicted float64
}

// Snapshot is a point-in-time view for tests, invariant checks, and
// operator tooling.
type Snapshot struct {
	Mode      Mode
	Pending   int
	Endpoints []EndpointSnapshot
	Steals    int
	Preempts  int
}

// Snapshot returns the current state.
func (c *Core) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Now()
	s := Snapshot{Pending: len(c.pending), Steals: c.steals, Preempts: c.preempts}
	if c.modeLocked(now) {
		s.Mode = ModeRoundRobin
	}
	for _, e := range c.eps {
		s.Endpoints = append(s.Endpoints, EndpointSnapshot{
			Name:      e.name,
			Healthy:   e.healthy(now),
			HasLoad:   e.hasLoad,
			Slots:     e.slots(c.opts),
			Capacity:  e.capacity(c.opts),
			Queued:    len(e.queued),
			Running:   len(e.running),
			Stealing:  len(e.stealing),
			Predicted: e.predicted(),
		})
	}
	return s
}
