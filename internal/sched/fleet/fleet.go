// Package fleet is the production driver for the cost-model scheduler:
// it executes sched.Core directives against real arcsimd daemons through
// internal/client, scrapes per-endpoint load from /metrics, and feeds
// every observation (submissions, completions, faults, probe samples,
// cancel confirmations) back into the Core. It is the one way
// cmd/experiments -remote dispatches.
//
// The division of labor mirrors internal/sched's package comment: the
// Core decides, fleet does. fleet keeps a whole sweep's worth of jobs in
// flight across the fleet at once, pipelines work onto each daemon's
// queue, fails a job over when its daemon faults, and executes the
// Core's steal/preempt cancels with the requeue-safe ?reason=preempt
// cancel the daemon recognizes — every job completes exactly once, and
// an operator's cancel stays final.
package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"arcsim/internal/client"
	"arcsim/internal/sched"
	"arcsim/internal/server"
	"arcsim/internal/sim"
)

// ErrNoEndpoints reports that the fleet cannot run a job: every
// endpoint is benched, or the job exhausted its endpoint-fault budget.
// Callers with a local engine treat it as the signal to fall back to
// in-process execution.
var ErrNoEndpoints = errors.New("fleet: no healthy endpoints")

// ErrJobCanceled reports a job an operator canceled (arcsimctl cancel)
// on a healthy daemon. The scheduler honors the cancellation: the
// endpoint is not benched (it did nothing wrong) and the job is not
// resubmitted elsewhere (that would resurrect what the operator
// killed). Distinct from a drain-time cancellation, which is an
// endpoint fault and does fail over.
var ErrJobCanceled = errors.New("fleet: job canceled")

// JobFailedError reports a job that a daemon ran to completion and which
// failed deterministically (a simulation error, not an endpoint fault).
// The scheduler does not fail over on it: the run would fail identically
// everywhere.
type JobFailedError struct {
	View client.JobView
}

func (e *JobFailedError) Error() string {
	return fmt.Sprintf("job %s %s: %s", e.View.ID, e.View.State, e.View.Error)
}

// ParseLoad extracts a sched.Load from /metrics text. It requires the
// gauges the scheduler plans on — arcsimd_workers, arcsimd_queue_depth,
// arcsimd_up — and returns an error for anything missing or unparseable
// (a partial sample is worse than none: the Core degrades to round-robin
// on probe failure instead of planning on fiction). Busy workers prefer
// arcsimd_busy_workers, falling back to arcsimd_jobs_running for older
// daemons.
func ParseLoad(text []byte) (sched.Load, error) {
	var l sched.Load
	seen := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i] // labeled families are not load gauges
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
		if err != nil {
			return sched.Load{}, fmt.Errorf("fleet: bad metric line %q: %w", line, err)
		}
		switch name {
		case "arcsimd_workers":
			l.Workers = int(v)
		case "arcsimd_busy_workers":
			l.Busy = int(v)
		case "arcsimd_jobs_running":
			if !seen["arcsimd_busy_workers"] {
				l.Busy = int(v)
			}
		case "arcsimd_queue_depth":
			l.Queue = int(v)
		case "arcsimd_queue_capacity":
			l.QueueCap = int(v)
		case "arcsimd_up":
			l.Up = v > 0
		default:
			continue
		}
		seen[name] = true
	}
	if err := sc.Err(); err != nil {
		return sched.Load{}, fmt.Errorf("fleet: reading metrics: %w", err)
	}
	for _, need := range []string{"arcsimd_workers", "arcsimd_queue_depth", "arcsimd_up"} {
		if !seen[need] {
			return sched.Load{}, fmt.Errorf("fleet: metrics missing %s", need)
		}
	}
	if l.Workers <= 0 {
		return sched.Load{}, fmt.Errorf("fleet: implausible arcsimd_workers %d", l.Workers)
	}
	return l, nil
}

// Options tunes a Scheduler.
type Options struct {
	// Client is applied to every endpoint's HTTP client.
	Client client.Options
	// ProbeInterval is how often each endpoint's /metrics is scraped
	// (default 2s; tests use milliseconds).
	ProbeInterval time.Duration
	// Sched tunes the planning core (cooldowns, pipeline depth, fault
	// budget, forced round-robin).
	Sched sched.Options
	// Logf, when set, receives scheduler lifecycle lines.
	Logf func(format string, args ...any)
}

func (o Options) normalized() Options {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 2 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.Sched.StaleAfter <= 0 {
		// A sample older than a few probe rounds is fiction.
		o.Sched.StaleAfter = 4 * o.ProbeInterval
	}
	return o
}

// outcome is one job's terminal delivery.
type outcome struct {
	res *sim.Result
	err error
}

// waiter tracks one submitted job from Run to delivery.
type waiter struct {
	spec     client.JobSpec
	ch       chan outcome
	remoteID string // daemon-side job id while dispatched
	endpoint string
	// cancelWanted records a DirCancel that arrived while the submit RPC
	// was still in flight; the dispatcher fires it as soon as the remote
	// id exists.
	cancelWanted bool
	lastErr      error // most recent endpoint fault, for DirFail context
}

// Scheduler drives a fleet of daemons with the cost-model policy.
type Scheduler struct {
	opts    Options
	core    *sched.Core
	clients map[string]*client.Client

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	waiters map[int64]*waiter
	nextID  int64
}

// New builds a Scheduler over the endpoints. Call Start before Run.
func New(endpoints []string, opts Options) *Scheduler {
	opts = opts.normalized()
	s := &Scheduler{
		opts:    opts,
		core:    sched.NewCore(endpoints, opts.Sched),
		clients: make(map[string]*client.Client, len(endpoints)),
		waiters: make(map[int64]*waiter),
	}
	for _, ep := range endpoints {
		s.clients[ep] = client.New(ep, opts.Client)
	}
	return s
}

// Start launches the probe and tick loops. ctx bounds the scheduler's
// lifetime; Stop (or ctx cancellation) ends it.
func (s *Scheduler) Start(ctx context.Context) {
	s.ctx, s.cancel = context.WithCancel(ctx)
	for ep := range s.clients {
		s.wg.Add(1)
		go s.probeLoop(ep)
	}
	s.wg.Add(1)
	go s.tickLoop()
}

// Stop ends the probe loops and waits for them. In-flight Run calls are
// unblocked by their own contexts.
func (s *Scheduler) Stop() {
	if s.cancel != nil {
		s.cancel()
	}
	s.wg.Wait()
}

// Mode reports the dispatch policy currently in force (cost-model, or
// round-robin while load observations are missing/stale/forced).
func (s *Scheduler) Mode() sched.Mode { return s.core.Mode() }

// PeerHolds reports whether any healthy fleet endpoint's store already
// holds the canonical cache key (one HEAD per endpoint, in parallel,
// first hit wins). The cost model prices such a job near zero — on a
// peered fleet it costs one mesh blob fetch wherever it lands, not a
// simulation. Benched endpoints are skipped, so a hung daemon cannot
// stall every run's pricing; unreachable ones simply read as "no".
func (s *Scheduler) PeerHolds(ctx context.Context, key string) bool {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	var healthy []*client.Client
	for _, e := range s.core.Snapshot().Endpoints {
		if e.Healthy {
			healthy = append(healthy, s.clients[e.Name])
		}
	}
	hits := make(chan bool, len(healthy))
	for _, c := range healthy {
		go func(c *client.Client) { hits <- c.StoreHead(ctx, key) }(c)
	}
	for range healthy {
		if <-hits {
			return true // cancel() reels in the stragglers
		}
	}
	return false
}

// Snapshot exposes the planning core's state for tooling.
func (s *Scheduler) Snapshot() sched.Snapshot { return s.core.Snapshot() }

// probeLoop scrapes one endpoint's /metrics until the scheduler stops.
// The first probe fires immediately so a fresh fleet leaves degraded
// mode as soon as every daemon answers once.
func (s *Scheduler) probeLoop(ep string) {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.ProbeInterval)
	defer t.Stop()
	for {
		s.probe(ep)
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
		}
	}
}

func (s *Scheduler) probe(ep string) {
	ctx, cancel := context.WithTimeout(s.ctx, s.opts.ProbeInterval)
	raw, err := s.clients[ep].Metrics(ctx)
	cancel()
	if err == nil {
		var l sched.Load
		if l, err = ParseLoad(raw); err == nil {
			s.execute(s.core.UpdateLoad(ep, l))
			return
		}
	}
	if s.ctx.Err() != nil {
		return
	}
	s.opts.Logf("sched: probe %s failed: %v", ep, err)
	s.execute(s.core.ProbeFailed(ep))
}

// tickLoop replans periodically so endpoint cooldowns expire and stale
// samples demote the policy even when no job events arrive.
func (s *Scheduler) tickLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
			s.execute(s.core.Tick())
			s.failPendingIfDead()
		}
	}
}

// Run schedules one job and blocks until its result, its deterministic
// failure, or ctx. Cost comes from sched.EstimateCost (or any consistent
// unit); higher priority preempts lower when the fleet saturates.
func (s *Scheduler) Run(ctx context.Context, spec client.JobSpec, cost float64, priority int) (*sim.Result, error) {
	s.mu.Lock()
	s.nextID++
	id := s.nextID
	w := &waiter{spec: spec, ch: make(chan outcome, 1)}
	s.waiters[id] = w
	s.mu.Unlock()

	job := &sched.Job{
		ID:       id,
		Label:    fmt.Sprintf("%s/%s/%d", spec.Workload, spec.Protocol, spec.Cores),
		Cost:     cost,
		Priority: priority,
	}
	s.execute(s.core.Submit(job))
	s.failPendingIfDead()

	select {
	case out := <-w.ch:
		return out.res, out.err
	case <-ctx.Done():
		s.abandon(id, w)
		return nil, ctx.Err()
	case <-s.ctx.Done():
		s.abandon(id, w)
		return nil, s.ctx.Err()
	}
}

// abandon detaches a job whose caller stopped waiting: the Core forgets
// it and a best-effort cancel reaps the daemon-side run.
func (s *Scheduler) abandon(id int64, w *waiter) {
	s.execute(s.core.Final(id))
	s.mu.Lock()
	delete(s.waiters, id)
	remote, ep := w.remoteID, w.endpoint
	s.mu.Unlock()
	if remote != "" && ep != "" {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.clients[ep].Cancel(ctx, remote) //nolint:errcheck // best effort
	}
}

// deliver completes a waiter exactly once (the map entry is the token).
func (s *Scheduler) deliver(id int64, out outcome) {
	s.mu.Lock()
	w := s.waiters[id]
	delete(s.waiters, id)
	s.mu.Unlock()
	if w != nil {
		w.ch <- out
	}
}

// failPendingIfDead keeps the ErrNoEndpoints contract: when every
// endpoint is benched, pending jobs fail fast so callers can fall back
// to local execution instead of waiting out cooldowns.
func (s *Scheduler) failPendingIfDead() {
	snap := s.core.Snapshot()
	if snap.Pending == 0 {
		return
	}
	for _, e := range snap.Endpoints {
		if e.Healthy {
			return
		}
	}
	for _, job := range s.core.FailPending() {
		s.deliver(job.ID, outcome{err: s.unavailable(job.ID, ErrNoEndpoints)})
	}
}

// unavailable returns err, which wraps ErrNoEndpoints, with the job's
// most recent endpoint fault appended as context.
func (s *Scheduler) unavailable(id int64, err error) error {
	s.mu.Lock()
	var lastErr error
	if w := s.waiters[id]; w != nil {
		lastErr = w.lastErr
	}
	s.mu.Unlock()
	if lastErr != nil {
		return fmt.Errorf("%w (last: %v)", err, lastErr)
	}
	return err
}

// execute carries out the Core's directives. Start directives run their
// job asynchronously; cancels fire asynchronously too (their
// confirmation re-enters the Core from the dispatcher goroutine).
func (s *Scheduler) execute(dirs []sched.Directive) {
	for _, d := range dirs {
		switch d.Kind {
		case sched.DirStart:
			s.wg.Add(1)
			go s.dispatch(d.Endpoint, d.Job.ID)
		case sched.DirCancel:
			s.requestCancel(d.Endpoint, d.Job.ID)
		case sched.DirFail:
			// The fleet kept faulting under the job; the caller can
			// still run it locally, exactly as when all are benched.
			err := fmt.Errorf("%w: job %s exhausted its endpoint-fault budget", ErrNoEndpoints, d.Job.Label)
			s.deliver(d.Job.ID, outcome{err: s.unavailable(d.Job.ID, err)})
		}
	}
}

// requestCancel executes a DirCancel: the requeue-safe daemon cancel for
// a steal or preemption. If the job's submit RPC has not finished yet
// the cancel is parked on the waiter; the dispatcher fires it the moment
// the remote id exists.
func (s *Scheduler) requestCancel(ep string, id int64) {
	s.mu.Lock()
	w := s.waiters[id]
	if w == nil {
		s.mu.Unlock()
		return
	}
	remote := w.remoteID
	if remote == "" {
		w.cancelWanted = true
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.cancelRemote(ep, id, remote)
	}()
}

// cancelRemote delivers the ?reason=preempt cancel and reports an
// undeliverable one as CancelFailed (the follower owns the terminal
// state either way).
func (s *Scheduler) cancelRemote(ep string, id int64, remote string) {
	ctx, cancel := context.WithTimeout(s.ctx, 10*time.Second)
	defer cancel()
	err := s.clients[ep].CancelReason(ctx, remote, "preempt")
	if err == nil {
		return // the follower will observe the canceled state and confirm
	}
	// 409 means the job went terminal first (the done-before-cancel
	// race); any error means the cancel did not land. Either way the
	// follower's observation wins.
	s.execute(s.core.CancelFailed(ep, id))
}

// dispatch owns one (job, endpoint) attempt end to end: submit, follow,
// classify the terminal state (DESIGN.md's failure taxonomy), and feed
// the Core, which decides where a failed-over job goes next.
func (s *Scheduler) dispatch(ep string, id int64) {
	defer s.wg.Done()
	s.mu.Lock()
	w := s.waiters[id]
	s.mu.Unlock()
	if w == nil {
		return // delivered or abandoned while the directive was in flight
	}
	c := s.clients[ep]

	view, err := c.Submit(s.ctx, w.spec)
	if err != nil {
		s.fault(ep, id, w, fmt.Errorf("submit to %s: %w", ep, err))
		return
	}
	s.mu.Lock()
	w.remoteID, w.endpoint = view.ID, ep
	fireCancel := w.cancelWanted
	w.cancelWanted = false
	s.mu.Unlock()
	if fireCancel {
		s.cancelRemote(ep, id, view.ID)
	}

	final, err := c.Follow(s.ctx, view.ID, func(name, data string) {
		if name != "state" {
			return
		}
		var ev struct {
			State string `json:"state"`
		}
		if json.Unmarshal([]byte(data), &ev) == nil && ev.State == server.StateRunning {
			s.core.Started(ep, id)
		}
	})
	if err != nil {
		if errors.Is(err, client.ErrJobLost) {
			// The daemon restarted under the job: resubmit, no bench.
			s.execute(s.core.Lost(ep, id))
			s.failPendingIfDead()
			return
		}
		s.fault(ep, id, w, fmt.Errorf("follow on %s: %w", ep, err))
		return
	}
	if final.Spec != view.Spec {
		// Job ids embed a per-lifetime epoch so a restarted daemon 404s
		// stale ids, but if an id ever does name someone else's job, the
		// submit-time spec catches it here, before the foreign result is
		// fetched into the sweep. Resubmit the spec we actually want.
		s.execute(s.core.Lost(ep, id))
		s.failPendingIfDead()
		return
	}

	switch final.State {
	case server.StateDone:
		res, err := c.Result(s.ctx, final.ID)
		if err != nil {
			s.fault(ep, id, w, fmt.Errorf("result from %s: %w", ep, err))
			return
		}
		// The Core settles each terminal job before its owner hears, so
		// a Run that has returned no longer counts in a Snapshot.
		s.execute(s.core.Done(ep, id))
		s.deliver(id, outcome{res: res})
	case server.StateFailed:
		// Deterministic failure: identical everywhere, no failover.
		s.execute(s.core.Final(id))
		s.deliver(id, outcome{err: &JobFailedError{View: final}})
	case server.StateCanceled:
		switch final.Error {
		case server.CancelReasonDrain:
			// The daemon is going down; requeue elsewhere, bench it.
			s.fault(ep, id, w, fmt.Errorf("job %s canceled by drain on %s", final.ID, ep))
		case server.CancelReasonPreempt:
			// Our own steal/preempt (or an external requeue-safe cancel):
			// confirm and let the Core place it again.
			s.execute(s.core.Canceled(ep, id))
		default:
			// Operator cancel: honored, never resurrected.
			s.execute(s.core.Final(id))
			s.deliver(id, outcome{err: fmt.Errorf("%w: job %s on %s: %s",
				ErrJobCanceled, final.ID, ep, final.Error)})
		}
	default:
		s.fault(ep, id, w, fmt.Errorf("job %s ended %s on %s: %s", final.ID, final.State, ep, final.Error))
	}
}

// fault records an endpoint fault against the job and replans.
func (s *Scheduler) fault(ep string, id int64, w *waiter, err error) {
	if s.ctx.Err() != nil {
		return // shutting down: the waiter unblocks via context
	}
	s.opts.Logf("sched: %v", err)
	s.mu.Lock()
	w.lastErr = err
	s.mu.Unlock()
	s.execute(s.core.Fault(ep, id))
	s.failPendingIfDead()
}
