// Package server is arcsimd's service layer: an HTTP/JSON job API over
// the bench.Runner engine, with a bounded work queue, per-job
// cancellation, server-sent-event progress streams, Prometheus-text
// metrics, and a persistent result store (internal/store) under the
// runner's memo so a restarted daemon never re-proves a result.
//
// Endpoints (README "Running as a service" shows a full curl session):
//
//	POST   /v1/jobs               submit a JobSpec; 429 + Retry-After when the queue is full
//	GET    /v1/jobs               list jobs (newest last)
//	GET    /v1/jobs/{id}          one job's state
//	POST   /v1/jobs/{id}/cancel   cancel (queued or mid-run); DELETE /v1/jobs/{id} is an alias
//	GET    /v1/jobs/{id}/result   the raw persisted sim.Result JSON
//	GET    /v1/jobs/{id}/events   SSE lifecycle stream (replays history, then follows)
//	GET    /healthz               liveness + store summary
//	GET    /metrics               Prometheus text format
package server

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"arcsim/internal/bench"
	"arcsim/internal/machine"
	"arcsim/internal/mesh"
	"arcsim/internal/protocols"
	"arcsim/internal/sim"
	"arcsim/internal/store"
	"arcsim/internal/workload"
)

// JobSpec is a client's run request: the same coordinates the experiment
// harness feeds bench.Runner. Zero values take the harness defaults
// (scale 0.25, seed 1, cores 8).
type JobSpec struct {
	Workload   string  `json:"workload"`
	Protocol   string  `json:"protocol"`
	Cores      int     `json:"cores,omitempty"`
	AIMEntries int     `json:"aimEntries,omitempty"`
	Scale      float64 `json:"scale,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	Oracle     bool    `json:"oracle,omitempty"`
	// ConflictsOnly declares the client only needs conflict-dependent
	// outputs (conflict counts, exceptions, oracle verdicts), not
	// cycle-accurate ones. On a tiering daemon a proven-DRF trace then
	// skips simulation entirely: soundness fully determines those
	// outputs, and the job completes with a synthesized result
	// (Synthesized=true, zero cycles). Keep this struct comparable —
	// the failover pool equates specs with ==.
	ConflictsOnly bool `json:"conflictsOnly,omitempty"`
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// States lists every job state, in lifecycle order (for metrics).
func States() []string {
	return []string{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled}
}

// CancelReasonDrain is the Error carried by jobs a drain canceled while
// they were still queued. Clients use it to tell "the daemon is going
// down, run the job elsewhere" from an operator cancel, which must be
// honored rather than failed over.
const CancelReasonDrain = "daemon draining"

// CancelReasonPreempt is the Error carried by jobs canceled with
// ?reason=preempt: the scheduler displaced the job to make room for
// higher-priority work and will resubmit it, so clients treat it as
// requeue-safe (like a drain) rather than as an operator cancel.
const CancelReasonPreempt = "preempted for requeue"

// JobView is the client-facing snapshot of one job.
type JobView struct {
	ID      string    `json:"id"`
	Spec    JobSpec   `json:"spec"`
	State   string    `json:"state"`
	Error   string    `json:"error,omitempty"`
	Created time.Time `json:"created"`
	Started time.Time `json:"started"`
	Done    time.Time `json:"finished"`
	// CacheHit reports the result was served from the persistent store
	// without simulating.
	CacheHit bool `json:"cacheHit"`
	// Cycles summarizes the result inline (full result at /result).
	Cycles uint64 `json:"cycles,omitempty"`
	// Verdict is the static analyzer's verdict for the job's trace
	// (VerdictProvenDRF or VerdictMayConflict), recorded when the daemon
	// runs with tiering enabled; empty otherwise.
	Verdict string `json:"verdict,omitempty"`
	// Tiered reports the result was synthesized from a proven-DRF
	// verdict without simulating (conflicts-only request).
	Tiered bool `json:"tiered,omitempty"`
	// Witness is the witness tier's per-prediction classification of
	// the job's trace, recorded on may-conflict jobs when the daemon
	// runs with Config.Witness; nil otherwise.
	Witness *WitnessView `json:"witness,omitempty"`
}

// job is the server-side record. The server's mu guards JobView's
// mutable fields; the SSE history has its own lock so streaming never
// contends with the scheduler.
type job struct {
	JobView

	result *sim.Result
	cancel context.CancelCauseFunc
	ctx    context.Context

	evMu   sync.Mutex
	events []event
	subs   map[chan event]struct{}
}

type event struct {
	Name string // SSE event: field
	Data string // SSE data: field (JSON)
}

// Config tunes a Server.
type Config struct {
	// Workers bounds concurrently running simulations (default
	// GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs waiting to run (default 64). A full queue
	// rejects submissions with 429 + Retry-After.
	QueueDepth int
	// Store, when non-nil, persists every completed result and serves
	// repeats without simulating.
	Store *store.Store
	// Mesh, when non-nil (requires Store), federates the store across
	// the daemon fleet: local misses read through to healthy peers
	// before simulating, and the daemon serves its own blobs on
	// GET/HEAD /v1/store/{key}. The blob API keeps serving during a
	// drain — a drain stops this daemon's workers and submissions, but
	// its store stays valid and peers may still be warming from it.
	Mesh *mesh.Mesh
	// Logf receives one line per lifecycle transition (default: none).
	Logf func(format string, args ...any)
	// Progress receives the runner's per-simulation lines (optional).
	Progress io.Writer
	// Tier enables analyze-first tiered execution: every job's trace is
	// statically analyzed (cached per trace identity), the verdict is
	// recorded in JobView and /metrics, conflicts-only jobs on
	// proven-DRF traces complete with a synthesized result instead of
	// simulating, and the underlying runners gain the bench tier
	// (oracle skips, phase-parallel simulation). All simulated results
	// stay byte-identical to straight-line execution.
	Tier bool
	// Witness enables the witness precision tier on top of Tier (which
	// it implies): every may-conflict job's predicted conflicts are
	// classified — confirmed with a replayable directed schedule,
	// refuted by acquisition-history reasoning, or left unwitnessed
	// within budget (internal/static/witness) — and the classification
	// is surfaced on JobView.Witness and /metrics. Examinations cost
	// simulations, so they are memoized per trace identity like the
	// analyses.
	Witness bool
}

func (c Config) normalized() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Witness {
		c.Tier = true // witness classification refines the tier's verdicts
	}
	return c
}

// Server is the arcsimd service. Create with New, install Handler into
// an http.Server, call Start, and Drain on shutdown.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	queue chan *job

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string // creation order
	nextID  int
	epoch   string                   // per-lifetime id suffix; see epochToken
	runners map[string]*bench.Runner // one per (scale, seed), derived from base
	cycles  map[string]uint64        // simulated cycles per protocol
	// Tier accounting (under mu): analyzer verdicts recorded and jobs
	// completed with a synthesized result instead of a simulation.
	verdicts    map[string]int
	tieredSkips int
	// Witness accounting (under mu): prediction statuses recorded on
	// jobs, examinations attached, and directed replays spent.
	witnessStatus  map[string]int
	witnessExams   int
	witnessReplays int

	// base carries what every per-(scale, seed) runner shares: the
	// machine pool, the result cache, Tier and Progress. It runs nothing
	// itself.
	base *bench.Runner

	running  atomic.Int64
	draining atomic.Bool
	drainCh  chan struct{}
	wg       sync.WaitGroup
	started  time.Time

	// Service-time accounting (under mu): total wall-clock and count of
	// jobs that ran to a terminal state, feeding the 429 Retry-After
	// estimate. now is replaceable so tests can script durations.
	svcTotal time.Duration
	svcCount int
	now      func() time.Time

	// runJob executes one spec; tests substitute a stub to script
	// slow/failing runs without simulating.
	runJob func(ctx context.Context, spec JobSpec) (*sim.Result, error)

	// heartbeat is the SSE keep-alive/self-heal interval: every tick an
	// event stream re-drains the job's history (delivering anything a
	// dropped fan-out send left behind) and writes an SSE comment so
	// idle connections survive proxies. Tests shorten it.
	heartbeat time.Duration
}

// New builds a Server (workers not yet started).
func New(cfg Config) *Server {
	s := &Server{
		cfg:           cfg.normalized(),
		jobs:          make(map[string]*job),
		runners:       make(map[string]*bench.Runner),
		cycles:        make(map[string]uint64),
		verdicts:      make(map[string]int),
		witnessStatus: make(map[string]int),
		epoch:         epochToken(),
		drainCh:       make(chan struct{}),
		started:       time.Now(),
		now:           time.Now,
		heartbeat:     5 * time.Second,
	}
	// Jobs 1: the workers are the daemon's parallelism, so a -witness
	// job's examination runs its replays serially beside the others'
	// jobs instead of on GOMAXPROCS goroutines of its own.
	base := bench.Config{Progress: s.cfg.Progress, Tier: s.cfg.Tier, Jobs: 1}
	switch {
	case s.cfg.Mesh != nil:
		// Local store first, then a read-through across healthy peers;
		// only a fleet-wide miss reaches the simulator.
		base.Cache = mesh.NewCache(s.cfg.Mesh)
	case s.cfg.Store != nil:
		base.Cache = s.cfg.Store
	}
	s.base = bench.NewRunner(base)
	s.queue = make(chan *job, s.cfg.QueueDepth)
	s.runJob = s.simulate
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// SetRunJob replaces the job executor. Call before Start; client-side
// fault-injection tests use it to stand up daemons with scripted
// behavior instead of real simulations.
func (s *Server) SetRunJob(run func(ctx context.Context, spec JobSpec) (*sim.Result, error)) {
	s.runJob = run
}

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Drain stops accepting jobs (submissions get 503), lets every running
// simulation finish and flush its result to the store, marks still-queued
// jobs canceled, and returns. ctx bounds the wait.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil // already draining
	}
	close(s.drainCh)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
	// Workers are gone; whatever is still queued will never run.
	for {
		select {
		case j := <-s.queue:
			s.finish(j, nil, errors.New(CancelReasonDrain), StateCanceled)
		default:
			return nil
		}
	}
}

// worker pulls jobs until drain. The current job always completes (and
// its result is persisted) before the worker exits.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.drainCh:
			return
		case j := <-s.queue:
			s.process(j)
		}
	}
}

func (s *Server) process(j *job) {
	s.mu.Lock()
	if j.State != StateQueued { // canceled while queued
		s.mu.Unlock()
		return
	}
	j.State = StateRunning
	j.Started = s.now()
	s.mu.Unlock()
	s.running.Add(1)
	defer s.running.Add(-1)
	s.emit(j, "state", fmt.Sprintf(`{"id":%q,"state":%q}`, j.ID, StateRunning))
	s.cfg.Logf("job %s running: %s/%s/%d", j.ID, j.Spec.Workload, j.Spec.Protocol, j.Spec.Cores)

	if s.cfg.Tier {
		if synth, verdict := s.tier(j.Spec); verdict != "" {
			s.mu.Lock()
			j.Verdict = verdict
			s.verdicts[verdict]++
			if synth != nil {
				j.Tiered = true
				s.tieredSkips++
			}
			s.mu.Unlock()
			if synth != nil {
				s.cfg.Logf("job %s short-circuited: %s is %s, conflicts-only result synthesized",
					j.ID, j.Spec.Workload, verdict)
				s.finish(j, synth, nil, StateDone)
				return
			}
			if s.cfg.Witness && verdict == VerdictMayConflict {
				// The precision tier: classify every predicted conflict
				// before the simulation runs, so the job's final view
				// carries the refined verdicts. The examination is memoized
				// per trace identity; only the first job on an identity
				// pays for it.
				if v := s.examine(j); v != nil {
					s.mu.Lock()
					j.Witness = v
					s.witnessExams++
					s.witnessReplays += v.Replays
					s.witnessStatus["confirmed"] += v.Confirmed
					s.witnessStatus["refuted"] += v.Refuted
					s.witnessStatus["unwitnessed"] += v.Unwitnessed
					s.mu.Unlock()
					s.cfg.Logf("job %s witness: %d predicted = %d confirmed + %d refuted + %d unwitnessed (%d replays)",
						j.ID, v.Predicted, v.Confirmed, v.Refuted, v.Unwitnessed, v.Replays)
				}
			}
		}
	}

	res, err := s.runJob(j.ctx, j.Spec)
	switch {
	case err == nil:
		s.finish(j, res, nil, StateDone)
	case errors.Is(err, sim.ErrCanceled) || errors.Is(err, context.Canceled):
		s.finish(j, nil, context.Cause(j.ctx), StateCanceled)
	default:
		s.finish(j, nil, err, StateFailed)
	}
}

// finish moves j to a terminal state and publishes the final event.
func (s *Server) finish(j *job, res *sim.Result, err error, state string) {
	s.mu.Lock()
	j.State = state
	j.Done = s.now()
	if !j.Started.IsZero() {
		// The job actually ran: fold its service time into the mean that
		// drives Retry-After (cache hits included — they are real,
		// near-instant service and shrink the advertised backoff).
		s.svcTotal += j.Done.Sub(j.Started)
		s.svcCount++
	}
	j.result = res
	if res != nil {
		j.CacheHit = res.CacheHit
		j.Cycles = res.Cycles
		s.cycles[j.Spec.Protocol] += res.Cycles
	}
	if err != nil {
		j.Error = err.Error()
	}
	view := s.viewLocked(j)
	s.mu.Unlock()
	s.emit(j, "state", fmt.Sprintf(`{"id":%q,"state":%q}`, j.ID, state))
	s.emit(j, "done", mustJSON(view))
	s.closeSubs(j)
	s.cfg.Logf("job %s %s (cacheHit=%v, err=%v)", j.ID, state, j.CacheHit, err)
}

// Verdicts a tiering daemon records on jobs (JobView.Verdict and the
// arcsimd_tier_verdicts_total metric).
const (
	VerdictProvenDRF   = "proven-drf"
	VerdictMayConflict = "may-conflict"
)

// tier runs the analyze-first step for one job: the analyzer's verdict
// (memoized per trace identity inside the shared runner) plus, for
// conflicts-only requests on proven-DRF traces, the synthesized result
// that makes simulation unnecessary. An analysis failure returns ""
// and the job proceeds exactly as it would with tiering off.
func (s *Server) tier(spec JobSpec) (*sim.Result, string) {
	an, err := s.runner(spec).Analysis(spec.Workload, spec.Cores)
	if err != nil {
		return nil, ""
	}
	if !an.ProvenDRF() {
		return nil, VerdictMayConflict
	}
	if !spec.ConflictsOnly {
		return nil, VerdictProvenDRF
	}
	// Every conflict-dependent output of a proven-DRF trace is fully
	// determined by soundness (detected ⊆ predicted = ∅): no schedule on
	// any design can produce a conflict, so the zero-exception result is
	// exact. It is synthesized, not simulated — it bypasses the runner
	// and is never persisted under a simulation cache key — and carries
	// no cycle-accurate fields (clients wanting those must not set
	// conflictsOnly).
	return &sim.Result{
		Protocol:      spec.Protocol,
		Workload:      spec.Workload,
		Cores:         spec.Cores,
		OracleChecked: true,
		Synthesized:   true,
	}, VerdictProvenDRF
}

// simulate is the production runJob: route the spec through the shared
// per-(scale,seed) runner so concurrent identical jobs singleflight and
// the persistent store sits under the memo.
func (s *Server) simulate(ctx context.Context, spec JobSpec) (*sim.Result, error) {
	return s.runner(spec).SpecResult(ctx, bench.RunSpec{
		Workload:   spec.Workload,
		Proto:      spec.Protocol,
		Cores:      spec.Cores,
		AIMEntries: spec.AIMEntries,
		Oracle:     spec.Oracle,
	})
}

// runner returns (deriving on first use) the runner for spec's
// scale/seed pair.
func (s *Server) runner(spec JobSpec) *bench.Runner {
	key := fmt.Sprintf("%g|%d", spec.Scale, spec.Seed)
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.runners[key]; ok {
		return r
	}
	r := s.base.Derive(spec.Scale, spec.Seed)
	s.runners[key] = r
	return r
}

// epochToken returns eight hex characters unique to this daemon
// lifetime. Job ids embed it so ids from different lifetimes can never
// collide: the sequential counter restarts from zero on every boot, and
// without the epoch a client holding a pre-restart id could silently
// address (and harvest the result of) a different job submitted after
// the restart. With it, a stale id simply 404s, which clients already
// map to ErrJobLost-and-resubmit.
func epochToken() string {
	var b [4]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		return fmt.Sprintf("%08x", uint32(time.Now().UnixNano()))
	}
	return hex.EncodeToString(b[:])
}

// submit validates, registers, and enqueues a job. It returns the job,
// or an httpError carrying the status to serve.
func (s *Server) submit(spec JobSpec) (*job, error) {
	if err := normalizeSpec(&spec); err != nil {
		return nil, &httpError{http.StatusBadRequest, err.Error(), nil}
	}
	if s.draining.Load() {
		return nil, &httpError{http.StatusServiceUnavailable, "daemon is draining", nil}
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s.mu.Lock()
	s.nextID++
	j := &job{
		JobView: JobView{
			ID:      fmt.Sprintf("j%06d-%s", s.nextID, s.epoch),
			Spec:    spec,
			State:   StateQueued,
			Created: s.now(),
		},
		ctx:    ctx,
		cancel: cancel,
		subs:   make(map[chan event]struct{}),
	}
	select {
	case s.queue <- j:
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		cancel(nil)
		return nil, &httpError{
			http.StatusTooManyRequests, "job queue is full",
			http.Header{"Retry-After": []string{strconv.Itoa(s.retryAfter())}},
		}
	}
	s.emit(j, "state", fmt.Sprintf(`{"id":%q,"state":%q}`, j.ID, StateQueued))
	s.cfg.Logf("job %s queued: %s/%s/%d", j.ID, spec.Workload, spec.Protocol, spec.Cores)
	return j, nil
}

// retryAfter estimates, in whole seconds, when a rejected submitter
// should come back: the time for the worker pool to drain the current
// backlog plus one slot, at the observed mean job service time. Before
// any job has completed it assumes a 2s prior; the estimate is clamped
// to [1, 60] so a pathological backlog never advertises an hour.
func (s *Server) retryAfter() int {
	s.mu.Lock()
	total, count := s.svcTotal, s.svcCount
	s.mu.Unlock()
	mean := 2 * time.Second
	if count > 0 {
		mean = total / time.Duration(count)
	}
	pending := len(s.queue) + int(s.running.Load()) + 1
	workers := s.cfg.Workers
	if workers < 1 {
		// Config.normalized pins Workers ≥ 1; keep the division safe on
		// this path even if a zero-value Config ever reaches it.
		workers = 1
	}
	wait := mean * time.Duration(pending) / time.Duration(workers)
	sec := int((wait + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// submitBatch registers one job per spec, in order. Each entry succeeds
// or fails independently (a full queue rejects the remainder without
// unwinding earlier accepts); the per-item error carries the same status
// the single-submit endpoint would have returned.
func (s *Server) submitBatch(specs []JobSpec) []BatchItem {
	items := make([]BatchItem, len(specs))
	for i, spec := range specs {
		j, err := s.submit(spec)
		if err != nil {
			he, ok := err.(*httpError)
			if !ok {
				he = &httpError{http.StatusInternalServerError, err.Error(), nil}
			}
			items[i] = BatchItem{Status: he.status, Error: he.msg}
			continue
		}
		s.mu.Lock()
		view := s.viewLocked(j)
		s.mu.Unlock()
		items[i] = BatchItem{Status: http.StatusAccepted, Job: &view}
	}
	return items
}

// BatchItem is one entry of a batch-submit response: the accepted job,
// or the HTTP status + error the spec would have drawn on its own.
type BatchItem struct {
	Status int      `json:"status"`
	Job    *JobView `json:"job,omitempty"`
	Error  string   `json:"error,omitempty"`
}

// cancelJob cancels a queued or running job. Terminal jobs are left
// untouched (reported via the bool). A non-empty reason (e.g.
// CancelReasonPreempt) replaces the default cancel cause, so the final
// state tells clients why the job was canceled.
func (s *Server) cancelJob(id, reason string) (found, canceled bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return false, false
	}
	state := j.State
	s.mu.Unlock()
	switch state {
	case StateQueued:
		// The worker's process() skips jobs that left StateQueued; mark
		// it canceled right here so the client sees it immediately.
		cause := reason
		if cause == "" {
			cause = "canceled while queued"
		}
		j.cancel(errors.New(cause))
		s.finish(j, nil, errors.New(cause), StateCanceled)
		return true, true
	case StateRunning:
		// The run's context unwinds sim.RunContext; the worker
		// finalizes the state with this cause.
		cause := reason
		if cause == "" {
			cause = "canceled by client"
		}
		j.cancel(errors.New(cause))
		return true, true
	default:
		return true, false
	}
}

// emit appends one SSE event to the job's history and fans it out.
func (s *Server) emit(j *job, name, data string) {
	j.evMu.Lock()
	defer j.evMu.Unlock()
	ev := event{Name: name, Data: data}
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: it will see the event on replay-catch-up
		}
	}
}

// subscribe returns the event history so far plus a live channel (nil
// once the job is terminal and history is complete).
func (j *job) subscribe() ([]event, chan event) {
	j.evMu.Lock()
	defer j.evMu.Unlock()
	history := append([]event(nil), j.events...)
	if j.subs == nil { // closed: terminal job, history is final
		return history, nil
	}
	ch := make(chan event, 16)
	j.subs[ch] = struct{}{}
	return history, ch
}

// history snapshots the event log without subscribing.
func (j *job) history() []event {
	j.evMu.Lock()
	defer j.evMu.Unlock()
	return append([]event(nil), j.events...)
}

func (j *job) unsubscribe(ch chan event) {
	j.evMu.Lock()
	defer j.evMu.Unlock()
	if j.subs != nil {
		delete(j.subs, ch)
	}
}

// closeSubs ends every live stream after the terminal event.
func (s *Server) closeSubs(j *job) {
	j.evMu.Lock()
	defer j.evMu.Unlock()
	for ch := range j.subs {
		close(ch)
	}
	j.subs = nil
}

// normalizeSpec applies defaults and validates spec, so bad requests
// fail at submit time with a 400 instead of becoming failed jobs. Past
// the workload and the sign of aimEntries, it applies the engine's own
// rules through protocols.MachineConfig, on the machine configuration
// the worker will build: the design name, cores in [1,64], and the AIM
// geometry and ceiling. It builds no machine.
func normalizeSpec(spec *JobSpec) error {
	spec.Protocol = strings.ToLower(strings.TrimSpace(spec.Protocol))
	spec.Workload = strings.TrimSpace(spec.Workload)
	if spec.Scale <= 0 {
		spec.Scale = 0.25
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	if spec.Cores == 0 {
		spec.Cores = 8
	}
	if spec.Workload == "" {
		return errors.New("workload is required")
	}
	if _, ok := workload.Generator(spec.Workload); !ok {
		return fmt.Errorf("unknown workload %q", spec.Workload)
	}
	if spec.AIMEntries < 0 {
		return fmt.Errorf("aimEntries %d must be >= 0", spec.AIMEntries)
	}
	mcfg := machine.Default(spec.Cores)
	if spec.AIMEntries > 0 {
		mcfg.AIM.Entries = spec.AIMEntries
	}
	_, err := protocols.MachineConfig(spec.Protocol, mcfg)
	return err
}

// viewLocked snapshots a job for JSON (caller holds s.mu).
func (s *Server) viewLocked(j *job) JobView {
	return j.JobView
}

// jobList snapshots every job in creation order.
func (s *Server) jobList() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.viewLocked(s.jobs[id]))
	}
	return out
}

// stateCounts returns the number of jobs in each state.
func (s *Server) stateCounts() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	counts := make(map[string]int, 5)
	for _, j := range s.jobs {
		counts[j.State]++
	}
	return counts
}

// tierCounts snapshots the tier accounting: verdicts recorded per kind
// and jobs completed with a synthesized result.
func (s *Server) tierCounts() (verdicts map[string]int, skips int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	verdicts = make(map[string]int, len(s.verdicts))
	for k, v := range s.verdicts {
		verdicts[k] = v
	}
	return verdicts, s.tieredSkips
}

// witnessCounts snapshots the witness-tier accounting: prediction
// statuses recorded on jobs, examinations attached, replays spent.
func (s *Server) witnessCounts() (status map[string]int, exams, replays int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	status = make(map[string]int, len(s.witnessStatus))
	for k, v := range s.witnessStatus {
		status[k] = v
	}
	return status, s.witnessExams, s.witnessReplays
}

// simsTotal counts the simulations this daemon actually executed
// (cache hits, mesh fetches, and tier synthesis do not count). The CI
// federation smoke reads the arcsimd_sims_total metric this feeds to
// prove a peered daemon served a warmed sweep with zero simulations.
func (s *Server) simsTotal() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, r := range s.runners {
		n += uint64(r.Timing().Runs)
	}
	return n
}

// cycleCounts snapshots the per-protocol simulated-cycle counters.
func (s *Server) cycleCounts() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.cycles))
	for k, v := range s.cycles {
		out[k] = v
	}
	return out
}

// sortedKeys is a tiny helper for deterministic metric ordering.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
