package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arcsim/internal/client"
	"arcsim/internal/sched"
	"arcsim/internal/server"
	"arcsim/internal/sim"
)

// --- ParseLoad: the probe's contract with /metrics -------------------

func TestParseLoad(t *testing.T) {
	full := `# HELP arcsimd_up whether the daemon accepts work
arcsimd_up 1
arcsimd_workers 4
arcsimd_busy_workers 3
arcsimd_jobs_running 9
arcsimd_queue_depth 7
arcsimd_queue_capacity 64
arcsimd_jobs_total{state="done"} 12
`
	cases := []struct {
		name    string
		text    string
		want    sched.Load
		wantErr bool
	}{
		{
			name: "full sample",
			text: full,
			want: sched.Load{Workers: 4, Busy: 3, Queue: 7, QueueCap: 64, Up: true},
		},
		{
			name: "busy falls back to jobs_running",
			text: "arcsimd_up 1\narcsimd_workers 2\narcsimd_jobs_running 1\narcsimd_queue_depth 0\n",
			want: sched.Load{Workers: 2, Busy: 1, Queue: 0, Up: true},
		},
		{
			name: "fallback yields to the dedicated gauge in either order",
			text: "arcsimd_up 0\narcsimd_busy_workers 2\narcsimd_jobs_running 5\narcsimd_workers 2\narcsimd_queue_depth 1\n",
			want: sched.Load{Workers: 2, Busy: 2, Queue: 1, Up: false},
		},
		{name: "empty body", text: "", wantErr: true},
		{name: "comments only", text: "# nothing here\n", wantErr: true},
		{
			name:    "missing queue_depth",
			text:    "arcsimd_up 1\narcsimd_workers 2\narcsimd_busy_workers 0\n",
			wantErr: true,
		},
		{
			name:    "unparseable value",
			text:    "arcsimd_up 1\narcsimd_workers banana\narcsimd_queue_depth 0\n",
			wantErr: true,
		},
		{
			name:    "zero workers is implausible",
			text:    "arcsimd_up 1\narcsimd_workers 0\narcsimd_queue_depth 0\n",
			wantErr: true,
		},
		{
			name:    "html error page",
			text:    "<html><body>502 Bad Gateway</body></html>",
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseLoad([]byte(tc.text))
			if tc.wantErr {
				if err == nil {
					t.Fatalf("ParseLoad = %+v, want error", got)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseLoad: %v", err)
			}
			if got != tc.want {
				t.Fatalf("ParseLoad = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// --- fleet harness ---------------------------------------------------

// fastClient keeps retry backoffs in the microsecond range.
func fastClient() client.Options {
	return client.Options{
		Retry:          client.Retry{Attempts: 3, Base: time.Millisecond, Max: 5 * time.Millisecond},
		RequestTimeout: 2 * time.Second,
	}
}

func syntheticResult(spec client.JobSpec) *sim.Result {
	return &sim.Result{
		Workload: spec.Workload,
		Protocol: spec.Protocol,
		Cores:    spec.Cores,
		Cycles:   uint64(1000 + len(spec.Workload)),
	}
}

func instantRun(ctx context.Context, spec server.JobSpec) (*sim.Result, error) {
	return syntheticResult(spec), nil
}

// newDaemon builds a real server.Server with the given worker count and
// run stub, optionally wrapping its handler (to garble /metrics).
func newDaemon(t *testing.T, workers int, run func(ctx context.Context, spec server.JobSpec) (*sim.Result, error), wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	srv := server.New(server.Config{Workers: workers, QueueDepth: 64})
	if run != nil {
		srv.SetRunJob(run)
	}
	srv.Start()
	h := http.Handler(srv.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Drain(ctx) //nolint:errcheck
	})
	return ts
}

func testOptions() Options {
	return Options{
		Client:        fastClient(),
		ProbeInterval: 5 * time.Millisecond,
		Sched: sched.Options{
			CooldownBase: 10 * time.Millisecond,
			CooldownMax:  50 * time.Millisecond,
			MaxAttempts:  4,
		},
	}
}

// runSweep pushes n jobs through the scheduler concurrently and returns
// results indexed by job. Completion is synchronized by the Run calls
// themselves — no sleeps.
// sweepSpec maps a job index onto a real catalog workload (the daemon
// validates specs at submit).
func sweepSpec(i int) client.JobSpec {
	wls := []string{"lu", "radix", "barnes", "water", "x264", "dedup", "ferret", "canneal"}
	// Power-of-two core counts: the arc protocol tiles its directory and
	// rejects counts that do not divide it.
	return client.JobSpec{Workload: wls[i%len(wls)], Protocol: "arc", Cores: 1 << (i % 3)}
}

func runSweep(t *testing.T, s *Scheduler, n int) ([]*sim.Result, []error) {
	t.Helper()
	results := make([]*sim.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := sweepSpec(i)
			cost := sched.EstimateCost(sched.CostInputs{Events: 1000 * (i + 1), Cores: spec.Cores})
			results[i], errs[i] = s.Run(context.Background(), spec, cost, 0)
		}(i)
	}
	wg.Wait()
	return results, errs
}

// --- integration: a real sweep over real daemons ---------------------

// TestFleetSweepCompletes: a heterogeneous sweep over two daemons with
// asymmetric worker counts completes exactly once per job with results
// identical to the stub's canonical output, and the scheduler reaches
// cost-model mode once probes land.
func TestFleetSweepCompletes(t *testing.T) {
	fast := newDaemon(t, 4, instantRun, nil)
	slow := newDaemon(t, 1, instantRun, nil)

	s := New([]string{fast.URL, slow.URL}, testOptions())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Stop()

	results, errs := runSweep(t, s, 12)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		want := syntheticResult(sweepSpec(i))
		got := results[i]
		if got == nil || got.Workload != want.Workload || got.Protocol != want.Protocol ||
			got.Cores != want.Cores || got.Cycles != want.Cycles {
			t.Fatalf("job %d result = %+v, want %+v", i, got, want)
		}
	}

	// With both daemons answering /metrics, probes must promote the
	// policy out of degraded mode (bounded poll: probe cadence is
	// milliseconds, and under the race detector a just-taken sample can
	// already be past the default StaleAfter at any single instant).
	deadline := time.Now().Add(5 * time.Second)
	for s.Mode() != sched.ModeCostModel {
		if time.Now().After(deadline) {
			t.Fatalf("Mode = %v after successful probes, want ModeCostModel", s.Mode())
		}
		yield()
	}
	snap := s.Snapshot()
	if snap.Pending != 0 {
		t.Fatalf("Snapshot.Pending = %d after sweep, want 0", snap.Pending)
	}
	for _, e := range snap.Endpoints {
		if e.Queued+e.Running+e.Stealing != 0 {
			t.Fatalf("endpoint %s still has work after sweep: %+v", e.Name, e)
		}
	}
}

// --- fault injection: the load probe must degrade, not wedge ---------

// garbleMetrics serves garbage from /metrics and proxies everything
// else to the real daemon.
func garbleMetrics(body string) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/metrics" {
				fmt.Fprint(w, body)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

// TestGarbledMetricsDegradesToRoundRobin: daemons whose /metrics serve
// unparseable or partial text keep the scheduler in round-robin mode,
// and the sweep still completes — a broken probe must never wedge
// dispatch.
func TestGarbledMetricsDegradesToRoundRobin(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"unparseable", "<html>oops</html>"},
		{"partial", "arcsimd_up 1\narcsimd_workers 2\n"}, // no queue_depth
		{"empty", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := newDaemon(t, 2, instantRun, garbleMetrics(tc.body))
			b := newDaemon(t, 2, instantRun, garbleMetrics(tc.body))

			s := New([]string{a.URL, b.URL}, testOptions())
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			s.Start(ctx)
			defer s.Stop()

			results, errs := runSweep(t, s, 8)
			for i, err := range errs {
				if err != nil {
					t.Fatalf("job %d: %v", i, err)
				}
				if results[i] == nil {
					t.Fatalf("job %d: nil result", i)
				}
			}
			if got := s.Mode(); got != sched.ModeRoundRobin {
				t.Fatalf("Mode = %v with garbled /metrics, want ModeRoundRobin", got)
			}
		})
	}
}

// TestStaleProbesDegrade: one daemon's /metrics goes dark after the
// first scrape; once its sample ages past StaleAfter the scheduler
// drops to round-robin rather than planning on fiction, and jobs still
// complete on both endpoints.
func TestStaleProbesDegrade(t *testing.T) {
	var stale sync.Once
	var dark bool
	var mu sync.Mutex
	wrap := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/metrics" {
				mu.Lock()
				d := dark
				stale.Do(func() { dark = true }) // first scrape succeeds, rest hang up
				mu.Unlock()
				if d {
					w.WriteHeader(http.StatusServiceUnavailable)
					return
				}
			}
			next.ServeHTTP(w, r)
		})
	}
	a := newDaemon(t, 2, instantRun, wrap)
	b := newDaemon(t, 2, instantRun, nil)

	opts := testOptions()
	opts.Sched.StaleAfter = 15 * time.Millisecond
	s := New([]string{a.URL, b.URL}, opts)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Stop()

	// Wait (bounded) for the stale sample to demote the mode; the tick
	// loop re-evaluates every ProbeInterval.
	deadline := time.Now().Add(5 * time.Second)
	for s.Mode() != sched.ModeRoundRobin {
		if time.Now().After(deadline) {
			t.Fatalf("Mode = %v, never degraded to round-robin on stale probe", s.Mode())
		}
		yield()
	}

	if _, err := s.Run(context.Background(), client.JobSpec{Workload: "swaptions", Protocol: "arc", Cores: 1}, 10, 0); err != nil {
		t.Fatalf("Run in degraded mode: %v", err)
	}
}

// TestAllEndpointsDownFailsFast: with every endpoint refusing
// connections, Run returns ErrNoEndpoints instead of blocking — the
// caller's cue to fall back to local execution.
func TestAllEndpointsDownFailsFast(t *testing.T) {
	dead1 := httptest.NewServer(http.NotFoundHandler())
	dead2 := httptest.NewServer(http.NotFoundHandler())
	dead1.Close()
	dead2.Close()

	opts := testOptions()
	opts.Sched.CooldownBase = 100 * time.Millisecond // keep them benched for the whole test
	s := New([]string{dead1.URL, dead2.URL}, opts)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Stop()

	runCtx, runCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer runCancel()
	_, err := s.Run(runCtx, client.JobSpec{Workload: "doomed", Protocol: "arc", Cores: 1}, 10, 0)
	if !errors.Is(err, ErrNoEndpoints) {
		t.Fatalf("Run with all endpoints down = %v, want ErrNoEndpoints", err)
	}
}

// TestOperatorCancelIsFinal: an operator cancel (no recognized requeue
// reason) surfaces as ErrJobCanceled and is not resurrected.
func TestOperatorCancelIsFinal(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	started := make(chan string, 1)
	srv := server.New(server.Config{Workers: 1, QueueDepth: 8})
	srv.SetRunJob(func(ctx context.Context, spec server.JobSpec) (*sim.Result, error) {
		once.Do(func() { started <- spec.Workload })
		select {
		case <-release:
			return syntheticResult(spec), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		close(release)
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Drain(ctx) //nolint:errcheck
	})

	s := New([]string{ts.URL}, testOptions())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Stop()

	errCh := make(chan error, 1)
	go func() {
		_, err := s.Run(context.Background(), client.JobSpec{Workload: "raytrace", Protocol: "arc", Cores: 1}, 10, 0)
		errCh <- err
	}()
	<-started // the stub is live: the job exists and is running

	// Operator cancel via the raw API (no ?reason): final, not failover.
	c := client.New(ts.URL, fastClient())
	var canceled bool
	deadline := time.Now().Add(5 * time.Second)
	for !canceled && time.Now().Before(deadline) {
		// The remote id is daemon-assigned; find it through the snapshot
		// of running jobs on the daemon side by just canceling everything.
		if err := cancelAllJobs(c); err == nil {
			canceled = true
		}
	}
	if !canceled {
		t.Fatal("could not deliver operator cancel")
	}

	select {
	case err := <-errCh:
		if !errors.Is(err, ErrJobCanceled) {
			t.Fatalf("Run after operator cancel = %v, want ErrJobCanceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after operator cancel")
	}
}

// cancelAllJobs cancels every job listed by the daemon.
func cancelAllJobs(c *client.Client) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	views, err := c.List(ctx)
	if err != nil {
		return err
	}
	any := false
	for _, v := range views {
		if v.State == server.StateRunning || v.State == server.StateQueued {
			if err := c.Cancel(ctx, v.ID); err == nil {
				any = true
			}
		}
	}
	if !any {
		return errors.New("no cancelable jobs yet")
	}
	return nil
}

// TestFleetFailover: a daemon that dies mid-sweep loses its jobs to the
// survivor; every job still completes exactly once across the fleet
// with the canonical result.
func TestFleetFailover(t *testing.T) {
	var mu sync.Mutex
	completed := map[client.JobSpec]int{}
	counted := func(run func(context.Context, server.JobSpec) (*sim.Result, error)) func(context.Context, server.JobSpec) (*sim.Result, error) {
		return func(ctx context.Context, spec server.JobSpec) (*sim.Result, error) {
			res, err := run(ctx, spec)
			if err == nil {
				// Keyed as sweepSpec builds it: the daemon fills in
				// scale and seed defaults before the stub sees the spec.
				mu.Lock()
				completed[client.JobSpec{Workload: spec.Workload, Protocol: spec.Protocol, Cores: spec.Cores}]++
				mu.Unlock()
			}
			return res, err
		}
	}

	var down atomic.Bool
	var killOnce sync.Once
	kill := make(chan struct{})
	release := make(chan struct{})
	flakySrv := server.New(server.Config{Workers: 2, QueueDepth: 64})
	flakySrv.SetRunJob(counted(func(ctx context.Context, spec server.JobSpec) (*sim.Result, error) {
		// The first job this daemon runs triggers its death; the job
		// itself parks until test cleanup (a crashed daemon never
		// reports back).
		killOnce.Do(func() { close(kill) })
		select {
		case <-release:
			return syntheticResult(spec), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}))
	flakySrv.Start()
	// The crash is modeled at the HTTP layer: once down, every request —
	// including SSE reconnects — is refused, exactly like a dead daemon
	// behind a connection-refusing kernel. (Closing the listener instead
	// would let an unluckily-timed SSE reconnect slip in and stream
	// forever against the parked stub.)
	handler := flakySrv.Handler()
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "daemon crashed", http.StatusServiceUnavailable)
			return
		}
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		close(release)
		flaky.Close()
		dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer dcancel()
		flakySrv.Drain(dctx) //nolint:errcheck
	})

	healthy := newDaemon(t, 2, counted(instantRun), nil)

	opts := testOptions()
	opts.Logf = t.Logf
	s := New([]string{flaky.URL, healthy.URL}, opts)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Stop()

	go func() {
		<-kill
		down.Store(true)
		flaky.CloseClientConnections()
	}()

	const n = 8
	results, errs := runSweep(t, s, n)
	mu.Lock()
	defer mu.Unlock()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d after failover: %v", i, err)
		}
		spec := sweepSpec(i)
		if results[i] == nil || results[i].Cycles != syntheticResult(spec).Cycles {
			t.Fatalf("job %d: result %+v", i, results[i])
		}
		if got := completed[spec]; got != 1 {
			t.Errorf("spec %+v completed %d times across the fleet, want exactly 1", spec, got)
		}
	}
	if len(completed) != n {
		t.Errorf("%d distinct specs completed, want %d", len(completed), n)
	}
}

// --- the failure taxonomy, outcome by outcome ------------------------

// tally counts what a taxonomy fleet did: simulations run by real
// daemons, submits accepted by scripted ones, and results a scripted
// daemon served for a job other than the one submitted.
type tally struct {
	runs, submits, foreignFetches atomic.Int64
}

// scriptedDaemon accepts every submit under a sequential id and answers
// the job's event stream with the terminal view final returns for it.
// Its result endpoint serves the view's spec and counts a foreign fetch
// when that is not the spec the caller submitted.
func scriptedDaemon(t *testing.T, n *tally, final func(seq int64, spec client.JobSpec) client.JobView) string {
	var mu sync.Mutex
	submitted := map[string]client.JobSpec{}
	views := map[string]client.JobView{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			var spec client.JobSpec
			json.NewDecoder(r.Body).Decode(&spec) //nolint:errcheck
			seq := n.submits.Add(1)
			view := final(seq, spec)
			view.ID = fmt.Sprintf("j%06d", seq)
			mu.Lock()
			submitted[view.ID], views[view.ID] = spec, view
			mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(client.JobView{ID: view.ID, Spec: spec, State: server.StateQueued}) //nolint:errcheck
			return
		}
		id, tail, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/")
		mu.Lock()
		view, ok := views[id]
		foreign := view.Spec != submitted[id]
		mu.Unlock()
		switch {
		case !ok:
			http.NotFound(w, r)
		case tail == "events":
			data, _ := json.Marshal(view)
			w.Header().Set("Content-Type", "text/event-stream")
			fmt.Fprintf(w, "id: 0\nevent: done\ndata: %s\n\n", data)
		case tail == "result":
			if foreign {
				n.foreignFetches.Add(1)
			}
			json.NewEncoder(w).Encode(syntheticResult(view.Spec)) //nolint:errcheck
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// canceledBy scripts a daemon that cancels every job with reason.
func canceledBy(reason string) func(int64, client.JobSpec) client.JobView {
	return func(_ int64, spec client.JobSpec) client.JobView {
		return client.JobView{Spec: spec, State: server.StateCanceled, Error: reason}
	}
}

// TestFailureTaxonomy pins what each way a remote run can end costs: a
// deterministic failure is final and benches no one; an id that comes
// back naming another job is resubmitted without fetching the foreign
// result; a drain fails the job over and benches the drainer; a
// preempt cancel requeues it elsewhere; and a job whose every endpoint
// faults ends in ErrNoEndpoints, the caller's cue to run it locally.
// (All endpoints down, operator cancels and daemon death have their own
// tests above.)
func TestFailureTaxonomy(t *testing.T) {
	mine := client.JobSpec{Workload: "lu", Protocol: "arc", Cores: 2}
	foreign := client.JobSpec{Workload: "radix", Protocol: "ce", Cores: 8}
	simulating := func(t *testing.T, n *tally, err error) string {
		return newDaemon(t, 2, func(ctx context.Context, spec server.JobSpec) (*sim.Result, error) {
			n.runs.Add(1)
			if err != nil {
				return nil, err
			}
			return syntheticResult(spec), nil
		}, nil).URL
	}
	jobFailed := func(err error) bool {
		var jf *JobFailedError
		return errors.As(err, &jf)
	}
	noEndpoints := func(err error) bool { return errors.Is(err, ErrNoEndpoints) }

	cases := []struct {
		name string
		// fleet builds the endpoints in round-robin order: the job's
		// first attempt lands on the first one.
		fleet func(t *testing.T, n *tally) []string
		// wantErr classifies the expected error; nil expects success.
		wantErr           func(error) bool
		wantRuns, wantSub int64
		wantHealthy       []bool
	}{
		{
			name: "deterministic failure is final",
			fleet: func(t *testing.T, n *tally) []string {
				bad := errors.New("deadlock detected")
				return []string{simulating(t, n, bad), simulating(t, n, bad)}
			},
			wantErr:     jobFailed,
			wantRuns:    1,
			wantHealthy: []bool{true, true},
		},
		{
			name: "foreign job behind a reused id is resubmitted",
			fleet: func(t *testing.T, n *tally) []string {
				return []string{scriptedDaemon(t, n, func(seq int64, spec client.JobSpec) client.JobView {
					if seq == 1 {
						spec = foreign
					}
					return client.JobView{Spec: spec, State: server.StateDone}
				})}
			},
			wantSub:     2,
			wantHealthy: []bool{true},
		},
		{
			name: "drain cancel fails over and benches the drainer",
			fleet: func(t *testing.T, n *tally) []string {
				return []string{scriptedDaemon(t, n, canceledBy(server.CancelReasonDrain)), simulating(t, n, nil)}
			},
			wantRuns:    1,
			wantSub:     1,
			wantHealthy: []bool{false, true},
		},
		{
			name: "preempt cancel requeues elsewhere",
			fleet: func(t *testing.T, n *tally) []string {
				return []string{scriptedDaemon(t, n, canceledBy(server.CancelReasonPreempt)), simulating(t, n, nil)}
			},
			wantRuns:    1,
			wantSub:     1,
			wantHealthy: []bool{true, true},
		},
		{
			name: "exhausted fault budget falls back",
			fleet: func(t *testing.T, n *tally) []string {
				return []string{
					scriptedDaemon(t, n, canceledBy(server.CancelReasonDrain)),
					scriptedDaemon(t, n, canceledBy(server.CancelReasonDrain)),
				}
			},
			wantErr:     noEndpoints,
			wantSub:     2,
			wantHealthy: []bool{false, false},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var n tally
			opts := testOptions()
			// Benches outlast the test, so health is read deterministically;
			// two attempts let one job try both endpoints and no more.
			opts.Sched.CooldownBase, opts.Sched.CooldownMax = time.Minute, time.Minute
			opts.Sched.MaxAttempts = 2
			s := New(tc.fleet(t, &n), opts)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			s.Start(ctx)
			defer s.Stop()

			runCtx, runCancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer runCancel()
			res, err := s.Run(runCtx, mine, 10, 0)
			switch {
			case tc.wantErr == nil && err != nil:
				t.Fatalf("Run: %v", err)
			case tc.wantErr == nil && (res == nil || res.Workload != mine.Workload || res.Cores != mine.Cores):
				t.Fatalf("Run returned %+v, want the result for %+v", res, mine)
			case tc.wantErr != nil && !tc.wantErr(err):
				t.Fatalf("Run error = %v, of the wrong kind", err)
			}
			if got := n.runs.Load(); got != tc.wantRuns {
				t.Errorf("simulations run = %d, want %d", got, tc.wantRuns)
			}
			if got := n.submits.Load(); got != tc.wantSub {
				t.Errorf("scripted submits = %d, want %d", got, tc.wantSub)
			}
			if got := n.foreignFetches.Load(); got != 0 {
				t.Errorf("fetched %d foreign results", got)
			}
			for i, e := range s.Snapshot().Endpoints {
				if e.Healthy != tc.wantHealthy[i] {
					t.Errorf("endpoint %d healthy = %v, want %v", i, e.Healthy, tc.wantHealthy[i])
				}
			}
		})
	}
}

// TestPeerHoldsSkipsBenchedEndpoints: pricing a run must not wait on a
// benched daemon. One endpoint fails its submit (and is benched) and
// hangs every store HEAD; PeerHolds asks only the healthy one.
func TestPeerHoldsSkipsBenchedEndpoints(t *testing.T) {
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			http.Error(w, "submit refused", http.StatusInternalServerError)
		case http.MethodHead:
			select {
			case <-release:
			case <-r.Context().Done():
			}
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(func() {
		close(release)
		hung.Close()
	})
	healthy := newDaemon(t, 2, instantRun, nil)

	opts := testOptions()
	opts.Sched.CooldownBase, opts.Sched.CooldownMax = time.Minute, time.Minute
	s := New([]string{hung.URL, healthy.URL}, opts)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	defer s.Stop()

	// The run's first attempt lands on the hung endpoint, faults, and
	// fails over.
	if _, err := s.Run(context.Background(), client.JobSpec{Workload: "lu", Protocol: "arc", Cores: 1}, 10, 0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Snapshot().Endpoints[0].Healthy {
		t.Fatal("hung endpoint not benched after its submit failed")
	}
	start := time.Now()
	if s.PeerHolds(context.Background(), "v2/0.25/1/lu/arc/1") {
		t.Fatal("PeerHolds = true for a key no store holds")
	}
	if took := time.Since(start); took > 200*time.Millisecond {
		t.Fatalf("PeerHolds took %v: it waited on the benched endpoint", took)
	}
}

// yield briefly parks the polling goroutine between Mode checks (this
// is wall-clock integration territory; the zero-sleep determinism
// mandate lives in simtest, not here).
func yield() { time.Sleep(100 * time.Microsecond) }
