package client_test

// These tests hold a pool of client endpoints to the contract its
// callers build on: a daemon that dies costs no result and runs no spec
// twice, a dead fleet answers ErrNoEndpoints at once (cmd/experiments
// runs the job locally on that error), and an operator's cancel is
// final. The pool is fleet.Scheduler, the one dispatcher over several
// daemons, run in its round-robin policy so the first job lands on the
// first endpoint, and with a minute-long cooldown so an endpoint the
// pool benches stays benched while the test looks. The package is
// external because fleet imports client.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arcsim/internal/client"
	"arcsim/internal/sched"
	"arcsim/internal/sched/fleet"
	"arcsim/internal/server"
	"arcsim/internal/sim"
)

type runFunc = func(ctx context.Context, spec client.JobSpec) (*sim.Result, error)

// poolClient keeps retry backoffs in the microsecond range.
func poolClient() client.Options {
	return client.Options{
		Retry:          client.Retry{Attempts: 4, Base: time.Millisecond, Max: 5 * time.Millisecond},
		RequestTimeout: 2 * time.Second,
	}
}

// poolResult is the deterministic payload every fake daemon serves, so
// results from different daemons compare equal.
func poolResult(spec client.JobSpec) *sim.Result {
	return &sim.Result{
		Workload: spec.Workload,
		Protocol: spec.Protocol,
		Cores:    spec.Cores,
		Cycles:   uint64(1000 + len(spec.Workload)),
	}
}

// poolDaemon serves a real server.Server whose jobs run the stub and
// returns a kill switch. Killing models a crashed machine: open
// connections are cut and every later request is refused, SSE
// reconnects included, so a follower can never slip back onto the
// stub.
func poolDaemon(t *testing.T, run runFunc) (url string, kill func()) {
	t.Helper()
	srv := server.New(server.Config{Workers: 2, QueueDepth: 16})
	srv.SetRunJob(run)
	srv.Start()
	var down atomic.Bool
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "daemon crashed", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Drain(ctx) //nolint:errcheck
	})
	return ts.URL, func() {
		down.Store(true)
		ts.CloseClientConnections()
		ts.Close()
	}
}

// newPool starts a scheduler over the endpoints and stops it before the
// daemons shut down.
func newPool(t *testing.T, endpoints ...string) *fleet.Scheduler {
	t.Helper()
	p := fleet.New(endpoints, fleet.Options{
		Client:        poolClient(),
		ProbeInterval: 10 * time.Millisecond,
		Sched: sched.Options{
			CooldownBase:    time.Minute,
			CooldownMax:     time.Minute,
			ForceRoundRobin: true,
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	p.Start(ctx)
	t.Cleanup(func() {
		cancel()
		p.Stop()
	})
	return p
}

// healthy counts the endpoints the pool would dispatch to now.
func healthy(p *fleet.Scheduler) int {
	n := 0
	for _, e := range p.Snapshot().Endpoints {
		if e.Healthy {
			n++
		}
	}
	return n
}

// TestPoolFailsOverWhenEndpointDies: two daemons; the one holding the
// in-flight job dies mid-run. The pool must bench it, resubmit on the
// survivor, and return the result — the caller never sees the death.
func TestPoolFailsOverWhenEndpointDies(t *testing.T) {
	stuck := make(chan struct{})
	defer close(stuck)
	running := make(chan struct{}, 1)
	// Daemon 1 wedges every job until the test ends (a machine about
	// to die); daemon 2 is healthy.
	dying, kill := poolDaemon(t, func(ctx context.Context, spec client.JobSpec) (*sim.Result, error) {
		select {
		case running <- struct{}{}:
		default:
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-stuck:
			return nil, errors.New("daemon died")
		}
	})
	var served atomic.Int64
	survivor, _ := poolDaemon(t, func(ctx context.Context, spec client.JobSpec) (*sim.Result, error) {
		served.Add(1)
		return poolResult(spec), nil
	})
	p := newPool(t, dying, survivor)

	// Kill daemon 1 once the run is live on it.
	go func() {
		<-running
		kill()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	res, err := p.Run(ctx, client.JobSpec{Workload: "lu", Protocol: "arc", Cores: 2}, 1, 0)
	if err != nil {
		t.Fatalf("pool run across endpoint death: %v", err)
	}
	if res.Workload != "lu" || res.Cycles == 0 {
		t.Fatalf("bad result: %+v", res)
	}
	if served.Load() != 1 {
		t.Fatalf("survivor executed %d times, want 1", served.Load())
	}
	if n := healthy(p); n != 1 {
		t.Fatalf("healthy endpoints = %d, want 1 (the dead one benched)", n)
	}
	// Subsequent runs route straight to the survivor.
	if _, err := p.Run(ctx, client.JobSpec{Workload: "radix", Protocol: "arc", Cores: 2}, 1, 0); err != nil {
		t.Fatalf("post-failover run: %v", err)
	}
	if served.Load() != 2 {
		t.Fatalf("survivor executed %d times after the second run, want 2", served.Load())
	}
}

// TestPoolExactlyOnceAcrossKill drives a sweep of distinct specs
// through a two-daemon pool, killing one daemon partway. Every spec
// must complete with a result, and no spec may complete its simulation
// more than once across the fleet.
func TestPoolExactlyOnceAcrossKill(t *testing.T) {
	var mu sync.Mutex
	completed := map[string]int{}
	counted := func(ctx context.Context, spec client.JobSpec) (*sim.Result, error) {
		mu.Lock()
		completed[spec.Workload]++
		mu.Unlock()
		return poolResult(spec), nil
	}
	ep1, kill1 := poolDaemon(t, counted)
	ep2, _ := poolDaemon(t, counted)
	p := newPool(t, ep1, ep2)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	specs := []string{"lu", "radix", "barnes", "water", "x264", "dedup"}
	results := map[string]*sim.Result{}
	for i, wl := range specs {
		if i == len(specs)/2 {
			kill1() // one daemon dies mid-sweep
		}
		res, err := p.Run(ctx, client.JobSpec{Workload: wl, Protocol: "arc", Cores: 2}, 1, 0)
		if err != nil {
			t.Fatalf("spec %s: %v", wl, err)
		}
		results[wl] = res
	}
	mu.Lock()
	defer mu.Unlock()
	for _, wl := range specs {
		if completed[wl] != 1 {
			t.Errorf("spec %s completed %d times across the fleet, want exactly 1", wl, completed[wl])
		}
		if results[wl].Cycles != poolResult(client.JobSpec{Workload: wl}).Cycles {
			t.Errorf("spec %s: wrong result %+v", wl, results[wl])
		}
	}
	if n := healthy(p); n != 1 {
		t.Errorf("healthy endpoints = %d, want 1 (the killed daemon benched)", n)
	}
}

// TestPoolAllDownReturnsErrNoEndpoints: with every endpoint dead the
// pool reports ErrNoEndpoints promptly — the signal cmd/experiments
// maps to bench.ErrRemoteUnavailable to run locally.
func TestPoolAllDownReturnsErrNoEndpoints(t *testing.T) {
	dead1 := httptest.NewServer(http.NotFoundHandler())
	dead2 := httptest.NewServer(http.NotFoundHandler())
	dead1.Close()
	dead2.Close()
	p := newPool(t, dead1.URL, dead2.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	_, err := p.Run(ctx, client.JobSpec{Workload: "lu", Protocol: "arc", Cores: 2}, 1, 0)
	if !errors.Is(err, fleet.ErrNoEndpoints) {
		t.Fatalf("err = %v, want ErrNoEndpoints", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("all-down detection took %v", elapsed)
	}
	// Once benched, the next run short-circuits without dialing.
	if _, err := p.Run(ctx, client.JobSpec{Workload: "radix"}, 1, 0); !errors.Is(err, fleet.ErrNoEndpoints) {
		t.Fatalf("benched pool err = %v, want ErrNoEndpoints", err)
	}
	if n := healthy(p); n != 0 {
		t.Fatalf("healthy = %d, want 0", n)
	}
}

// TestPoolOperatorCancelDoesNotFailOver: `arcsimctl cancel` of a
// pool-run job must surface as ErrJobCanceled — not bench the healthy
// daemon that honored the cancel, and not resurrect the job elsewhere.
func TestPoolOperatorCancelDoesNotFailOver(t *testing.T) {
	var runs1, runs2 atomic.Int64
	running := make(chan struct{}, 4)
	block := func(runs *atomic.Int64) runFunc {
		return func(ctx context.Context, spec client.JobSpec) (*sim.Result, error) {
			runs.Add(1)
			running <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		}
	}
	ep1, _ := poolDaemon(t, block(&runs1))
	ep2, _ := poolDaemon(t, block(&runs2))
	p := newPool(t, ep1, ep2)

	errCh := make(chan error, 1)
	go func() {
		_, err := p.Run(context.Background(), client.JobSpec{Workload: "lu", Protocol: "arc", Cores: 2}, 1, 0)
		errCh <- err
	}()
	<-running // the job is mid-run on one of the daemons
	canceled := false
	for _, base := range []string{ep1, ep2} {
		c := client.New(base, poolClient())
		jobs, err := c.List(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			if j.State == server.StateRunning {
				if err := c.Cancel(context.Background(), j.ID); err != nil {
					t.Fatal(err)
				}
				canceled = true
			}
		}
	}
	if !canceled {
		t.Fatal("no running job found to cancel")
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, fleet.ErrJobCanceled) {
			t.Fatalf("err = %v, want ErrJobCanceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pool never returned after the cancel")
	}
	if total := runs1.Load() + runs2.Load(); total != 1 {
		t.Fatalf("canceled job started %d times, want 1 (no resurrection)", total)
	}
	if n := healthy(p); n != 2 {
		t.Fatalf("healthy = %d, want 2 (cancel must not bench a healthy daemon)", n)
	}
}
