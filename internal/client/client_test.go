package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arcsim/internal/server"
	"arcsim/internal/sim"
	"arcsim/internal/store"
)

// fastRetry keeps test backoffs in the microsecond range.
func fastRetry() Options {
	return Options{
		Retry:          Retry{Attempts: 4, Base: time.Millisecond, Max: 5 * time.Millisecond},
		RequestTimeout: 2 * time.Second,
	}
}

// newDaemon builds a real server.Server whose runJob is the given stub,
// wrapped in an httptest server. The cleanup unblocks the stub via ctx
// before draining so tests never deadlock.
func newDaemon(t *testing.T, run func(ctx context.Context, spec JobSpec) (*sim.Result, error)) (*server.Server, *httptest.Server) {
	t.Helper()
	srv := server.New(server.Config{Workers: 2, QueueDepth: 16})
	if run != nil {
		srv.SetRunJob(run)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Drain(ctx) //nolint:errcheck
	})
	return srv, ts
}

// syntheticResult is the deterministic payload both fake daemons serve,
// so cross-daemon results are comparable byte for byte.
func syntheticResult(spec JobSpec) *sim.Result {
	return &sim.Result{
		Workload: spec.Workload,
		Protocol: spec.Protocol,
		Cores:    spec.Cores,
		Cycles:   uint64(1000 + len(spec.Workload)),
	}
}

func instantRun(ctx context.Context, spec JobSpec) (*sim.Result, error) {
	return syntheticResult(spec), nil
}

// TestRetriesTransientFailures: an endpoint that throws 500s and cut
// connections before recovering still serves the call, within the retry
// budget, without the caller seeing the turbulence.
func TestRetriesTransientFailures(t *testing.T) {
	_, ts := newDaemon(t, instantRun)
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			http.Error(w, "transient", http.StatusInternalServerError)
		case 2:
			// Tear the connection mid-response: the client sees a
			// transport error, not an HTTP status.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("no hijacker")
				return
			}
			conn, _, _ := hj.Hijack()
			conn.Close()
		default:
			proxyTo(ts.URL, w, r)
		}
	}))
	defer flaky.Close()

	c := New(flaky.URL, fastRetry())
	view, err := c.Submit(context.Background(), JobSpec{Workload: "lu", Protocol: "arc", Cores: 2})
	if err != nil {
		t.Fatalf("submit through flaky endpoint: %v", err)
	}
	if view.ID == "" {
		t.Fatal("no job id")
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("flaky endpoint saw %d calls, want 3 (500, reset, success)", n)
	}
}

// TestClientErrorsDoNotRetry: 4xx responses surface immediately.
func TestClientErrorsDoNotRetry(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"unknown workload"}`, http.StatusBadRequest)
	}))
	defer ts.Close()
	c := New(ts.URL, fastRetry())
	_, err := c.Submit(context.Background(), JobSpec{Workload: "nope"})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400 APIError", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("400 retried: %d calls", calls.Load())
	}
}

// proxyTo forwards one request to the real daemon (a hand-rolled
// single-request proxy keeps the failure scripting explicit).
func proxyTo(base string, w http.ResponseWriter, r *http.Request) {
	req, err := http.NewRequest(r.Method, base+r.URL.Path, r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	buf := make([]byte, 512)
	fl, _ := w.(http.Flusher)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			w.Write(buf[:n]) //nolint:errcheck
			if fl != nil {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// TestPerAttemptTimeoutRetries: http.Client's per-request Timeout
// surfaces as context.DeadlineExceeded, the same error a canceled
// caller produces; it must still be treated as a transient transport
// failure and retried while the caller's own context is live — one
// hung exchange is exactly what RequestTimeout exists to bound.
func TestPerAttemptTimeoutRetries(t *testing.T) {
	_, ts := newDaemon(t, instantRun)
	var calls atomic.Int64
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(400 * time.Millisecond) // beyond RequestTimeout
			return
		}
		proxyTo(ts.URL, w, r)
	}))
	defer hung.Close()
	opts := fastRetry()
	opts.RequestTimeout = 50 * time.Millisecond
	c := New(hung.URL, opts)
	view, err := c.Submit(context.Background(), JobSpec{Workload: "lu", Protocol: "arc", Cores: 2})
	if err != nil {
		t.Fatalf("hung first exchange failed the call instead of retrying: %v", err)
	}
	if view.ID == "" {
		t.Fatal("no job id")
	}
	if calls.Load() != 2 {
		t.Fatalf("endpoint saw %d calls, want 2 (timeout, success)", calls.Load())
	}
}

// TestCallerCancelDoesNotRetry: when the caller's own context ends the
// attempt, retrying is wrong — nobody is waiting for the answer.
func TestCallerCancelDoesNotRetry(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		cancel()
		// Stall long enough that the client's error is the cancellation,
		// not this response. Bounded: with the request body unread the
		// server never cancels r.Context() on client disconnect, so
		// waiting for it would deadlock the deferred ts.Close().
		select {
		case <-r.Context().Done():
		case <-time.After(2 * time.Second):
		}
	}))
	defer ts.Close()
	c := New(ts.URL, fastRetry())
	if _, err := c.Submit(ctx, JobSpec{Workload: "lu"}); err == nil {
		t.Fatal("submit succeeded after caller cancel")
	}
	if calls.Load() != 1 {
		t.Fatalf("canceled call retried: %d attempts", calls.Load())
	}
}

// TestFollowResumesAcrossDrop kills the SSE connection after the first
// event; the client must reconnect with Last-Event-ID and deliver every
// event exactly once, in order, through to done.
func TestFollowResumesAcrossDrop(t *testing.T) {
	release := make(chan struct{})
	var releaseOnce sync.Once
	_, ts := newDaemon(t, func(ctx context.Context, spec JobSpec) (*sim.Result, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return syntheticResult(spec), nil
		}
	})

	var streamCalls atomic.Int64
	var resumeHeader atomic.Value // Last-Event-ID of the reconnect
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/events") {
			proxyTo(ts.URL, w, r)
			return
		}
		switch streamCalls.Add(1) {
		case 1:
			// Deliver exactly one event, then tear the connection.
			w.Header().Set("Content-Type", "text/event-stream")
			fmt.Fprint(w, "id: 0\nevent: state\ndata: {\"state\":\"queued\"}\n\n")
			w.(http.Flusher).Flush()
			conn, _, _ := w.(http.Hijacker).Hijack()
			conn.Close()
		default:
			resumeHeader.Store(r.Header.Get("Last-Event-ID"))
			releaseOnce.Do(func() { close(release) })
			proxyTo(ts.URL, w, r)
		}
	}))
	defer front.Close()

	c := New(front.URL, fastRetry())
	view, err := c.Submit(context.Background(), JobSpec{Workload: "lu", Protocol: "arc", Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	var events []string
	final, err := c.Follow(context.Background(), view.ID, func(name, data string) {
		events = append(events, name)
	})
	if err != nil {
		t.Fatalf("follow across drop: %v", err)
	}
	if final.State != server.StateDone {
		t.Fatalf("final state %q", final.State)
	}
	if got := fmt.Sprint(events); got != fmt.Sprint([]string{"state", "state", "state", "done"}) {
		t.Fatalf("events %v: dropped or duplicated across the reconnect", events)
	}
	if h, _ := resumeHeader.Load().(string); h != "0" {
		t.Fatalf("reconnect sent Last-Event-ID %q, want \"0\"", h)
	}
	if streamCalls.Load() != 2 {
		t.Fatalf("stream opened %d times, want 2", streamCalls.Load())
	}
}

// TestFollowJobLostAfterRestart: the SSE connection drops and the
// reconnect lands on a "restarted" daemon with an empty job table; the
// client must report ErrJobLost (its cue to resubmit the spec) rather
// than hanging or mislabeling the 404.
func TestFollowJobLostAfterRestart(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, ts1 := newDaemon(t, func(ctx context.Context, spec JobSpec) (*sim.Result, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return syntheticResult(spec), nil
		}
	})
	restarted := server.New(server.Config{Workers: 1, QueueDepth: 4}) // fresh job table

	var streamCalls atomic.Int64
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/events") {
			proxyTo(ts1.URL, w, r)
			return
		}
		if streamCalls.Add(1) == 1 {
			// One event, then the daemon "dies" mid-stream.
			w.Header().Set("Content-Type", "text/event-stream")
			fmt.Fprint(w, "id: 0\nevent: state\ndata: {\"state\":\"queued\"}\n\n")
			w.(http.Flusher).Flush()
			conn, _, _ := w.(http.Hijacker).Hijack()
			conn.Close()
			return
		}
		restarted.Handler().ServeHTTP(w, r) // reconnect finds no such job
	}))
	defer front.Close()

	c := New(front.URL, fastRetry())
	view, err := c.Submit(context.Background(), JobSpec{Workload: "lu", Protocol: "arc", Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = c.Follow(ctx, view.ID, nil)
	if !errors.Is(err, ErrJobLost) {
		t.Fatalf("err = %v, want ErrJobLost", err)
	}
}

// TestBatchThroughClient exercises the typed batch API end to end.
func TestBatchThroughClient(t *testing.T) {
	_, ts := newDaemon(t, instantRun)
	c := New(ts.URL, fastRetry())
	items, err := c.SubmitBatch(context.Background(), []JobSpec{
		{Workload: "barnes", Protocol: "arc", Cores: 2},
		{Workload: "definitely-not-a-workload"},
		{Workload: "lu", Protocol: "ce", Cores: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("items: %+v", items)
	}
	if items[0].Job == nil || items[2].Job == nil {
		t.Fatalf("valid entries rejected: %+v", items)
	}
	if items[1].Job != nil || items[1].Status != http.StatusBadRequest {
		t.Fatalf("invalid entry accepted: %+v", items[1])
	}
	// The accepted jobs run to completion and serve results.
	for _, it := range []BatchItem{items[0], items[2]} {
		final, err := c.Follow(context.Background(), it.Job.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != server.StateDone {
			t.Fatalf("batch job ended %s", final.State)
		}
		if _, err := c.Result(context.Background(), final.ID); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCancelReasonRoundTrip drives Client.CancelReason against a real
// daemon and reads the preempt cause back from the final view.
func TestCancelReasonRoundTrip(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, ts := newDaemon(t, func(ctx context.Context, spec JobSpec) (*sim.Result, error) {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: %v", sim.ErrCanceled, context.Cause(ctx))
		case <-release:
			return syntheticResult(spec), nil
		}
	})
	c := New(ts.URL, fastRetry())
	view, err := c.Submit(context.Background(), JobSpec{Workload: "lu", Protocol: "arc", Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CancelReason(context.Background(), view.ID, "preempt"); err != nil {
		t.Fatal(err)
	}
	final, err := c.Follow(context.Background(), view.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.StateCanceled || final.Error != server.CancelReasonPreempt {
		t.Fatalf("final = %s/%q, want canceled/%q", final.State, final.Error, server.CancelReasonPreempt)
	}
}

// TestClientMetrics reads the raw gauge text through the probe method.
func TestClientMetrics(t *testing.T) {
	_, ts := newDaemon(t, instantRun)
	c := New(ts.URL, fastRetry())
	raw, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"arcsimd_up", "arcsimd_workers", "arcsimd_busy_workers", "arcsimd_queue_depth"} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("metrics missing %s:\n%s", want, raw)
		}
	}
}

// TestStoreHead: the one-shot HEAD probe against a daemon's store —
// 200 for a held key, false for absent keys, storeless daemons, and
// dead endpoints.
func TestStoreHead(t *testing.T) {
	st, _, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const key = "v2/scale=0.25/seed=1/demo/arc/8"
	if err := st.Put(key, &sim.Result{Workload: "demo", Protocol: "arc", Cores: 8}); err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Workers: 1, QueueDepth: 4, Store: st})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Drain(ctx) //nolint:errcheck
	})
	c := New(ts.URL, fastRetry())
	ctx := context.Background()
	if !c.StoreHead(ctx, key) {
		t.Fatal("StoreHead false for a held key")
	}
	if c.StoreHead(ctx, "v2/scale=0.25/seed=1/absent/arc/8") {
		t.Fatal("StoreHead true for an absent key")
	}

	_, noStore := newDaemon(t, instantRun)
	if New(noStore.URL, fastRetry()).StoreHead(ctx, key) {
		t.Fatal("StoreHead true on a storeless daemon")
	}

	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	if New(dead.URL, fastRetry()).StoreHead(ctx, key) {
		t.Fatal("StoreHead true on a dead endpoint")
	}
}
