package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"arcsim/internal/mesh"
	"arcsim/internal/protocols"
	"arcsim/internal/sim"
	"arcsim/internal/store"
)

func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) (*http.Response, JobView) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &view); err != nil {
			t.Fatalf("bad submit response %s: %v", data, err)
		}
	}
	return resp, view
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

// waitState polls until the job reaches any of the wanted states.
func waitState(t *testing.T, ts *httptest.Server, id string, want ...string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v := getJob(t, ts, id)
		for _, w := range want {
			if v.State == w {
				return v
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %v", id, want)
	return JobView{}
}

func fetchResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result fetch: %d %s", resp.StatusCode, data)
	}
	return data
}

// sseEvents reads the job's SSE stream until it ends (terminal job) and
// returns the event names in order.
func sseEvents(t *testing.T, ts *httptest.Server, id string) []string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	var names []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			names = append(names, name)
		}
	}
	return names
}

// tinySpec is a real simulation small enough for tests.
func tinySpec() JobSpec {
	return JobSpec{Workload: "blackscholes", Protocol: "arc", Cores: 4, Scale: 0.05, Seed: 1}
}

// TestLifecycleAcrossRestart is the tentpole's acceptance test: submit a
// real job, fetch its result, drain; then restart the daemon on the same
// store and observe a cache hit with byte-identical result bytes and no
// re-simulation.
func TestLifecycleAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 2, QueueDepth: 4, Store: st})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())

	resp, view := postJob(t, ts, tinySpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	done := waitState(t, ts, view.ID, StateDone, StateFailed)
	if done.State != StateDone {
		t.Fatalf("first run: %+v", done)
	}
	if done.CacheHit {
		t.Fatal("first run claims a cache hit on an empty store")
	}
	if done.Cycles == 0 {
		t.Fatal("done job reports zero cycles")
	}
	first := fetchResult(t, ts, view.ID)

	// SSE on a finished job replays the full history and terminates.
	events := sseEvents(t, ts, view.ID)
	if want := []string{"state", "state", "state", "done"}; fmt.Sprint(events) != fmt.Sprint(want) {
		t.Fatalf("event stream %v, want %v", events, want)
	}

	// Graceful drain, then a restart over the same store directory.
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if resp, _ := postJob(t, ts, tinySpec()); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining daemon accepted a job: %d", resp.StatusCode)
	}
	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, open, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if open.Entries != 1 {
		t.Fatalf("store after restart: %+v", open)
	}
	srv2 := New(Config{Workers: 2, QueueDepth: 4, Store: st2})
	srv2.Start()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.Drain(context.Background()) //nolint:errcheck

	_, view2 := postJob(t, ts2, tinySpec())
	done2 := waitState(t, ts2, view2.ID, StateDone, StateFailed)
	if done2.State != StateDone {
		t.Fatalf("replay run: %+v", done2)
	}
	if !done2.CacheHit {
		t.Fatal("restarted daemon re-simulated instead of hitting the store")
	}
	second := fetchResult(t, ts2, view2.ID)
	if !bytes.Equal(first, second) {
		t.Fatalf("cache hit not byte-identical:\n first %s\n second %s", first, second)
	}
	if tm := srv2.runners[fmt.Sprintf("%g|%d", 0.05, int64(1))].Timing(); tm.Runs != 0 || tm.CacheHits != 1 {
		t.Fatalf("runner executed %d run(s), cacheHits=%d; want 0 runs, 1 hit", tm.Runs, tm.CacheHits)
	}

	// /metrics exposes queue depth, jobs by state, and store counters.
	resp3, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	for _, want := range []string{
		"arcsimd_queue_depth 0",
		`arcsimd_jobs{state="done"} 1`,
		"arcsimd_store_hits_total 1",
		"arcsimd_store_misses_total",
		"arcsimd_store_results 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// /healthz reports the store.
	resp4, err := http.Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health, _ := io.ReadAll(resp4.Body)
	resp4.Body.Close()
	if !strings.Contains(string(health), `"ok"`) || !strings.Contains(string(health), `"results": 1`) {
		t.Errorf("healthz: %s", health)
	}
}

// TestQueueFullCancelAndSSE scripts the bounded queue and cancellation
// paths with a stubbed runner: one worker, queue depth one.
func TestQueueFullCancelAndSSE(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	srv.runJob = func(ctx context.Context, spec JobSpec) (*sim.Result, error) {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: %v", sim.ErrCanceled, context.Cause(ctx))
		case <-release:
			return &sim.Result{Protocol: spec.Protocol, Workload: spec.Workload, Cores: spec.Cores, Cycles: 42}, nil
		}
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background()) //nolint:errcheck

	// j1 occupies the worker; j2 fills the queue; j3 must bounce.
	_, j1 := postJob(t, ts, tinySpec())
	waitState(t, ts, j1.ID, StateRunning)
	_, j2 := postJob(t, ts, tinySpec())
	resp3, _ := postJob(t, ts, tinySpec())
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue returned %d, want 429", resp3.StatusCode)
	}
	if ra := resp3.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}

	// Cancel the queued job: it must go terminal without ever running.
	if resp, err := http.Post(ts.URL+"/v1/jobs/"+j2.ID+"/cancel", "", nil); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: %v %v", resp.StatusCode, err)
	}
	if v := waitState(t, ts, j2.ID, StateCanceled); !v.Started.IsZero() {
		t.Fatalf("canceled queued job had started: %+v", v)
	}

	// Cancel the running job mid-run: the stub unwinds via ctx exactly
	// like sim.RunContext does.
	if resp, err := http.Post(ts.URL+"/v1/jobs/"+j1.ID+"/cancel", "", nil); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel running: %v %v", resp.StatusCode, err)
	}
	waitState(t, ts, j1.ID, StateCanceled)
	events := sseEvents(t, ts, j1.ID)
	if want := []string{"state", "state", "state", "done"}; fmt.Sprint(events) != fmt.Sprint(want) {
		t.Fatalf("canceled job events %v, want %v", events, want)
	}

	// Canceling a terminal job is a 409; unknown jobs are 404.
	if resp, _ := http.Post(ts.URL+"/v1/jobs/"+j1.ID+"/cancel", "", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("re-cancel: %d, want 409", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/v1/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatal("missing job not 404")
	}

	// The worker is free again: a fresh job runs to completion.
	close(release)
	_, j4 := postJob(t, ts, tinySpec())
	if v := waitState(t, ts, j4.ID, StateDone); v.Cycles != 42 {
		t.Fatalf("post-cancel job: %+v", v)
	}

	// Fetching the result of a canceled job is a 409.
	if resp, _ := http.Get(ts.URL + "/v1/jobs/" + j1.ID + "/result"); resp.StatusCode != http.StatusConflict {
		t.Fatal("canceled job served a result")
	}
}

// TestLiveSSEFollowsJob subscribes before the job finishes and sees the
// live transition to done.
func TestLiveSSEFollowsJob(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	release := make(chan struct{})
	srv.runJob = func(ctx context.Context, spec JobSpec) (*sim.Result, error) {
		<-release
		return &sim.Result{Cycles: 7}, nil
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background()) //nolint:errcheck

	_, j := postJob(t, ts, tinySpec())
	waitState(t, ts, j.ID, StateRunning)
	got := make(chan []string, 1)
	go func() { got <- sseEvents(t, ts, j.ID) }()
	time.Sleep(20 * time.Millisecond) // let the stream attach mid-run
	close(release)
	select {
	case events := <-got:
		if len(events) == 0 || events[len(events)-1] != "done" {
			t.Fatalf("live stream events: %v", events)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("live SSE stream never terminated")
	}
}

func TestSubmitValidation(t *testing.T) {
	designs := []string{
		protocols.MESI, protocols.CE, protocols.CEPlus, protocols.ARC,
		protocols.ARCNoRO, protocols.ARCNoPrivate, protocols.MOESI,
		protocols.CEPlusMOESI, protocols.CEPlusWord, protocols.ARCWord,
	}
	kernels := []string{"falseshare", "aimstress", "phasedisjoint"} // outside the catalog
	srv := New(Config{Workers: 1, QueueDepth: 2 * len(designs) * (1 + len(kernels))})
	// No Start: validation must reject before anything reaches the queue.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, spec := range []JobSpec{
		{},                                    // no workload
		{Workload: "nope", Protocol: "arc"},   // unknown workload
		{Workload: "x264", Protocol: "turbo"}, // unknown protocol
		{Workload: "x264", Protocol: "arc-nofast"},      // unknown ablation
		{Workload: "x264", Protocol: "arc", Cores: -3},  // bad cores
		{Workload: "x264", Protocol: "arc", Cores: 65},  // one past the directory bitmask
		{Workload: "x264", Protocol: "arc", Cores: 999}, // too many cores
		{Workload: "x264", Protocol: "arc", Cores: 1 << 40},
		{Workload: "x264", Protocol: "ce+", AIMEntries: 12}, // 12 entries across 8 tiles
		{Workload: "x264", Protocol: "arc", AIMEntries: 12},
		{Workload: "x264", Protocol: "arc", AIMEntries: -1},
		{Workload: "x264", Protocol: "arc", Cores: 8, AIMEntries: 1 << 36}, // over the AIM ceiling
	} {
		resp, _ := postJob(t, ts, spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %+v: got %d, want 400", spec, resp.StatusCode)
		}
	}
	if jobs := srv.jobList(); len(jobs) != 0 {
		t.Fatalf("rejected specs registered %d jobs", len(jobs))
	}

	for _, wl := range append(kernels, "x264") {
		for _, design := range designs {
			for _, cores := range []int{1, 64} {
				spec := JobSpec{Workload: wl, Protocol: design, Cores: cores}
				if resp, _ := postJob(t, ts, spec); resp.StatusCode != http.StatusAccepted {
					t.Errorf("spec %+v: got %d, want 202", spec, resp.StatusCode)
				}
			}
		}
	}
}

// TestSubmitValidatesWithoutBuilding holds submit validation to the
// engine's rules alone. Building the machine a 16-core spec describes
// allocates about 23 MB, so the 1 MB bound fails any submit that builds
// one.
func TestSubmitValidatesWithoutBuilding(t *testing.T) {
	const submits = 20
	srv := New(Config{Workers: 1, QueueDepth: submits})
	h := srv.Handler()
	body := `{"workload":"x264","protocol":"arc","cores":16}`
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < submits; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: got %d, want 202: %s", i, rec.Code, rec.Body)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / submits; per >= 1<<20 {
		t.Errorf("each submit allocated %d bytes, want under 1 MB", per)
	}
}

// TestDaemonSharesOnePoolAcrossSeeds holds a daemon to one machine
// pool however many seeds it serves. After a GC, the heap the first
// seed's jobs leave behind is mostly that seed's machines: one per
// design. Three more seeds over the same designs and core count must
// together retain less than that, where a pool per seed retains three
// times as much.
func TestDaemonSharesOnePoolAcrossSeeds(t *testing.T) {
	srv := New(Config{Workers: 1})
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	serve := func(seed int64) {
		for _, design := range protocols.Names() {
			spec := JobSpec{Workload: "dedup", Protocol: design, Cores: 8, Scale: 0.02, Seed: seed}
			if err := normalizeSpec(&spec); err != nil {
				t.Fatal(err)
			}
			if _, err := srv.simulate(context.Background(), spec); err != nil {
				t.Fatalf("seed %d %s: %v", seed, design, err)
			}
		}
	}
	before := heap()
	serve(1)
	first := heap()
	for seed := int64(2); seed <= 4; seed++ {
		serve(seed)
	}
	after := heap()
	runtime.KeepAlive(srv)
	oneSeed, more := first-before, after-first
	t.Logf("heap: first seed +%.1f MB, three more seeds +%.1f MB", float64(oneSeed)/(1<<20), float64(more)/(1<<20))
	if more >= oneSeed {
		t.Errorf("three more seeds retained %d bytes, not less than the first seed's %d", more, oneSeed)
	}
}

// BenchmarkNormalizeSpec measures submit-time validation of a valid
// 16-core ARC spec.
func BenchmarkNormalizeSpec(b *testing.B) {
	valid := JobSpec{Workload: "x264", Protocol: "arc", Cores: 16}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec := valid
		if err := normalizeSpec(&spec); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCancelReasonPreempt covers the scheduler's requeue-safe cancel:
// ?reason=preempt lands CancelReasonPreempt in the job's final Error
// for both queued and running jobs, unknown reasons keep the default
// operator-cancel causes, and arcsimd_busy_workers tracks execution.
func TestCancelReasonPreempt(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	release := make(chan struct{})
	srv.runJob = func(ctx context.Context, spec JobSpec) (*sim.Result, error) {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: %v", sim.ErrCanceled, context.Cause(ctx))
		case <-release:
			return &sim.Result{Protocol: spec.Protocol, Workload: spec.Workload, Cores: spec.Cores, Cycles: 7}, nil
		}
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer close(release)
	defer srv.Drain(context.Background()) //nolint:errcheck

	_, j1 := postJob(t, ts, tinySpec()) // occupies the worker
	waitState(t, ts, j1.ID, StateRunning)
	_, j2 := postJob(t, ts, tinySpec()) // queued
	_, j3 := postJob(t, ts, tinySpec()) // queued

	// The busy gauge reflects the running simulation.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "arcsimd_busy_workers 1") {
		t.Fatalf("metrics missing arcsimd_busy_workers 1:\n%s", metrics)
	}

	// Preempt the queued job: its final Error names the preemption.
	if resp, err := http.Post(ts.URL+"/v1/jobs/"+j2.ID+"/cancel?reason=preempt", "", nil); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("preempt queued: %v %v", resp, err)
	}
	if v := waitState(t, ts, j2.ID, StateCanceled); v.Error != CancelReasonPreempt {
		t.Fatalf("queued preempt error = %q, want %q", v.Error, CancelReasonPreempt)
	}

	// An unrecognized reason falls back to the operator-cancel cause
	// (j3 is still queued: the worker is occupied by j1).
	if resp, err := http.Post(ts.URL+"/v1/jobs/"+j3.ID+"/cancel?reason=because", "", nil); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel with bogus reason: %v %v", resp, err)
	}
	if v := waitState(t, ts, j3.ID, StateCanceled); v.Error != "canceled while queued" {
		t.Fatalf("bogus-reason error = %q, want the default operator cause", v.Error)
	}

	// Preempt the running job: the cause unwinds through the run context.
	if resp, err := http.Post(ts.URL+"/v1/jobs/"+j1.ID+"/cancel?reason=preempt", "", nil); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("preempt running: %v %v", resp, err)
	}
	if v := waitState(t, ts, j1.ID, StateCanceled); v.Error != CancelReasonPreempt {
		t.Fatalf("running preempt error = %q, want %q", v.Error, CancelReasonPreempt)
	}
}

// TestFederationWarmsFreshDaemon is the mesh's end-to-end test: daemon A
// simulates a job once; a fresh daemon B peered with A serves the same
// job byte-identically with zero simulations — one blob fetch instead.
func TestFederationWarmsFreshDaemon(t *testing.T) {
	stA, _, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer stA.Close()
	srvA := New(Config{Workers: 2, QueueDepth: 4, Store: stA})
	srvA.Start()
	tsA := httptest.NewServer(srvA.Handler())
	defer tsA.Close()

	_, viewA := postJob(t, tsA, tinySpec())
	if v := waitState(t, tsA, viewA.ID, StateDone, StateFailed); v.State != StateDone {
		t.Fatalf("daemon A run: %+v", v)
	}
	resA := fetchResult(t, tsA, viewA.ID)

	// The blob API serves A's store: HEAD answers existence, GET streams
	// verified bytes.
	key := stA.Keys()[0]
	headReq, _ := http.NewRequest(http.MethodHead, tsA.URL+mesh.PathPrefix+mesh.EscapeKey(key), nil)
	if resp, err := http.DefaultClient.Do(headReq); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD stored key: %v %v", resp, err)
	}
	headReq, _ = http.NewRequest(http.MethodHead, tsA.URL+mesh.PathPrefix+"v2/absent", nil)
	if resp, err := http.DefaultClient.Do(headReq); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("HEAD absent key: %v %v", resp, err)
	}

	// Daemon B: fresh store, peered with A.
	stB, _, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer stB.Close()
	m := mesh.New(mesh.Config{Peers: []string{tsA.URL}, Store: stB})
	srvB := New(Config{Workers: 2, QueueDepth: 4, Store: stB, Mesh: m})
	srvB.Start()
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	defer srvB.Drain(context.Background()) //nolint:errcheck

	_, viewB := postJob(t, tsB, tinySpec())
	done := waitState(t, tsB, viewB.ID, StateDone, StateFailed)
	if done.State != StateDone {
		t.Fatalf("daemon B run: %+v", done)
	}
	if !done.CacheHit {
		t.Fatal("mesh-served job not reported as a cache hit")
	}
	resB := fetchResult(t, tsB, viewB.ID)
	if !bytes.Equal(resA, resB) {
		t.Fatalf("federated result not byte-identical:\n A %s\n B %s", resA, resB)
	}
	if n := srvB.simsTotal(); n != 0 {
		t.Fatalf("daemon B simulated %d time(s); the mesh should have served it", n)
	}
	if c := m.Counters(); c.Fetches != 1 {
		t.Fatalf("mesh counters %+v, want 1 fetch", c)
	}
	if !stB.Has(key) {
		t.Fatal("daemon B's store did not self-warm")
	}

	// B's metrics prove it: zero simulations, one mesh fetch, store
	// size gauges live.
	resp, err := http.Get(tsB.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"arcsimd_sims_total 0",
		"arcsimd_mesh_fetches_total 1",
		"arcsimd_mesh_peers_healthy 1",
		"arcsimd_store_keys 1",
		"arcsimd_store_bytes ",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("daemon B metrics missing %q:\n%s", want, metrics)
		}
	}

	// /v1/mesh reports the peer in rotation.
	resp, err = http.Get(tsB.URL + "/v1/mesh")
	if err != nil {
		t.Fatal(err)
	}
	var meshView struct {
		Healthy  int               `json:"healthy"`
		Peers    []mesh.PeerStatus `json:"peers"`
		Counters mesh.Counters     `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&meshView); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if meshView.Healthy != 1 || len(meshView.Peers) != 1 || meshView.Counters.Fetches != 1 {
		t.Fatalf("/v1/mesh view %+v", meshView)
	}

	// Drain semantics: a draining daemon A keeps serving blobs — its
	// store stays valid and peers may still be warming from it.
	if err := srvA.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(tsA.URL + mesh.PathPrefix + mesh.EscapeKey(key))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining daemon stopped serving blobs: %d", resp.StatusCode)
	}
}
