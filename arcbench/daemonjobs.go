package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"arcsim/internal/bench"
	"arcsim/internal/client"
	"arcsim/internal/protocols"
	"arcsim/internal/server"
	"arcsim/internal/sim"
	"arcsim/internal/store"
	"arcsim/internal/workload"
)

// The daemon-jobs mix: catalog workloads × 4 designs × 8/16 cores at
// scale 0.05, over a pool of two workload seeds drawn from --seed.
var (
	djScale   = 0.05
	djCores   = []int{8, 16}
	djPool    = 2
	djCallers = 2
)

// Job classes.
const (
	classFresh        = iota // simulate, then store.Put
	classStoreHit            // written into the store during set-up, first requested in the round
	classMemoHit             // repeats a job of the same round
	classShortCircuit        // conflicts-only on a proven-DRF trace
	numClasses
)

var classNames = [numClasses]string{"fresh", "store_hit", "memo_hit", "shortcircuit"}

type djJob struct {
	class int
	spec  server.JobSpec
	orig  int // position of the job a memo hit repeats; -1 otherwise
}

// djOutcome is what a caller observed for one job.
type djOutcome struct {
	lat, submit, follow, fetch time.Duration
	view                       server.JobView
	raw                        []byte
	err                        error
}

// djRef holds the reference results, simulated in-process by a
// bench.Runner per pool seed: the store-hit blobs and the bytes every
// job's result must equal.
type djRef struct {
	res    map[string]*sim.Result // by cache key
	bytes  map[string][]byte
	proven map[string]bool // (seed, workload, cores) → proven DRF
}

// refusals counts 429 and 503 responses on the clients' transport: a
// refused request counts as a failure even when the client retries it.
type refusals struct {
	base http.RoundTripper
	n    atomic.Int64
}

func (t *refusals) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err == nil && (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) {
		t.n.Add(1)
	}
	return resp, err
}

// daemonJobs serves the seeded job mix from an in-process arcsimd
// (server.New, 2 workers, tier on, a store in a temporary directory, a
// loopback listener) to 2 closed-loop client.Client callers, each doing
// Submit → Follow → ResultBytes and waiting for its result before taking
// the next job, like `experiments -remote -j 2`. Work comes in rounds:
// every round is one seeded plan against a freshly set-up daemon and
// store, so each round sees the same mix of fresh, store-hit, memo-hit
// and short-circuit jobs however many rounds fit in the pass.
func daemonJobs(r *run) error {
	rng := rand.New(rand.NewSource(r.seed))
	seeds := map[int64]bool{}
	var pool []int64
	for len(pool) < djPool {
		s := 2 + rng.Int63n(1<<20)
		if !seeds[s] {
			seeds[s] = true
			pool = append(pool, s)
		}
	}
	ref, err := djReference(pool)
	if err != nil {
		return err
	}
	tp := &refusals{base: http.DefaultTransport}
	http.DefaultTransport = tp
	defer func() {
		// Every 429 or 503 is a failed attempt, even when the client's
		// retry then succeeded.
		if n := int(tp.n.Load()); n > 0 {
			r.attempted += n
			r.failed += n
			r.problems = append(r.problems, fmt.Sprintf("daemon-jobs: %d requests refused with 429/503", n))
		}
	}()

	p := djPass(r, rng, pool, ref)
	if p.err != nil {
		return p.err
	}
	r.e2e["setup_s"] = metric{median(p.setup), "s"}
	r.e2e["sweep_wall_s"] = metric{median(p.roundWall), "s"}
	r.e2e["jobs_per_s"] = metric{median(p.jobRate), "1/s"}
	r.e2e["sim_events_per_s"] = metric{median(p.eventRate), "1/s"}
	r.latencies(p.lat)
	r.perUnit(p.use)

	if !r.traced {
		return nil
	}
	var t djPassStats
	if err := r.tracedPass(func() error {
		t = djPass(r, rng, pool, ref)
		if t.err != nil {
			return t.err
		}
		return djSeedProbe(r, pool)
	}); err != nil {
		return err
	}
	r.overhead(percentile(p.lat, 50), percentile(t.lat, 50))
	for k, v := range t.layer {
		r.layer[k] = v
	}
	return nil
}

// djReference simulates every job coordinate once per pool seed.
func djReference(pool []int64) (*djRef, error) {
	ref := &djRef{res: map[string]*sim.Result{}, bytes: map[string][]byte{}, proven: map[string]bool{}}
	for _, seed := range pool {
		cfg := bench.Config{Scale: djScale, Seed: seed, Tier: true, Jobs: 2}
		runner := bench.NewRunner(cfg)
		var specs []bench.RunSpec
		for _, wl := range workload.Names() {
			for _, c := range djCores {
				an, err := runner.Analysis(wl, c)
				if err != nil {
					return nil, err
				}
				ref.proven[fmt.Sprint(seed, wl, c)] = an.ProvenDRF()
				for _, d := range protocols.Names() {
					specs = append(specs, bench.RunSpec{Workload: wl, Proto: d, Cores: c})
				}
			}
		}
		runner.Prefetch(specs)
		for _, s := range specs {
			res, err := runner.SpecResult(context.Background(), s)
			if err != nil {
				return nil, err
			}
			raw, err := json.Marshal(res)
			if err != nil {
				return nil, err
			}
			key := cfg.CacheKey(s)
			ref.res[key] = res
			ref.bytes[key] = raw
		}
	}
	return ref, nil
}

func djSpec(seed int64, wl, design string, cores int) server.JobSpec {
	return server.JobSpec{Workload: wl, Protocol: design, Cores: cores, Scale: djScale, Seed: seed}
}

func djKey(s server.JobSpec) string {
	return bench.Config{Scale: s.Scale, Seed: s.Seed}.CacheKey(bench.RunSpec{Workload: s.Workload, Proto: s.Protocol, Cores: s.Cores})
}

// djPlan draws one round's jobs for a pool seed. For every (workload,
// cores) pair, one design runs fresh and another is a store hit; both
// are repeated once later in the round (memo hits); a proven-DRF pair
// also gets one conflicts-only job on a third design (short circuit).
// Repeats go in a later segment than their originals, and a caller
// waits for an original to finish before submitting its repeat.
func djPlan(rng *rand.Rand, seed int64, ref *djRef) []djJob {
	type wc struct {
		wl    string
		cores int
	}
	var pairs []wc
	for _, wl := range workload.Names() {
		for _, c := range djCores {
			pairs = append(pairs, wc{wl, c})
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	designs := protocols.Names()
	type planned struct {
		djJob
		id, origID int
	}
	var segs [3][]planned
	id := 0
	add := func(seg int, j djJob, origID int) int {
		id++
		segs[seg] = append(segs[seg], planned{j, id, origID})
		return id
	}
	for i, p := range pairs {
		seg := 0
		if i >= len(pairs)/2 {
			seg = 1
		}
		perm := rng.Perm(len(designs))
		fresh := djJob{class: classFresh, spec: djSpec(seed, p.wl, designs[perm[0]], p.cores), orig: -1}
		hit := djJob{class: classStoreHit, spec: djSpec(seed, p.wl, designs[perm[1]], p.cores), orig: -1}
		fid := add(seg, fresh, 0)
		hid := add(seg, hit, 0)
		add(seg+1, djJob{class: classMemoHit, spec: fresh.spec}, fid)
		add(seg+1, djJob{class: classMemoHit, spec: hit.spec}, hid)
		if ref.proven[fmt.Sprint(seed, p.wl, p.cores)] {
			sc := djSpec(seed, p.wl, designs[perm[2]], p.cores)
			sc.ConflictsOnly = true
			add(seg, djJob{class: classShortCircuit, spec: sc, orig: -1}, 0)
		}
	}
	var order []planned
	for _, s := range segs {
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		order = append(order, s...)
	}
	pos := map[int]int{}
	jobs := make([]djJob, len(order))
	for i, p := range order {
		pos[p.id] = i
		jobs[i] = p.djJob
		if p.origID != 0 {
			jobs[i].orig = pos[p.origID]
		}
	}
	return jobs
}

// djDaemon is one round's daemon: store, server and listener.
type djDaemon struct {
	dir   string
	st    *store.Store
	srv   *server.Server
	hs    *http.Server
	base  string
	serve chan error
}

// djStart sets up a round's daemon: a fresh store warmed with the
// round's store-hit results, re-opened (the timed store.Open of a warmed
// store), and served on a loopback listener.
func djStart(r *run, round int, jobs []djJob, ref *djRef, putMS, openMS *[]float64) (*djDaemon, error) {
	d := &djDaemon{dir: filepath.Join(r.outDir, fmt.Sprintf("daemon-store-%d", round))}
	if err := os.RemoveAll(d.dir); err != nil {
		return nil, err
	}
	st, _, err := store.Open(d.dir)
	if err != nil {
		return nil, err
	}
	for _, j := range jobs {
		if j.class != classStoreHit {
			continue
		}
		key := djKey(j.spec)
		t0 := time.Now()
		if err := st.Put(key, ref.res[key]); err != nil {
			st.Close()
			return nil, err
		}
		*putMS = append(*putMS, ms(time.Since(t0)))
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if d.st, _, err = store.Open(d.dir); err != nil {
		return nil, err
	}
	*openMS = append(*openMS, ms(time.Since(t0)))
	d.srv = server.New(server.Config{Workers: 2, Tier: true, Store: d.st})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.st.Close()
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.srv.Handler()}
	d.serve = make(chan error, 1)
	go func() { d.serve <- d.hs.Serve(ln) }()
	d.srv.Start()
	if err := djWarm(d.base, jobs); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// djWarm fills the daemon's machine pool the way a long-running daemon's
// is: one job per design and core count, each on a workload the round
// does not request, so timed jobs reuse a pooled machine+protocol pair
// instead of building one.
func djWarm(base string, jobs []djJob) error {
	used := map[string]bool{}
	for _, j := range jobs {
		used[djKey(j.spec)] = true
	}
	c := client.New(base, client.Options{})
	ctx := context.Background()
	seed := jobs[0].spec.Seed
	for _, design := range protocols.Names() {
		for _, cores := range djCores {
			for _, wl := range workload.Names() {
				spec := djSpec(seed, wl, design, cores)
				if used[djKey(spec)] {
					continue
				}
				v, err := c.Submit(ctx, spec)
				if err == nil {
					_, err = c.Follow(ctx, v.ID, nil)
				}
				if err != nil {
					return fmt.Errorf("warm-up job %s: %w", djKey(spec), err)
				}
				break
			}
		}
	}
	return nil
}

// stop drains the daemon, closes its listener and connections, waits for
// the serving goroutine, and removes the store.
func (d *djDaemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := []error{d.srv.Drain(ctx), d.hs.Shutdown(ctx)}
	if err := <-d.serve; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	errs = append(errs, d.st.Close(), os.RemoveAll(d.dir))
	if t, ok := http.DefaultTransport.(*refusals); ok {
		if b, ok := t.base.(*http.Transport); ok {
			b.CloseIdleConnections()
		}
	}
	return errors.Join(errs...)
}

// djPassStats is what one pass of rounds measured.
type djPassStats struct {
	setup, roundWall   []float64
	jobRate, eventRate []float64 // per round
	lat                []float64
	busy               time.Duration
	use                []usage
	layer              map[string]metric
	err                error
}

// djPass runs rounds until the pass time is spent (at least one round).
func djPass(r *run, rng *rand.Rand, pool []int64, ref *djRef) djPassStats {
	ps := djPassStats{layer: map[string]metric{}}
	var putMS, openMS, submit, follow, fetch, queue, resultKB []float64
	var service [numClasses][]float64
	var hits, misses, storeMB []float64
	ctx := context.Background()
	for round := 0; round == 0 || ps.busy < r.seconds; round++ {
		seed := pool[round%len(pool)]
		debug.FreeOSMemory()
		t0 := time.Now()
		jobs := djPlan(rng, seed, ref)
		d, err := djStart(r, round, jobs, ref, &putMS, &openMS)
		if err != nil {
			ps.err = err
			return ps
		}
		ps.setup = append(ps.setup, time.Since(t0).Seconds())

		outs := make([]djOutcome, len(jobs))
		var wall time.Duration
		u := measure(func() {
			start := time.Now()
			djRound(r, d.base, jobs, outs)
			wall = time.Since(start)
		})
		ps.use = append(ps.use, u)
		ps.busy += wall
		ps.roundWall = append(ps.roundWall, wall.Seconds())
		ps.jobRate = append(ps.jobRate, float64(len(jobs))/wall.Seconds())

		// Untimed: the store's own counts, then the checks.
		if m, err := client.New(d.base, client.Options{}).Metrics(ctx); err == nil {
			hits = append(hits, promValue(m, "arcsimd_store_hits_total"))
			misses = append(misses, promValue(m, "arcsimd_store_misses_total"))
			storeMB = append(storeMB, promValue(m, "arcsimd_store_bytes")/(1<<20))
		} else {
			r.check(false, "daemon-jobs: /metrics: %v", err)
		}
		if err := d.stop(); err != nil {
			ps.err = err
			return ps
		}
		var events uint64
		for i, j := range jobs {
			o := outs[i]
			ps.lat = append(ps.lat, ms(o.lat))
			submit = append(submit, ms(o.submit))
			follow = append(follow, ms(o.follow))
			fetch = append(fetch, ms(o.fetch))
			queue = append(queue, ms(o.view.Started.Sub(o.view.Created)))
			service[j.class] = append(service[j.class], ms(o.view.Done.Sub(o.view.Started)))
			if j.class == classFresh {
				if res := ref.res[djKey(j.spec)]; res != nil {
					events += res.Events
				}
			}
			if j.class != classShortCircuit {
				resultKB = append(resultKB, float64(len(o.raw))/1024)
			}
			r.check(djCheck(j, o, outs, ref), "daemon-jobs: %s job %s/%s/%d seed %d: state %q, cacheHit %v, tiered %v, err %v, result matches reference %v",
				classNames[j.class], j.spec.Workload, j.spec.Protocol, j.spec.Cores, j.spec.Seed,
				o.view.State, o.view.CacheHit, o.view.Tiered, o.err, bytes.Equal(o.raw, djExpected(j, ref)))
		}
		ps.eventRate = append(ps.eventRate, float64(events)/wall.Seconds())
	}
	ps.layer["server.submit_p50_ms"] = metric{median(submit), "ms"}
	ps.layer["client.follow_p50_ms"] = metric{median(follow), "ms"}
	ps.layer["server.result_fetch_p50_ms"] = metric{median(fetch), "ms"}
	ps.layer["server.queue_wait_p50_ms"] = metric{median(queue), "ms"}
	ps.layer["server.queue_wait_p99_ms"] = metric{percentile(queue, 99), "ms"}
	for c := 0; c < numClasses; c++ {
		ps.layer["server."+classNames[c]+"_p50_ms"] = metric{median(service[c]), "ms"}
	}
	ps.layer["server.fresh_p99_ms"] = metric{percentile(service[classFresh], 99), "ms"}
	ps.layer["server.result_kb"] = metric{sum(resultKB) / float64(len(resultKB)), "KB"}
	ps.layer["store.open_ms"] = metric{median(openMS), "ms"}
	ps.layer["store.put_ms"] = metric{median(putMS), "ms"}
	ps.layer["store.hits"] = metric{median(hits), "count"}
	ps.layer["store.misses"] = metric{median(misses), "count"}
	ps.layer["store.mb"] = metric{median(storeMB), "MB"}
	return ps
}

// djRound runs one round's jobs through the closed-loop callers.
func djRound(r *run, base string, jobs []djJob, outs []djOutcome) {
	done := make([]chan struct{}, len(jobs))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < djCallers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := client.New(base, client.Options{})
			ctx := context.Background()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				if o := jobs[i].orig; o >= 0 {
					<-done[o]
				}
				outs[i] = djJobRun(r, c, ctx, jobs[i].spec)
				close(done[i])
			}
		}()
	}
	wg.Wait()
}

// djJobRun is one caller request: Submit, Follow to the terminal state,
// ResultBytes.
func djJobRun(r *run, c *client.Client, ctx context.Context, spec server.JobSpec) djOutcome {
	var o djOutcome
	root := r.tr.begin("daemon.job", 0)
	defer r.tr.end(root)
	t0 := time.Now()
	sp := r.tr.begin("client.submit", root)
	view, err := c.Submit(ctx, spec)
	r.tr.end(sp)
	t1 := time.Now()
	o.submit = t1.Sub(t0)
	if err != nil {
		o.err = err
		return o
	}
	sp = r.tr.begin("client.follow", root)
	o.view, o.err = c.Follow(ctx, view.ID, nil)
	r.tr.end(sp)
	t2 := time.Now()
	o.follow = t2.Sub(t1)
	if o.err != nil {
		return o
	}
	sp = r.tr.begin("client.result", root)
	o.raw, o.err = c.ResultBytes(ctx, view.ID)
	r.tr.end(sp)
	t3 := time.Now()
	o.fetch = t3.Sub(t2)
	o.lat = t3.Sub(t0)
	return o
}

// djExpected is the result bytes a job must return: the in-process
// reference run's, or the synthesized proven-DRF result.
func djExpected(j djJob, ref *djRef) []byte {
	if j.class == classShortCircuit {
		raw, _ := json.Marshal(&sim.Result{Protocol: j.spec.Protocol, Workload: j.spec.Workload, Cores: j.spec.Cores,
			OracleChecked: true, Synthesized: true})
		return raw
	}
	return ref.bytes[djKey(j.spec)]
}

// djCheck gates one job: it completed, its result bytes equal the
// reference, and the daemon answered it the way its class says.
func djCheck(j djJob, o djOutcome, outs []djOutcome, ref *djRef) bool {
	if o.err != nil || o.view.State != server.StateDone || !bytes.Equal(o.raw, djExpected(j, ref)) {
		return false
	}
	switch j.class {
	case classFresh:
		return !o.view.CacheHit && !o.view.Tiered
	case classStoreHit:
		return o.view.CacheHit && !o.view.Tiered
	case classMemoHit:
		return !o.view.Tiered && o.view.CacheHit == outs[j.orig].view.CacheHit
	default:
		return o.view.Tiered
	}
}

// djSeedProbe measures how the daemon's retained heap grows with the
// number of distinct workload seeds it has served: the daemon keeps one
// runner, with its own machine pool, per (scale, seed). One daemon
// serves the 8 design × core-count jobs of one workload for one, then
// two, then three seeds; the in-use heap after a GC is read after each.
func djSeedProbe(r *run, pool []int64) error {
	seeds := append(append([]int64(nil), pool...), pool[len(pool)-1]+1)
	srv := server.New(server.Config{Workers: 2, Tier: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	serve := make(chan error, 1)
	go func() { serve <- hs.Serve(ln) }()
	srv.Start()
	c := client.New("http://"+ln.Addr().String(), client.Options{})
	ctx := context.Background()
	var heap []float64
	for _, seed := range seeds {
		for _, d := range protocols.Names() {
			for _, cores := range djCores {
				v, err := c.Submit(ctx, djSpec(seed, "canneal", d, cores))
				if err == nil {
					_, err = c.Follow(ctx, v.ID, nil)
				}
				if err != nil {
					return err
				}
			}
		}
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		heap = append(heap, float64(m.HeapInuse)/(1<<20))
	}
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	err = errors.Join(srv.Drain(sctx), hs.Shutdown(sctx))
	if serr := <-serve; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	fmt.Printf("daemon heap in use after 1..%d seeds: %.1f MB\n", len(heap), heap)
	r.layer["server.heap_mb_per_seed"] = metric{(heap[len(heap)-1] - heap[0]) / float64(len(heap)-1), "MB"}
	return err
}

// promValue reads one unlabeled sample from a Prometheus exposition.
func promValue(exposition []byte, name string) float64 {
	for _, line := range strings.Split(string(exposition), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err == nil {
				return f
			}
		}
	}
	return 0
}
