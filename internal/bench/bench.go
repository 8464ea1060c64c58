// Package bench is the experiment harness that regenerates every table
// and figure of the paper's (reconstructed) evaluation — see the
// experiment index in DESIGN.md. Each experiment produces a rendered
// text artifact plus a set of shape checks: the qualitative claims from
// the paper's abstract that the measured numbers must reproduce (who
// wins, roughly by how much, where the crossovers fall).
package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"arcsim/internal/machine"
	"arcsim/internal/protocols"
	"arcsim/internal/sim"
	"arcsim/internal/static"
	"arcsim/internal/static/witness"
	"arcsim/internal/trace"
	"arcsim/internal/workload"
)

// Config scales the harness.
type Config struct {
	// Scale multiplies workload sizes. 1.0 is the full evaluation;
	// the default 0.25 regenerates every artifact in minutes.
	Scale float64
	// Seed drives workload generation.
	Seed int64
	// Cores is the core count for the per-workload figures (F1,
	// F3-F5); the paper reports these at 32 cores.
	Cores int
	// CoreSweep is the scalability axis (F2, F7).
	CoreSweep []int
	// Jobs bounds the number of concurrently executing simulations
	// (the Prefetch worker pool and internally parallel experiments
	// such as R1). 0 selects GOMAXPROCS; 1 recovers the serial
	// harness. Artifacts are byte-identical at every value.
	Jobs int
	// Progress, when non-nil, receives one line per simulation run.
	Progress io.Writer
	// Cache, when non-nil, is a persistent result layer under the
	// in-memory singleflight memo (the daemon's on-disk store, or any
	// other implementation). It is consulted before a simulation
	// executes and written after one succeeds, using CacheKey's
	// canonical key. Results served from it carry CacheHit=true.
	Cache Cache
	// Exec, when non-nil, replaces local execution: every run the memo
	// and Cache could not serve is handed to it (cmd/experiments wires
	// the fleet scheduler here to spread sweeps across daemons). An error
	// wrapping ErrRemoteUnavailable falls back to executing locally —
	// the sweep completes on one machine when the whole fleet is down;
	// any other error is the run's result, exactly as a local failure
	// would be. Exec must honor ctx and is called concurrently.
	Exec func(ctx context.Context, spec RunSpec) (*sim.Result, error)
	// Tier enables analyze-first tiered execution: every requested run
	// first consults the static analyzer (memoized per workload/cores),
	// oracle-checked runs on ProvenDRF traces execute unchecked (the
	// golden mirror is timing-neutral and soundness guarantees both
	// conflict sets are empty, so only the OracleChecked flag differs —
	// which the tier sets), and traces that pass sim.PlanPhases simulate
	// their barrier phases on parallel goroutines. Results are
	// byte-identical to straight-line execution at every tier (the
	// conformance suite proves it); only wall-clock changes.
	Tier bool
}

// ErrRemoteUnavailable is returned (wrapped) by a Config.Exec
// implementation to report that no backend can take the run right now;
// the Runner responds by executing locally instead of failing the run.
var ErrRemoteUnavailable = errors.New("bench: remote execution unavailable")

// Cache is the persistent layer under the Runner's memo. Get reports a
// miss (not an error) for anything it cannot serve; Put failures are
// surfaced to the caller of the run that produced the result.
type Cache interface {
	Get(key string) (*sim.Result, bool)
	Put(key string, res *sim.Result) error
}

// CacheKeyVersion stamps the canonical key scheme. Bump it whenever the
// simulator's observable results change meaning (a new statistic, a
// semantic fix): old store entries become unreachable instead of serving
// stale science. v2: the simulator now quiesces NoC/DRAM contention
// state at every barrier release (machine.PhaseFence), shifting timing
// on barrier-heavy workloads.
const CacheKeyVersion = "v2"

// CacheKey returns the canonical persistent-cache key for one run under
// this config: unlike the in-memory memo key, it carries everything that
// determines the result bytes — scheme version, scale, seed, and the
// run coordinates.
func (c Config) CacheKey(s RunSpec) string {
	return fmt.Sprintf("%s/scale=%g/seed=%d/%s", CacheKeyVersion, c.Scale, c.Seed, s.key().String())
}

func (c Config) normalized() Config {
	if c.Scale <= 0 {
		c.Scale = 0.25
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Cores == 0 {
		c.Cores = 32
	}
	if len(c.CoreSweep) == 0 {
		c.CoreSweep = []int{8, 16, 32, 64}
	}
	if c.Jobs <= 0 {
		c.Jobs = runtime.GOMAXPROCS(0)
	}
	return c
}

type runKey struct {
	workload string
	proto    string
	cores    int
	aim      int
	// oracle distinguishes golden-checked runs: CheckedResult must
	// never be satisfied by a memoized unchecked run (or vice versa —
	// performance runs should not pay the oracle's mirroring cost).
	oracle bool
}

func (k runKey) String() string {
	s := fmt.Sprintf("%s/%s/%d", k.workload, k.proto, k.cores)
	if k.aim > 0 {
		s += fmt.Sprintf("/aim%d", k.aim)
	}
	if k.oracle {
		s += "/oracle"
	}
	return s
}

// RunSpec declares one simulation an experiment will request, so the
// harness can prefetch it through the worker pool before the in-order
// render pass consumes the memoized result.
type RunSpec struct {
	Workload   string
	Proto      string
	Cores      int
	AIMEntries int
	Oracle     bool
}

func (s RunSpec) key() runKey {
	return runKey{s.Workload, s.Proto, s.Cores, s.AIMEntries, s.Oracle}
}

// traceKey is a trace identity under one runner: scale and seed are
// fixed by the config, so (workload, cores) names one trace, and keys
// the trace, analysis and witness memos.
type traceKey struct {
	workload string
	cores    int
}

// memo is a singleflight cache: the first caller of a key computes its
// value, and concurrent callers of the same key wait for that flight
// instead of repeating it. A flight that ends in sim.ErrCanceled proves
// nothing about its key, so it is not kept: the callers already waiting
// share its error, and the next caller computes afresh. The zero memo is
// ready to use.
type memo[K comparable, V any] struct {
	mu      sync.Mutex
	flights map[K]*flight[V]
}

type flight[V any] struct {
	done chan struct{} // closed once val and err are final
	val  V
	err  error
}

func (c *memo[K, V]) do(key K, compute func() (V, error)) (V, error) {
	c.mu.Lock()
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-f.done // completed or in flight: wait, never recompute
		return f.val, f.err
	}
	if c.flights == nil {
		c.flights = make(map[K]*flight[V])
	}
	f := &flight[V]{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	f.val, f.err = compute()
	if errors.Is(f.err, sim.ErrCanceled) {
		c.mu.Lock()
		if c.flights[key] == f {
			delete(c.flights, key)
		}
		c.mu.Unlock()
	}
	close(f.done)
	return f.val, f.err
}

// Timing summarizes the simulations a Runner actually executed
// (memo and singleflight hits excluded).
type Timing struct {
	Runs       int           // simulations executed
	SimTime    time.Duration // summed per-run wall-clock (serial cost)
	LongestRun time.Duration // slowest single run (parallel critical-path floor)
	LongestKey string        // workload/proto/cores of the slowest run
	// CacheHits/CacheMisses count persistent-cache (Config.Cache)
	// consultations; runs served from the cache do not count as Runs.
	CacheHits   int
	CacheMisses int
	// RemoteRuns/RemoteTime count runs served by Config.Exec (dispatch
	// wall-clock, not the backend's simulation cost); remote runs do not
	// count toward Runs/SimTime, which stay the local serial cost.
	RemoteRuns int
	RemoteTime time.Duration
	// AnalysisRuns/AnalysisTime count static analyses executed by the
	// tier (memoized per workload/cores, so at most one per trace
	// identity).
	AnalysisRuns int
	AnalysisTime time.Duration
	// OracleSkips counts oracle-checked requests the tier satisfied with
	// an unchecked run because the analyzer proved the trace DRF.
	OracleSkips int
	// WitnessRuns/WitnessTime/WitnessReplays count witness examinations
	// executed (memoized per trace identity) and the directed replays
	// they spent.
	WitnessRuns    int
	WitnessTime    time.Duration
	WitnessReplays int
	// PhaseParRuns counts simulations executed phase-parallel
	// (sim.RunPhased) rather than straight-line.
	PhaseParRuns int
}

// Runner executes and memoizes simulation runs; experiments that share
// configurations (F1/F3/F4/F5 all reuse the 32-core suite runs) pay for
// them once. It is safe for concurrent use: a per-key singleflight
// guarantees each (workload, proto, cores, aim, oracle) configuration
// runs at most once no matter how many experiments race to request it.
type Runner struct {
	cfg Config

	runs memo[runKey, *sim.Result]
	// traces, analyses and witnesses memoize per trace identity the
	// workload traces (shared by execution and analysis; immutable once
	// built), the static analyses the tier consults, and the witness
	// examinations, which cost simulations (see WitnessReport).
	traces    memo[traceKey, *trace.Trace]
	analyses  memo[traceKey, *static.Analysis]
	witnesses memo[traceKey, *witness.Report]

	// pool recycles machine+protocol pairs across runs, so a sweep pays
	// the ~tens-of-MB machine build once per configuration instead of
	// once per run. Runners made by Derive share it.
	pool *protocols.Pool

	// progressMu keeps concurrent runs from interleaving Progress lines.
	progressMu sync.Mutex

	statMu sync.Mutex
	timing Timing
}

// NewRunner builds a runner with its own machine pool.
func NewRunner(cfg Config) *Runner {
	return &Runner{cfg: cfg.normalized(), pool: new(protocols.Pool)}
}

// Derive returns a runner with r's configuration (its Cache, Tier,
// Progress and the rest) at another scale and seed. It shares r's
// machine pool and keeps its own memo and timing. A daemon derives one
// runner per (scale, seed) it serves, so it holds one set of machines
// however many seeds its jobs name.
func (r *Runner) Derive(scale float64, seed int64) *Runner {
	cfg := r.cfg
	cfg.Scale, cfg.Seed = scale, seed
	return &Runner{cfg: cfg.normalized(), pool: r.pool}
}

// Cfg returns the normalized configuration.
func (r *Runner) Cfg() Config { return r.cfg }

// Timing returns a snapshot of the executed-run accounting.
func (r *Runner) Timing() Timing {
	r.statMu.Lock()
	defer r.statMu.Unlock()
	return r.timing
}

// record adds one executed simulation to the timing accounting (also
// used by experiments that run simulations outside the memo, e.g. R1's
// foreign-seed runs and the timed runs of STAT, WIT and TIER).
func (r *Runner) record(label string, elapsed time.Duration) {
	r.statMu.Lock()
	r.timing.Runs++
	r.timing.SimTime += elapsed
	if elapsed > r.timing.LongestRun {
		r.timing.LongestRun = elapsed
		r.timing.LongestKey = label
	}
	r.statMu.Unlock()
}

// Result runs (or returns the memoized result of) one simulation.
// aimEntries 0 selects the design default; oracle-checking is off for
// performance runs (protocol correctness is covered by the test suite).
func (r *Runner) Result(wl, proto string, cores, aimEntries int) (*sim.Result, error) {
	return r.result(context.Background(), RunSpec{wl, proto, cores, aimEntries, false})
}

// CheckedResult is Result with the golden-oracle cross-check enabled
// (used by T3).
func (r *Runner) CheckedResult(wl, proto string, cores, aimEntries int) (*sim.Result, error) {
	return r.result(context.Background(), RunSpec{wl, proto, cores, aimEntries, true})
}

// SpecResult is the context-aware entry point used by the daemon: the
// run is abandoned (sim.ErrCanceled) once ctx is done. A canceled run is
// evicted from the memo so a later request re-executes it; concurrent
// waiters collapsed onto the canceled flight share its error.
func (r *Runner) SpecResult(ctx context.Context, s RunSpec) (*sim.Result, error) {
	return r.result(ctx, s)
}

// Prefetch executes specs through the memo with up to cfg.Jobs
// concurrent simulations. Duplicate specs (across and within
// experiments) collapse onto one run via the singleflight memo. Errors
// are not reported here: a failed run memoizes its error, and the
// deterministic render pass re-encounters it with full experiment
// context, exactly as the serial harness would.
func (r *Runner) Prefetch(specs []RunSpec) {
	r.parallel(len(specs), func(i int) {
		r.result(context.Background(), specs[i]) //nolint:errcheck
	})
}

// parallel calls fn(0), ..., fn(n-1) on up to cfg.Jobs goroutines,
// handing out indices in order, and returns once every call has. With
// one job it is a plain loop on the caller's goroutine.
func (r *Runner) parallel(n int, fn func(i int)) {
	workers := min(r.cfg.Jobs, n)
	if workers <= 1 {
		for i := range n {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

func (r *Runner) result(ctx context.Context, spec RunSpec) (*sim.Result, error) {
	key := spec.key()
	return r.runs.do(key, func() (*sim.Result, error) {
		// Persistent layer first: a result proven in a past process is
		// served without simulating, flagged so callers can tell.
		if r.cfg.Cache != nil {
			if res, ok := r.cfg.Cache.Get(r.cfg.CacheKey(spec)); ok {
				res.CacheHit = true
				r.statMu.Lock()
				r.timing.CacheHits++
				r.statMu.Unlock()
				return res, nil
			}
			r.statMu.Lock()
			r.timing.CacheMisses++
			r.statMu.Unlock()
		}
		res, err := r.run(ctx, spec, key)
		if err == nil && r.cfg.Cache != nil {
			err = r.cfg.Cache.Put(r.cfg.CacheKey(spec), res)
		}
		return res, err
	})
}

// run dispatches one cache-missed run: remotely through cfg.Exec when
// wired (falling back to local execution if the whole pool is
// unavailable), locally otherwise.
func (r *Runner) run(ctx context.Context, spec RunSpec, key runKey) (*sim.Result, error) {
	if r.cfg.Tier && spec.Oracle {
		if an, err := r.Analysis(spec.Workload, spec.Cores); err == nil && an.ProvenDRF() {
			// Soundness makes the oracle redundant on a proven-DRF trace:
			// both conflict sets are provably empty and golden mirroring
			// is timing-neutral, so an unchecked run differs only in the
			// OracleChecked flag. Route the unchecked spec back through
			// result() so it shares the memo and cache with performance
			// runs — and, when Exec is wired, skips the oracle fleet-wide.
			unchecked := spec
			unchecked.Oracle = false
			res, err := r.result(ctx, unchecked)
			if err != nil {
				return nil, err
			}
			cp := *res
			cp.OracleChecked = true
			r.statMu.Lock()
			r.timing.OracleSkips++
			r.statMu.Unlock()
			return &cp, nil
		}
	}
	if r.cfg.Exec != nil {
		start := time.Now()
		res, err := r.cfg.Exec(ctx, spec)
		switch {
		case err == nil:
			r.statMu.Lock()
			r.timing.RemoteRuns++
			r.timing.RemoteTime += time.Since(start)
			r.statMu.Unlock()
			if r.cfg.Progress != nil {
				r.progressMu.Lock()
				fmt.Fprintf(r.cfg.Progress, "  remote %-14s %-10s %2d cores: %12d cycles, %d conflicts (%v)\n",
					spec.Workload, spec.Proto, spec.Cores, res.Cycles, res.Conflicts,
					time.Since(start).Round(time.Millisecond))
				r.progressMu.Unlock()
			}
			return res, nil
		case errors.Is(err, ErrRemoteUnavailable):
			if r.cfg.Progress != nil {
				r.progressMu.Lock()
				fmt.Fprintf(r.cfg.Progress, "  remote pool unavailable, running %s locally: %v\n", key, err)
				r.progressMu.Unlock()
			}
		default:
			return nil, err
		}
	}
	return r.execute(ctx, key)
}

// trace returns the memoized trace of the named workload at the given
// core count, generating it on first use. The returned trace is shared
// and must be treated as immutable (the simulator only reads it).
func (r *Runner) trace(wl string, cores int) (*trace.Trace, error) {
	return r.traces.do(traceKey{wl, cores}, func() (*trace.Trace, error) {
		gen, ok := workload.Generator(wl)
		if !ok {
			return nil, fmt.Errorf("bench: unknown workload %q", wl)
		}
		return gen(workload.Params{Threads: cores, Seed: r.cfg.Seed, Scale: r.cfg.Scale}), nil
	})
}

// Analysis returns the memoized static analysis of the named workload's
// trace at the given core count — under one runner a trace identity is
// (workload, cores), since scale and seed are fixed by the config. The
// analyzer executes at most once per identity regardless of how many
// tiered runs consult it.
func (r *Runner) Analysis(wl string, cores int) (*static.Analysis, error) {
	return r.analyses.do(traceKey{wl, cores}, func() (*static.Analysis, error) {
		start := time.Now()
		var an *static.Analysis
		tr, err := r.trace(wl, cores)
		if err == nil {
			an, err = static.Analyze(tr)
		}
		r.statMu.Lock()
		r.timing.AnalysisRuns++
		r.timing.AnalysisTime += time.Since(start)
		r.statMu.Unlock()
		return an, err
	})
}

// WitnessReport returns the memoized witness classification of the
// named workload's trace at the given core count (see
// internal/static/witness): every predicted conflict is confirmed with
// a replayable directed schedule, refuted by acquisition-history
// reasoning, or left unwitnessed within the default budget. Unlike
// Analysis, an examination costs simulations (one baseline plus the
// directed replays), so the memo matters: however many experiments and
// views consult a trace identity, it is examined once. The examination
// runs up to cfg.Jobs directed replays at once on the Runner's pool; its
// report is the same at every Jobs.
func (r *Runner) WitnessReport(wl string, cores int) (*witness.Report, error) {
	return r.witnesses.do(traceKey{wl, cores}, func() (*witness.Report, error) {
		start := time.Now()
		var rep *witness.Report
		tr, err := r.trace(wl, cores)
		if err == nil {
			var an *static.Analysis
			if an, err = r.Analysis(wl, cores); err == nil {
				rep, err = witness.Examine(tr, an, witness.Options{Jobs: r.cfg.Jobs, Pool: r.pool})
			}
		}
		r.statMu.Lock()
		r.timing.WitnessRuns++
		r.timing.WitnessTime += time.Since(start)
		if rep != nil {
			r.timing.WitnessReplays += rep.Replays
		}
		r.statMu.Unlock()
		return rep, err
	})
}

// execute performs one simulation (no memo interaction).
func (r *Runner) execute(ctx context.Context, key runKey) (*sim.Result, error) {
	wl, proto, cores := key.workload, key.proto, key.cores
	tr, err := r.trace(wl, cores)
	if err != nil {
		return nil, err
	}

	mcfg := machine.Default(cores)
	if key.aim > 0 {
		mcfg.AIM.Entries = key.aim
	}
	// Tiered engine dispatch: a trace whose barrier phases the planner
	// proves disjoint simulates phase-parallel; everything else (and
	// every run with tiering off) takes the straight-line engine. Both
	// paths produce byte-identical results — see sim.PlanPhases.
	var plan *sim.PhasePlan
	if r.cfg.Tier {
		if an, aerr := r.Analysis(wl, cores); aerr == nil {
			plan = sim.PlanPhases(an, tr, mcfg)
		}
	}
	start := time.Now()
	var res *sim.Result
	if plan != nil {
		res, err = sim.RunPhased(ctx, func() (*machine.Machine, machine.Protocol, error) {
			return protocols.Build(proto, mcfg)
		}, tr, plan, sim.Options{CheckWithOracle: key.oracle})
		if err == nil {
			r.statMu.Lock()
			r.timing.PhaseParRuns++
			r.statMu.Unlock()
		}
	} else {
		m, p, berr := r.pool.Get(proto, mcfg)
		if berr != nil {
			return nil, berr
		}
		res, err = sim.RunContext(ctx, m, p, tr, sim.Options{CheckWithOracle: key.oracle})
		r.pool.Put(proto, m, p)
	}
	elapsed := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("bench: %s/%s/%d: %w", wl, proto, cores, err)
	}
	r.record(key.String(), elapsed)
	if r.cfg.Progress != nil {
		r.progressMu.Lock()
		fmt.Fprintf(r.cfg.Progress, "  ran %-14s %-10s %2d cores: %12d cycles, %d conflicts (%v)\n",
			wl, proto, cores, res.Cycles, res.Conflicts, elapsed.Round(time.Millisecond))
		r.progressMu.Unlock()
	}
	return res, nil
}

// Normalized returns proto's metric divided by the MESI baseline's for
// the same workload and core count.
func (r *Runner) Normalized(wl, proto string, cores int, metric func(*sim.Result) float64) (float64, error) {
	base, err := r.Result(wl, protocols.MESI, cores, 0)
	if err != nil {
		return 0, err
	}
	res, err := r.Result(wl, proto, cores, 0)
	if err != nil {
		return 0, err
	}
	b := metric(base)
	if b == 0 {
		return 0, fmt.Errorf("bench: zero baseline metric for %s@%d", wl, cores)
	}
	return metric(res) / b, nil
}

// Metric selectors shared by the experiments.
var (
	MetricCycles  = func(r *sim.Result) float64 { return float64(r.Cycles) }
	MetricFlitHop = func(r *sim.Result) float64 { return float64(r.NoC.FlitHops) }
	MetricOffChip = func(r *sim.Result) float64 { return float64(r.DRAM.Bytes()) }
	MetricEnergy  = func(r *sim.Result) float64 { return r.TotalEnergyPJ }
)

// Check is one qualitative shape assertion tied to a paper claim.
type Check struct {
	Desc   string
	Pass   bool
	Detail string
}

// Output is one experiment's rendered artifact.
type Output struct {
	ID    string
	Title string
	// Claim cites the abstract's statement the experiment exercises.
	Claim  string
	Body   string
	Checks []Check
}

// Render produces the full text form including check outcomes.
func (o *Output) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", o.ID, o.Title)
	if o.Claim != "" {
		fmt.Fprintf(&b, "Paper claim: %s\n", o.Claim)
	}
	b.WriteByte('\n')
	b.WriteString(o.Body)
	if len(o.Checks) > 0 {
		b.WriteString("\nShape checks:\n")
		for _, c := range o.Checks {
			status := "PASS"
			if !c.Pass {
				status = "FAIL"
			}
			fmt.Fprintf(&b, "  [%s] %s", status, c.Desc)
			if c.Detail != "" {
				fmt.Fprintf(&b, " (%s)", c.Detail)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Passed reports whether every shape check passed.
func (o *Output) Passed() bool {
	for _, c := range o.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// Experiment is one regenerable paper artifact.
type Experiment struct {
	ID    string
	Title string
	// Plan declares every simulation Run will request from the Runner,
	// so the harness can prefetch the union of all selected
	// experiments' runs through the worker pool before the in-order
	// render pass. A nil Plan means the experiment requests no runs
	// through the Runner: T1, T2 and SCHED simulate nothing, and CONF,
	// STAT and WIT time or generate their own runs. R1 and TIER plan
	// only the F1 runs they reuse; R1's other seeds and TIER's timed
	// runs execute outside the memo, on pooled machines.
	Plan func(cfg Config) []RunSpec
	Run  func(*Runner) (*Output, error)
}

// All returns the experiments in the order of the index in DESIGN.md.
func All() []Experiment {
	return []Experiment{
		{ID: "T1", Title: "Simulated system parameters", Run: runT1},
		{ID: "T2", Title: "Workload characteristics", Run: runT2},
		{ID: "F1", Title: "Execution time normalized to MESI (per workload)", Plan: planF1, Run: runF1},
		{ID: "F2", Title: "Scalability: geomean normalized runtime vs core count", Plan: planF2, Run: runF2},
		{ID: "F3", Title: "On-chip interconnect traffic normalized to MESI", Plan: planF3, Run: runF3},
		{ID: "F4", Title: "Off-chip memory traffic normalized to MESI", Plan: planF4, Run: runF4},
		{ID: "F5", Title: "Energy normalized to MESI (with component breakdown)", Plan: planF5, Run: runF5},
		{ID: "F6", Title: "AIM capacity sensitivity", Plan: planF6, Run: runF6},
		{ID: "F7", Title: "NoC saturation vs core count", Plan: planF7, Run: runF7},
		{ID: "F8", Title: "Access latency distribution", Plan: planF8, Run: runF8},
		{ID: "T3", Title: "Conflicts detected on racy workloads", Plan: planT3, Run: runT3},
		{ID: "A1", Title: "ARC ablation: line classification", Plan: planA1, Run: runA1},
		{ID: "A2", Title: "Coherence substrate: MESI vs MOESI", Plan: planA2, Run: runA2},
		{ID: "A3", Title: "Metadata granularity: byte vs word", Plan: planA3, Run: runA3},
		{ID: "R1", Title: "Seed robustness", Plan: planR1, Run: runR1},
		{ID: "CONF", Title: "Differential conformance of the conflict-detection designs", Run: runConformance},
		{ID: "STAT", Title: "Static region-conflict analysis: precision and speed", Run: runStatic},
		{ID: "WIT", Title: "Witness-directed precision: confirm or refute predicted conflicts", Run: runWitness},
		{ID: "TIER", Title: "Analyze-first tiered execution: short-circuit and phase-parallel speedups", Plan: planTier, Run: runTier},
		{ID: "SCHED", Title: "Cost-model scheduling vs round-robin on the daemon fleet", Run: runSched},
	}
}

// PlanAll collects the union of the run sets of experiments (duplicates
// included; the memo collapses them).
func PlanAll(cfg Config, experiments []Experiment) []RunSpec {
	cfg = cfg.normalized()
	var specs []RunSpec
	for _, e := range experiments {
		if e.Plan != nil {
			specs = append(specs, e.Plan(cfg)...)
		}
	}
	return specs
}

// ByID finds an experiment by ID (case-insensitive). "conformance",
// "static", and "tiered" are accepted as spelled-out aliases for CONF,
// STAT, and TIER.
func ByID(id string) (Experiment, bool) {
	if strings.EqualFold(id, "conformance") {
		id = "CONF"
	}
	if strings.EqualFold(id, "static") {
		id = "STAT"
	}
	if strings.EqualFold(id, "tiered") {
		id = "TIER"
	}
	if strings.EqualFold(id, "witness") {
		id = "WIT"
	}
	if strings.EqualFold(id, "sched") || strings.EqualFold(id, "scheduler") {
		id = "SCHED"
	}
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}
