package bench

import (
	"context"
	"strings"
	"sync"
	"testing"

	"arcsim/internal/protocols"
)

// quickCfg keeps unit-test experiments fast; the full-scale shape test
// below uses the real defaults.
func quickCfg() Config {
	return Config{Scale: 0.03, Seed: 1, Cores: 4, CoreSweep: []int{2, 4}}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 20 {
		t.Fatalf("experiments = %d, want 20", len(all))
	}
	ids := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Errorf("duplicate ID %s", e.ID)
		}
		ids[e.ID] = true
	}
	if _, ok := ByID("f1"); !ok {
		t.Error("ByID not case-insensitive")
	}
	if _, ok := ByID("F99"); ok {
		t.Error("phantom experiment found")
	}
	if e, ok := ByID("conformance"); !ok || e.ID != "CONF" {
		t.Error("conformance alias does not resolve to CONF")
	}
	if e, ok := ByID("static"); !ok || e.ID != "STAT" {
		t.Error("static alias does not resolve to STAT")
	}
	if e, ok := ByID("tiered"); !ok || e.ID != "TIER" {
		t.Error("tiered alias does not resolve to TIER")
	}
}

func TestRunnerMemoization(t *testing.T) {
	r := NewRunner(quickCfg())
	a, err := r.Result("dedup", protocols.MESI, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Result("dedup", protocols.MESI, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second run not memoized")
	}
	c, err := r.Result("dedup", protocols.MESI, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different core count hit the memo")
	}
}

// TestOracleDistinguishedInMemo is the regression test for the memo key
// omitting the oracle flag: a CheckedResult after a Result for the same
// configuration must actually run the golden-oracle cross-check instead
// of returning the memoized unchecked run (which silently skipped T3's
// verification entirely).
func TestOracleDistinguishedInMemo(t *testing.T) {
	r := NewRunner(quickCfg())
	plain, err := r.Result("racy-single", protocols.CE, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := r.CheckedResult("racy-single", protocols.CE, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plain == checked {
		t.Fatal("CheckedResult returned the memoized unchecked run; the oracle was skipped")
	}
	if plain.OracleChecked {
		t.Error("plain Result ran the oracle")
	}
	if !checked.OracleChecked {
		t.Error("CheckedResult did not run the oracle")
	}
	// Each variant memoizes under its own key.
	if again, _ := r.CheckedResult("racy-single", protocols.CE, 4, 0); again != checked {
		t.Error("checked run not memoized")
	}
	if again, _ := r.Result("racy-single", protocols.CE, 4, 0); again != plain {
		t.Error("unchecked run not memoized")
	}
}

// TestSingleflightCollapsesDuplicates floods the worker pool with one
// spec; the in-flight map must execute it exactly once.
func TestSingleflightCollapsesDuplicates(t *testing.T) {
	cfg := quickCfg()
	cfg.Jobs = 8
	r := NewRunner(cfg)
	specs := make([]RunSpec, 32)
	for i := range specs {
		specs[i] = RunSpec{Workload: "dedup", Proto: protocols.MESI, Cores: 4}
	}
	r.Prefetch(specs)
	if got := r.Timing().Runs; got != 1 {
		t.Errorf("32 duplicate specs executed %d simulations, want 1", got)
	}
}

// TestPlanCoversRun prefetches each experiment's declared plan and then
// runs it: the render pass must be fully satisfied from the memo (no new
// simulations), proving Plan and Run stay in sync. Experiments with nil
// plans must not touch the memo at all.
func TestPlanCoversRun(t *testing.T) {
	memoSize := func(r *Runner) int {
		r.runs.mu.Lock()
		defer r.runs.mu.Unlock()
		return len(r.runs.flights)
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			r := NewRunner(quickCfg())
			if e.Plan != nil {
				r.Prefetch(e.Plan(r.Cfg()))
			}
			planned := memoSize(r)
			if _, err := e.Run(r); err != nil {
				t.Fatal(err)
			}
			if after := memoSize(r); after != planned {
				t.Errorf("Plan missed %d of %d runs", after-planned, after)
			}
		})
	}
}

// TestParallelHarnessDeterminism fires every experiment through one
// shared Runner from concurrent goroutines (after a parallel prefetch)
// and requires the rendered artifacts to be byte-identical to a fully
// serial harness — under -race this catches both data races and
// nondeterminism.
func TestParallelHarnessDeterminism(t *testing.T) {
	serialCfg := quickCfg()
	serialCfg.Jobs = 1
	serial := NewRunner(serialCfg)
	want := map[string]string{}
	for _, e := range All() {
		// STAT's, TIER's, and WIT's artifacts report measured wall-clock
		// timings (that is those experiments' point), so byte-identity
		// cannot hold for them; their verdict and byte-identity columns
		// are deterministic and covered by TestStaticExperiment,
		// TestTierExperiment, and TestWitnessExperiment.
		if e.ID == "STAT" || e.ID == "TIER" || e.ID == "WIT" {
			continue
		}
		out, err := e.Run(serial)
		if err != nil {
			t.Fatalf("serial %s: %v", e.ID, err)
		}
		want[e.ID] = out.Render()
	}

	parCfg := quickCfg()
	parCfg.Jobs = 8
	shared := NewRunner(parCfg)
	shared.Prefetch(PlanAll(parCfg, All()))
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		got = map[string]string{}
	)
	for _, e := range All() {
		if e.ID == "STAT" || e.ID == "TIER" || e.ID == "WIT" {
			continue
		}
		e := e
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := e.Run(shared)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				got[e.ID] = "error: " + err.Error()
				return
			}
			got[e.ID] = out.Render()
		}()
	}
	wg.Wait()
	for id, w := range want {
		if got[id] != w {
			t.Errorf("%s: parallel artifact differs from serial run\nserial:\n%s\nparallel:\n%s", id, w, got[id])
		}
	}
}

func TestRunnerUnknownWorkload(t *testing.T) {
	r := NewRunner(quickCfg())
	if _, err := r.Result("nope", protocols.MESI, 4, 0); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestNormalizedBaselineIsOne(t *testing.T) {
	r := NewRunner(quickCfg())
	v, err := r.Normalized("dedup", protocols.MESI, 4, MetricCycles)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1.0 {
		t.Errorf("MESI normalized to itself = %f", v)
	}
}

func TestEveryExperimentRuns(t *testing.T) {
	r := NewRunner(quickCfg())
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run(r)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if out.ID != e.ID {
				t.Errorf("output ID %q", out.ID)
			}
			body := out.Render()
			if !strings.Contains(body, e.ID) || len(body) < 100 {
				t.Errorf("thin output:\n%s", body)
			}
		})
	}
}

func TestOutputRender(t *testing.T) {
	o := &Output{
		ID: "X1", Title: "test", Claim: "claimed",
		Body: "body\n",
		Checks: []Check{
			{Desc: "good", Pass: true},
			{Desc: "bad", Pass: false, Detail: "numbers"},
		},
	}
	s := o.Render()
	for _, want := range []string{"X1", "claimed", "body", "[PASS] good", "[FAIL] bad", "(numbers)"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
	if o.Passed() {
		t.Error("Passed() with a failing check")
	}
}

// TestStaticExperiment pins STAT's deterministic content — verdicts,
// soundness, and precision — at the quick scale. Its timing check (the
// ≥2x geomean speedup) is only meaningful at the standard scale, where
// TestShapeChecksFullScale asserts it; millisecond-scale quick runs are
// dominated by fixed costs.
func TestStaticExperiment(t *testing.T) {
	e, ok := ByID("STAT")
	if !ok {
		t.Fatal("STAT not registered")
	}
	out, err := e.Run(NewRunner(quickCfg()))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range out.Checks {
		if strings.Contains(c.Desc, "faster") {
			continue
		}
		if !c.Pass {
			t.Errorf("FAIL %s (%s)", c.Desc, c.Detail)
		}
	}
	for _, want := range []string{"proven-DRF", "may-conflict", "racy-counter"} {
		if !strings.Contains(out.Body, want) {
			t.Errorf("missing %q in STAT body", want)
		}
	}
}

// TestTierExperiment pins TIER's deterministic content — verdicts and
// the two byte-identity properties — at the quick scale. Like STAT, its
// timing checks (the geomean speedups) are only meaningful at the
// standard scale, where TestShapeChecksFullScale asserts them.
func TestTierExperiment(t *testing.T) {
	e, ok := ByID("TIER")
	if !ok {
		t.Fatal("TIER not registered")
	}
	out, err := e.Run(NewRunner(quickCfg()))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range out.Checks {
		if strings.Contains(c.Desc, "speedup") {
			continue
		}
		if !c.Pass {
			t.Errorf("FAIL %s (%s)", c.Desc, c.Detail)
		}
	}
	for _, want := range []string{"proven-DRF", "identical", "phasedisjoint"} {
		if !strings.Contains(out.Body, want) {
			t.Errorf("missing %q in TIER body", want)
		}
	}
	if strings.Contains(out.Body, "DIFFER") {
		t.Error("TIER body reports a byte-identity violation")
	}
}

// TestWitnessExperiment pins WIT's deterministic content — the
// classification precision and the acquisition-history refutations — at
// the quick scale. Its cost-fit check compares estimates against
// measured wall-clock simulation times, which millisecond-scale quick
// runs render noisy; TestShapeChecksFullScale asserts it at the
// standard scale.
func TestWitnessExperiment(t *testing.T) {
	e, ok := ByID("WIT")
	if !ok {
		t.Fatal("WIT not registered")
	}
	out, err := e.Run(NewRunner(quickCfg()))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range out.Checks {
		if strings.Contains(c.Desc, "fit measured cost") {
			continue
		}
		if !c.Pass {
			t.Errorf("FAIL %s (%s)", c.Desc, c.Detail)
		}
	}
	for _, want := range []string{"refuted-DRF", "may-conflict", "racy", "ah-refuted/64"} {
		if !strings.Contains(out.Body, want) {
			t.Errorf("missing %q in WIT body", want)
		}
	}
	if strings.Contains(out.Body, "ERROR") {
		t.Error("WIT body reports an examination error")
	}
}

// TestTieredRunnerByteIdentity proves the tiered Runner end-to-end: with
// Tier on, oracle-checked requests on proven-DRF workloads short-circuit
// (OracleSkips) and eligible traces run phase-parallel (PhaseParRuns),
// yet every result equals the untiered runner's byte-for-byte.
func TestTieredRunnerByteIdentity(t *testing.T) {
	cfg := quickCfg()
	plain := NewRunner(cfg)
	cfg.Tier = true
	tiered := NewRunner(cfg)

	specs := []RunSpec{
		{Workload: "phasedisjoint", Proto: protocols.ARC, Cores: cfg.Cores},
		{Workload: "phasedisjoint", Proto: protocols.CEPlus, Cores: cfg.Cores},
		{Workload: "dedup", Proto: protocols.ARC, Cores: cfg.Cores, Oracle: true},
		{Workload: "racy-counter", Proto: protocols.CE, Cores: cfg.Cores, Oracle: true},
	}
	for _, s := range specs {
		want, err := plain.SpecResult(context.Background(), s)
		if err != nil {
			t.Fatalf("plain %v: %v", s, err)
		}
		got, err := tiered.SpecResult(context.Background(), s)
		if err != nil {
			t.Fatalf("tiered %v: %v", s, err)
		}
		if !jsonEqual(want, got) {
			t.Errorf("%v: tiered result differs from straight-line", s)
		}
	}
	tm := tiered.Timing()
	if tm.OracleSkips != 1 {
		t.Errorf("OracleSkips = %d, want 1 (dedup only; racy-counter is not proven DRF)", tm.OracleSkips)
	}
	if tm.PhaseParRuns != 2 {
		t.Errorf("PhaseParRuns = %d, want 2", tm.PhaseParRuns)
	}
	if tm.AnalysisRuns == 0 {
		t.Error("tier consulted no analyses")
	}
	if pt := plain.Timing(); pt.OracleSkips != 0 || pt.PhaseParRuns != 0 || pt.AnalysisRuns != 0 {
		t.Errorf("untiered runner used the tier: %+v", pt)
	}
}

// TestShapeChecksFullScale regenerates the entire evaluation at the
// standard harness scale and requires every paper-shape check to pass —
// the repository's reproduction statement, enforced in CI.
func TestShapeChecksFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale regeneration (~10s); run without -short")
	}
	r := NewRunner(Config{})
	_, outs, err := RunAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(All()) {
		t.Fatalf("ran %d experiments", len(outs))
	}
	for _, o := range outs {
		for _, c := range o.Checks {
			if !c.Pass {
				t.Errorf("%s: FAIL %s (%s)", o.ID, c.Desc, c.Detail)
			}
		}
	}
}
