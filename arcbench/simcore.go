package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"time"

	"arcsim/internal/machine"
	"arcsim/internal/protocols"
	"arcsim/internal/sim"
	"arcsim/internal/trace"
	"arcsim/internal/workload"
)

// The sim-core matrix. The workloads span private-heavy access
// (blackscholes), lock-heavy access (fluidanimate), a footprint larger
// than the LLC (canneal), migratory sharing (x264) and conflict logging
// (racy-sharing); every design runs each at a small and a large core
// count.
var (
	simCoreWorkloads = []string{"blackscholes", "fluidanimate", "canneal", "x264", "racy-sharing"}
	simCoreCores     = []int{16, 64}
	simCoreScale     = 0.25
)

type pairKey struct {
	name  string // design or workload
	cores int
}

type pair struct {
	m *machine.Machine
	p machine.Protocol
}

// simCoreState is what set-up builds: decoded traces and one pooled
// machine+protocol pair per design and core count.
type simCoreState struct {
	traces map[pairKey]*trace.Trace // by (workload, cores)
	pairs  map[pairKey]pair         // by (design, cores)

	genTime, encTime, decTime time.Duration
	genEvents, codecBytes     int
	buildTime                 time.Duration
}

// simRun is one cell of the matrix.
type simRun struct {
	workload, design string
	cores            int
}

func (c simRun) String() string { return fmt.Sprintf("%s/%s/%d", c.workload, c.design, c.cores) }

// simCore drives sim.RunContext straight-line, one goroutine, over the
// matrix in a seeded order, resetting the cell's pooled pair before
// every run — the engine loop, the protocol engines and the
// cache/NoC/DRAM/AIM models with no harness, analysis or service around
// them.
func simCore(r *run) error {
	st, err := setups(r, 5, func() (*simCoreState, error) { return simCoreSetup(r) })
	if err != nil {
		return err
	}
	var cells []simRun
	for _, wl := range simCoreWorkloads {
		for _, d := range protocols.Names() {
			for _, c := range simCoreCores {
				cells = append(cells, simRun{wl, d, c})
			}
		}
	}
	rng := rand.New(rand.NewSource(r.seed))

	p := r.simPasses(st, cells, rng)
	wall := median(p.passWall)
	r.e2e["sweep_wall_s"] = metric{wall, "s"}
	r.e2e["sim_events_per_s"] = metric{float64(p.events) / float64(len(p.passWall)) / wall, "1/s"}
	r.e2e["jobs_per_s"] = metric{float64(len(cells)) / wall, "1/s"}
	// The request is one pass over the matrix, as a sweep is on
	// paper-sweep: single runs cluster by core count, so their median
	// would sit on the gap between the clusters.
	var passMS []float64
	for _, w := range p.passWall {
		passMS = append(passMS, w*1000)
	}
	r.latencies(passMS)
	r.perUnit(p.use)
	r.simPassChecks(p)
	for _, d := range protocols.Names() {
		c := simRun{simCoreWorkloads[rng.Intn(len(simCoreWorkloads))], d, simCoreCores[0]}
		m, proto, err := protocols.Build(d, machine.Default(c.cores))
		if err != nil {
			return err
		}
		fresh, err := sim.RunContext(context.Background(), m, proto, st.traces[pairKey{c.workload, c.cores}], sim.Options{})
		r.check(err == nil && sameJSON(fresh, p.first[c]), "sim-core: %s: pooled run differs from a freshly built pair (err %v)", c, err)
	}

	if !r.traced {
		return nil
	}
	var tp simPassStats
	if err := r.tracedPass(func() error {
		tp = r.simPasses(st, cells, rng)
		return r.heapProfile()
	}); err != nil {
		return err
	}
	r.simPassChecks(tp)
	r.overhead(wall, median(tp.passWall))
	r.simCoreLayers(st, tp)
	return nil
}

// simCoreSetup generates every trace, round-trips it through the trace
// codec (the `arcsim -trace` path: the matrix simulates the decoded
// copies), and builds one pair per design and core count.
func simCoreSetup(r *run) (*simCoreState, error) {
	st := &simCoreState{traces: map[pairKey]*trace.Trace{}, pairs: map[pairKey]pair{}}
	for _, wl := range simCoreWorkloads {
		spec, ok := workload.ByName(wl)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", wl)
		}
		for _, c := range simCoreCores {
			t0 := time.Now()
			tr := spec.Build(workload.Params{Threads: c, Seed: 1, Scale: simCoreScale})
			t1 := time.Now()
			var buf bytes.Buffer
			if err := trace.WriteTo(&buf, tr); err != nil {
				return nil, fmt.Errorf("encode %s/%d: %w", wl, c, err)
			}
			t2 := time.Now()
			n := buf.Len()
			dec, err := trace.ReadFrom(&buf)
			if err != nil {
				return nil, fmt.Errorf("decode %s/%d: %w", wl, c, err)
			}
			t3 := time.Now()
			r.check(reflect.DeepEqual(tr, dec), "sim-core: trace codec round trip of %s/%d changed the trace", wl, c)
			st.genTime += t1.Sub(t0)
			st.encTime += t2.Sub(t1)
			st.decTime += t3.Sub(t2)
			st.genEvents += tr.Events()
			st.codecBytes += n
			st.traces[pairKey{wl, c}] = dec
		}
	}
	for _, d := range protocols.Names() {
		for _, c := range simCoreCores {
			t0 := time.Now()
			m, p, err := protocols.Build(d, machine.Default(c))
			if err != nil {
				return nil, err
			}
			st.buildTime += time.Since(t0)
			if _, ok := p.(interface{ Reset() }); !ok {
				return nil, fmt.Errorf("design %s has no Reset: pairs cannot be pooled", d)
			}
			st.pairs[pairKey{d, c}] = pair{m, p}
		}
	}
	return st, nil
}

// simPassStats is what the timed passes measured.
type simPassStats struct {
	passWall   []float64 // seconds of reset+run per pass
	use        []usage   // per pass
	reset      time.Duration
	events     uint64
	accesses   uint64
	runs       int
	byDesign   map[string]time.Duration
	evDesign   map[string]uint64
	first      map[simRun]*sim.Result // the first pass's results
	diffs      []string               // failed runs and results that differ from the first pass
	mismatches int                    // results that differ from the first pass
}

// simPasses runs whole passes over the matrix, each in a fresh seeded
// order, until the pass time is spent (at least one pass). Only reset and
// run are timed; comparing results happens after each pass.
func (r *run) simPasses(st *simCoreState, cells []simRun, rng *rand.Rand) simPassStats {
	ps := simPassStats{byDesign: map[string]time.Duration{}, evDesign: map[string]uint64{}, first: map[simRun]*sim.Result{}}
	ctx := context.Background()
	results := make([]*sim.Result, len(cells))
	start := time.Now()
	for len(ps.passWall) == 0 || time.Since(start) < r.seconds {
		order := append([]simRun(nil), cells...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		root := r.tr.begin("sim-core.pass", 0)
		var pass time.Duration
		ps.use = append(ps.use, measure(func() {
			for i, c := range order {
				pr := st.pairs[pairKey{c.design, c.cores}]
				sp := r.tr.begin("machine.reset", root)
				t0 := time.Now()
				pr.m.Reset()
				pr.p.(interface{ Reset() }).Reset()
				t1 := time.Now()
				r.tr.end(sp)
				sp = r.tr.begin("sim.run."+c.design, root)
				res, err := sim.RunContext(ctx, pr.m, pr.p, st.traces[pairKey{c.workload, c.cores}], sim.Options{})
				t2 := time.Now()
				r.tr.end(sp)
				results[i] = res
				if err != nil {
					ps.diffs = append(ps.diffs, fmt.Sprintf("%s: %v", c, err))
					continue
				}
				pass += t2.Sub(t0)
				ps.reset += t1.Sub(t0)
				ps.byDesign[c.design] += t2.Sub(t1)
				ps.evDesign[c.design] += res.Events
				ps.events += res.Events
				ps.accesses += res.MemAccesses
				ps.runs++
			}
		}))
		r.tr.end(root)
		ps.passWall = append(ps.passWall, pass.Seconds())
		// Untimed: every result must repeat the first pass's exactly.
		for i, c := range order {
			res := results[i]
			if res == nil {
				continue
			}
			if prev, ok := ps.first[c]; !ok {
				ps.first[c] = res
			} else if !sameJSON(prev, res) {
				ps.mismatches++
				ps.diffs = append(ps.diffs, fmt.Sprintf("%s: result differs between passes", c))
			}
		}
	}
	return ps
}

// simPassChecks counts a pass's runs as attempts and its failed runs and
// non-repeating results as failures.
func (r *run) simPassChecks(p simPassStats) {
	r.attempted += p.runs - p.mismatches
	for _, d := range p.diffs {
		r.check(false, "sim-core: %s", d)
	}
}

// simCoreLayers records the traced pass's per-layer figures and the
// modelled counts of one pass over the matrix (simulated, not host
// time: they repeat exactly).
func (r *run) simCoreLayers(st *simCoreState, p simPassStats) {
	r.layer["machine.build_ms"] = metric{ms(st.buildTime) / float64(len(st.pairs)), "ms"}
	r.layer["machine.reset_ms"] = metric{ms(p.reset) / float64(p.runs), "ms"}
	for _, d := range protocols.Names() {
		r.layer["sim."+designName(d)+"_ns_per_event"] = metric{float64(p.byDesign[d].Nanoseconds()) / float64(p.evDesign[d]), "ns"}
	}
	passes := float64(len(p.passWall))
	r.layer["sim.events"] = metric{float64(p.events) / passes, "count"}
	r.layer["sim.mem_accesses"] = metric{float64(p.accesses) / passes, "count"}
	r.layer["workload.gen_ms_per_kevent"] = metric{ms(st.genTime) / (float64(st.genEvents) / 1000), "ms"}
	r.layer["trace.encode_mb_per_s"] = metric{float64(st.codecBytes) / (1 << 20) / st.encTime.Seconds(), "MB/s"}
	r.layer["trace.decode_mb_per_s"] = metric{float64(st.codecBytes) / (1 << 20) / st.decTime.Seconds(), "MB/s"}

	counts := map[string]float64{}
	for _, res := range p.first {
		d := designName(res.Protocol)
		counts["sim.cycles."+d] += float64(res.Cycles)
		counts["noc.flit_hops."+d] += float64(res.NoC.FlitHops)
		counts["dram.bytes."+d] += float64(res.DRAM.Bytes())
		counts["cache.l1_misses"] += float64(res.L1.Misses)
		counts["cache.llc_misses"] += float64(res.LLC.Misses)
		counts["aim.misses"] += float64(res.AIM.Misses)
		counts["noc.queue_cycles"] += float64(res.NoC.QueueCycles)
	}
	for k, v := range counts {
		unit := "count"
		if strings.HasPrefix(k, "dram.bytes.") {
			unit = "B"
		}
		r.layer[k] = metric{v, unit}
	}
}

// designName makes a design name safe for a metric name ("ce+" → "ceplus").
func designName(d string) string { return strings.ReplaceAll(d, "+", "plus") }

// sameJSON compares two results by their canonical encoding (the bytes
// the store persists and the daemon serves).
func sameJSON(a, b *sim.Result) bool {
	if a == nil || b == nil {
		return false
	}
	ja, err1 := json.Marshal(a)
	jb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(ja, jb)
}
