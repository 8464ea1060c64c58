package bench

import (
	"fmt"
	"strings"

	"arcsim/internal/machine"
	"arcsim/internal/protocols"
	"arcsim/internal/sim"
	"arcsim/internal/stats"
	"arcsim/internal/trace"
	"arcsim/internal/workload"
)

// suiteNames returns the DRF workload names in catalog order.
func suiteNames() []string {
	var names []string
	for _, s := range workload.Suite() {
		names = append(names, s.Name)
	}
	return names
}

// crossSpecs enumerates the wls × protos × coreCounts cross product
// (design-default AIM, no oracle) — the run-set shape of most figures.
func crossSpecs(wls, protos []string, coreCounts ...int) []RunSpec {
	specs := make([]RunSpec, 0, len(wls)*len(protos)*len(coreCounts))
	for _, cores := range coreCounts {
		for _, wl := range wls {
			for _, p := range protos {
				specs = append(specs, RunSpec{Workload: wl, Proto: p, Cores: cores})
			}
		}
	}
	return specs
}

// ---------------------------------------------------------------------------
// T1: system parameters.

func runT1(r *Runner) (*Output, error) {
	cfg := machine.Default(r.cfg.Cores)
	t := stats.NewTable("Table T1: simulated system parameters", "component", "value")
	w, h := 0, 0
	{
		// Mesh dims for the reference core count.
		side := 1
		for side*side < cfg.Cores {
			side++
		}
		w, h = side, (cfg.Cores+side-1)/side
	}
	rows := [][2]string{
		{"cores", fmt.Sprintf("%v (figures at %d)", r.cfg.CoreSweep, r.cfg.Cores)},
		{"L1 (private)", fmt.Sprintf("%d KB, %d-way, %d-cycle, 64 B lines", cfg.L1SizeBytes>>10, cfg.L1Ways, cfg.L1Latency)},
		{"LLC (shared)", fmt.Sprintf("%d MB/tile slice, %d-way, %d-cycle, address-interleaved", cfg.LLCSliceBytes>>20, cfg.LLCWays, cfg.LLCLatency)},
		{"AIM (CE+/ARC)", fmt.Sprintf("%d entries total, %d-way, %d-cycle, %d B/record", cfg.AIM.Entries, cfg.AIM.Ways, cfg.AIM.Latency, 16)},
		{"interconnect", fmt.Sprintf("%dx%d mesh, XY routing, %d B flits, %d-cycle hops", w, h, cfg.NoC.FlitBytes, cfg.NoC.HopLatency)},
		{"memory", fmt.Sprintf("%d channels, %d banks/ch, %d KB rows, %d/%d-cycle hit/miss", cfg.DRAM.Channels, cfg.DRAM.BanksPerChannel, cfg.DRAM.LinesPerRow*64>>10, cfg.DRAM.RowHitLatency, cfg.DRAM.RowMissLatency)},
		{"energy", fmt.Sprintf("L1 %.0f / LLC %.0f / AIM %.0f pJ per access; NoC %.0f pJ per flit-hop; DRAM %.0f pJ/B", cfg.Energy.L1AccessPJ, cfg.Energy.LLCAccessPJ, cfg.Energy.AIMAccessPJ, cfg.Energy.FlitHopPJ, cfg.Energy.DRAMPerBytePJ)},
		{"coherence (MESI/CE/CE+)", "inclusive MESI directory in LLC slices"},
		{"coherence (ARC)", "self-invalidation + self-downgrade, LLC registry"},
	}
	for _, row := range rows {
		t.AddRow(row[0], row[1])
	}
	return &Output{
		ID: "T1", Title: "Simulated system parameters",
		Claim: "evaluation spans multiple core counts on a tiled multicore",
		Body:  t.Render(),
	}, nil
}

// ---------------------------------------------------------------------------
// T2: workload characteristics.

func runT2(r *Runner) (*Output, error) {
	t := stats.NewTable(
		fmt.Sprintf("Table T2: workload characteristics (%d threads, scale %.2f)", r.cfg.Cores, r.cfg.Scale),
		"workload", "events", "reads", "writes", "regions", "avg region", "lines", "shared%", "wr-shared")
	for _, spec := range workload.Catalog() {
		tr := spec.Build(workload.Params{Threads: r.cfg.Cores, Seed: r.cfg.Seed, Scale: r.cfg.Scale})
		c := trace.Characterize(tr)
		t.AddRow(c.Name,
			stats.FormatCount(uint64(c.Events)),
			stats.FormatCount(uint64(c.Reads)),
			stats.FormatCount(uint64(c.Writes)),
			stats.FormatCount(uint64(c.Regions)),
			fmt.Sprintf("%.1f", c.AvgRegionLen),
			stats.FormatCount(uint64(c.DistinctLines)),
			fmt.Sprintf("%.1f", 100*c.SharedFrac),
			stats.FormatCount(uint64(c.WriteSharedLines)))
	}
	return &Output{
		ID: "T2", Title: "Workload characteristics",
		Claim: "the suite spans sharing intensities from embarrassingly parallel to migratory",
		Body:  t.Render(),
	}, nil
}

// ---------------------------------------------------------------------------
// F1: per-workload normalized runtime.

// normTable runs the whole DRF suite for `protos` at `cores`, normalizing
// `metric` against MESI, and returns both a rendered figure and the
// per-protocol geomeans.
func (r *Runner) normTable(title, xlabel string, cores int, protos []string, metric func(*sim.Result) float64) (string, map[string]float64, error) {
	fig := stats.NewFigure(title, xlabel)
	per := make(map[string][]float64)
	for _, wl := range suiteNames() {
		var vals []float64
		for _, p := range protos {
			v, err := r.Normalized(wl, p, cores, metric)
			if err != nil {
				return "", nil, err
			}
			vals = append(vals, v)
			per[p] = append(per[p], v)
		}
		fig.AddGroup(wl, protos, vals)
	}
	geo := make(map[string]float64, len(protos))
	var geoVals []float64
	for _, p := range protos {
		geo[p] = stats.Geomean(per[p])
		geoVals = append(geoVals, geo[p])
	}
	fig.AddGroup("GEOMEAN", protos, geoVals)
	return fig.Render(), geo, nil
}

// planF1 covers the detecting designs plus the MESI baseline Normalized
// divides by (protocols.Names() is exactly that union).
func planF1(cfg Config) []RunSpec {
	return crossSpecs(suiteNames(), protocols.Names(), cfg.Cores)
}

func runF1(r *Runner) (*Output, error) {
	body, geo, err := r.normTable(
		fmt.Sprintf("Figure F1: execution time normalized to MESI (%d cores)", r.cfg.Cores),
		"lower is better", r.cfg.Cores, protocols.Detecting(), MetricCycles)
	if err != nil {
		return nil, err
	}
	out := &Output{
		ID: "F1", Title: "Execution time normalized to MESI",
		Claim: "CE+ improves run-time performance over CE for several applications; ARC generally outperforms CE and is competitive with CE+ on average",
		Body:  body,
	}
	out.Checks = []Check{
		{
			Desc:   "CE+ improves runtime over CE (geomean)",
			Pass:   geo[protocols.CEPlus] < geo[protocols.CE],
			Detail: fmt.Sprintf("ce+=%.3f ce=%.3f", geo[protocols.CEPlus], geo[protocols.CE]),
		},
		{
			Desc:   "ARC outperforms CE (geomean)",
			Pass:   geo[protocols.ARC] < geo[protocols.CE],
			Detail: fmt.Sprintf("arc=%.3f ce=%.3f", geo[protocols.ARC], geo[protocols.CE]),
		},
		{
			Desc:   "ARC competitive with CE+ on average (within 15%)",
			Pass:   geo[protocols.ARC] <= geo[protocols.CEPlus]*1.15,
			Detail: fmt.Sprintf("arc=%.3f ce+=%.3f", geo[protocols.ARC], geo[protocols.CEPlus]),
		},
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// F2: scalability sweep.

func planF2(cfg Config) []RunSpec {
	return crossSpecs(suiteNames(), protocols.Names(), cfg.CoreSweep...)
}

func runF2(r *Runner) (*Output, error) {
	fig := stats.NewFigure("Figure F2: geomean runtime normalized to MESI vs core count", "lower is better")
	geoAt := make(map[int]map[string]float64)
	for _, cores := range r.cfg.CoreSweep {
		per := make(map[string][]float64)
		for _, wl := range suiteNames() {
			for _, p := range protocols.Detecting() {
				v, err := r.Normalized(wl, p, cores, MetricCycles)
				if err != nil {
					return nil, err
				}
				per[p] = append(per[p], v)
			}
		}
		geo := make(map[string]float64)
		var vals []float64
		for _, p := range protocols.Detecting() {
			geo[p] = stats.Geomean(per[p])
			vals = append(vals, geo[p])
		}
		geoAt[cores] = geo
		fig.AddGroup(fmt.Sprintf("%d cores", cores), protocols.Detecting(), vals)
	}
	lo := r.cfg.CoreSweep[0]
	hi := r.cfg.CoreSweep[len(r.cfg.CoreSweep)-1]
	out := &Output{
		ID: "F2", Title: "Scalability",
		Claim: "CE+ can suffer performance penalties from network saturation (at higher core counts)",
		Body:  fig.Render(),
	}
	cePlusGrowth := geoAt[hi][protocols.CEPlus] / geoAt[lo][protocols.CEPlus]
	arcGrowth := geoAt[hi][protocols.ARC] / geoAt[lo][protocols.ARC]
	out.Checks = []Check{
		{
			Desc: fmt.Sprintf("CE+ overhead grows from %d to %d cores", lo, hi),
			Pass: geoAt[hi][protocols.CEPlus] > geoAt[lo][protocols.CEPlus],
			Detail: fmt.Sprintf("ce+@%d=%.3f ce+@%d=%.3f", lo, geoAt[lo][protocols.CEPlus],
				hi, geoAt[hi][protocols.CEPlus]),
		},
		{
			Desc:   "ARC degrades less than CE+ as cores grow",
			Pass:   arcGrowth <= cePlusGrowth,
			Detail: fmt.Sprintf("arc growth %.3fx vs ce+ growth %.3fx", arcGrowth, cePlusGrowth),
		},
		{
			Desc: fmt.Sprintf("ARC at least matches CE+ at %d cores", hi),
			Pass: geoAt[hi][protocols.ARC] <= geoAt[hi][protocols.CEPlus]*1.02,
			Detail: fmt.Sprintf("arc=%.3f ce+=%.3f", geoAt[hi][protocols.ARC],
				geoAt[hi][protocols.CEPlus]),
		},
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// F3: on-chip traffic.

func planF3(cfg Config) []RunSpec {
	return crossSpecs(suiteNames(), protocols.Names(), cfg.Cores)
}

func runF3(r *Runner) (*Output, error) {
	body, geo, err := r.normTable(
		fmt.Sprintf("Figure F3: on-chip interconnect traffic (flit-hops) normalized to MESI (%d cores)", r.cfg.Cores),
		"lower is better", r.cfg.Cores, protocols.Names(), MetricFlitHop)
	if err != nil {
		return nil, err
	}
	out := &Output{
		ID: "F3", Title: "On-chip interconnect traffic",
		Claim: "ARC stresses the on-chip interconnect much less than CE+",
		Body:  body,
	}
	out.Checks = []Check{
		{
			// "Stress" is traffic added over the baseline: ARC's
			// overhead must be well below CE+'s overhead.
			Desc: "ARC's on-chip traffic overhead <= 60% of CE+'s overhead (geomean)",
			Pass: geo[protocols.ARC]-1 <= 0.6*(geo[protocols.CEPlus]-1),
			Detail: fmt.Sprintf("arc overhead=%.3f ce+ overhead=%.3f",
				geo[protocols.ARC]-1, geo[protocols.CEPlus]-1),
		},
		{
			Desc:   "CE/CE+ add on-chip traffic over MESI",
			Pass:   geo[protocols.CEPlus] > 1.0 && geo[protocols.CE] > 1.0,
			Detail: fmt.Sprintf("ce=%.3f ce+=%.3f", geo[protocols.CE], geo[protocols.CEPlus]),
		},
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// F4: off-chip traffic.

func planF4(cfg Config) []RunSpec {
	return crossSpecs(suiteNames(), protocols.Names(), cfg.Cores)
}

func runF4(r *Runner) (*Output, error) {
	body, geo, err := r.normTable(
		fmt.Sprintf("Figure F4: off-chip memory traffic (bytes) normalized to MESI (%d cores)", r.cfg.Cores),
		"lower is better", r.cfg.Cores, protocols.Names(), MetricOffChip)
	if err != nil {
		return nil, err
	}
	// Metadata-byte table (absolute) for the detecting designs.
	t := stats.NewTable("Off-chip metadata bytes (absolute)", "workload", "ce", "ce+", "arc")
	for _, wl := range suiteNames() {
		row := []string{wl}
		for _, p := range protocols.Detecting() {
			res, err := r.Result(wl, p, r.cfg.Cores, 0)
			if err != nil {
				return nil, err
			}
			row = append(row, stats.FormatCount(res.DRAM.MetadataBytes))
		}
		t.AddRow(row...)
	}
	out := &Output{
		ID: "F4", Title: "Off-chip memory traffic",
		Claim: "CE incurs significant costs because of its need to frequently access metadata in memory; the AIM (CE+) reduces them; ARC stresses the memory network much less",
		Body:  body + "\n" + t.Render(),
	}
	out.Checks = []Check{
		{
			Desc:   "CE moves more off-chip bytes than CE+ (the AIM works)",
			Pass:   geo[protocols.CE] > geo[protocols.CEPlus],
			Detail: fmt.Sprintf("ce=%.3f ce+=%.3f", geo[protocols.CE], geo[protocols.CEPlus]),
		},
		{
			Desc:   "ARC off-chip traffic at most CE+'s",
			Pass:   geo[protocols.ARC] <= geo[protocols.CEPlus]*1.02,
			Detail: fmt.Sprintf("arc=%.3f ce+=%.3f", geo[protocols.ARC], geo[protocols.CEPlus]),
		},
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// F5: energy.

func planF5(cfg Config) []RunSpec {
	return crossSpecs(suiteNames(), protocols.Names(), cfg.Cores)
}

func runF5(r *Runner) (*Output, error) {
	body, geo, err := r.normTable(
		fmt.Sprintf("Figure F5: energy normalized to MESI (%d cores)", r.cfg.Cores),
		"lower is better", r.cfg.Cores, protocols.Names(), MetricEnergy)
	if err != nil {
		return nil, err
	}
	// Component breakdown (geomean of per-workload shares is not
	// meaningful; report absolute sums over the suite instead).
	t := stats.NewTable("Energy by component, summed over the suite (uJ)",
		"design", "L1", "LLC", "AIM", "NoC", "DRAM", "Static", "total")
	for _, p := range protocols.Names() {
		sums := map[string]float64{}
		total := 0.0
		for _, wl := range suiteNames() {
			res, err := r.Result(wl, p, r.cfg.Cores, 0)
			if err != nil {
				return nil, err
			}
			for comp, pj := range res.EnergyPJ {
				sums[comp.String()] += pj
			}
			total += res.TotalEnergyPJ
		}
		t.AddRow(p,
			fmt.Sprintf("%.0f", sums["L1"]/1e6),
			fmt.Sprintf("%.0f", sums["LLC"]/1e6),
			fmt.Sprintf("%.0f", sums["AIM"]/1e6),
			fmt.Sprintf("%.0f", sums["NoC"]/1e6),
			fmt.Sprintf("%.0f", sums["DRAM"]/1e6),
			fmt.Sprintf("%.0f", sums["Static"]/1e6),
			fmt.Sprintf("%.0f", total/1e6))
	}
	out := &Output{
		ID: "F5", Title: "Energy",
		Claim: "CE+ improves energy usage over CE for several applications across different core counts",
		Body:  body + "\n" + t.Render(),
	}
	out.Checks = []Check{
		{
			Desc:   "CE+ uses less energy than CE (geomean)",
			Pass:   geo[protocols.CEPlus] < geo[protocols.CE],
			Detail: fmt.Sprintf("ce+=%.3f ce=%.3f", geo[protocols.CEPlus], geo[protocols.CE]),
		},
		{
			Desc:   "ARC energy at most CE's",
			Pass:   geo[protocols.ARC] < geo[protocols.CE],
			Detail: fmt.Sprintf("arc=%.3f ce=%.3f", geo[protocols.ARC], geo[protocols.CE]),
		},
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// F6: AIM sweep.

// f6Workloads: aimstress is the metadata-pressure kernel whose working
// set actually exceeds small AIMs (the knee the sweep is about); canneal
// and x264 represent the suite (largely AIM-insensitive at harness
// scale, as their live-metadata footprints are small).
var f6Workloads = []string{"aimstress", "canneal", "x264"}

// f6Sizes is the AIM capacity axis.
var f6Sizes = []int{4096, 8192, 16384, 32768, 65536}

// f6Designs are the AIM-bearing designs the sweep compares.
var f6Designs = []string{protocols.CEPlus, protocols.ARC}

func planF6(cfg Config) []RunSpec {
	var specs []RunSpec
	for _, wl := range f6Workloads {
		specs = append(specs, RunSpec{Workload: wl, Proto: protocols.MESI, Cores: cfg.Cores})
		for _, p := range f6Designs {
			for _, sz := range f6Sizes {
				specs = append(specs, RunSpec{Workload: wl, Proto: p, Cores: cfg.Cores, AIMEntries: sz})
			}
		}
	}
	// The CE reference the "every AIM size beats CE" check divides by.
	return append(specs, RunSpec{Workload: "aimstress", Proto: protocols.CE, Cores: cfg.Cores})
}

func runF6(r *Runner) (*Output, error) {
	sizes := f6Sizes
	// Metadata DRAM traffic on the stress kernel, per AIM size (the
	// knee the sweep demonstrates).
	metaAt := map[int]uint64{}
	fig := stats.NewFigure(
		fmt.Sprintf("Figure F6: runtime normalized to MESI vs AIM entries (%d cores)", r.cfg.Cores),
		"lower is better")
	type pt struct{ first, last float64 }
	trend := map[string]pt{}
	for _, wl := range f6Workloads {
		base, err := r.Result(wl, protocols.MESI, r.cfg.Cores, 0)
		if err != nil {
			return nil, err
		}
		for _, p := range f6Designs {
			var names []string
			var vals []float64
			for _, sz := range sizes {
				res, err := r.Result(wl, p, r.cfg.Cores, sz)
				if err != nil {
					return nil, err
				}
				if wl == "aimstress" && p == protocols.CEPlus {
					metaAt[sz] = res.DRAM.MetadataBytes
				}
				v := float64(res.Cycles) / float64(base.Cycles)
				names = append(names, fmt.Sprintf("%dK", sz/1024))
				vals = append(vals, v)
			}
			fig.AddGroup(fmt.Sprintf("%s / %s", wl, p), names, vals)
			t := trend[p]
			t.first += vals[0]
			t.last += vals[len(vals)-1]
			trend[p] = t
		}
	}
	out := &Output{
		ID: "F6", Title: "AIM capacity sensitivity",
		Claim: "the AIM reduces CE's memory metadata accesses; larger AIMs help until the working set of metadata fits",
		Body:  fig.Render(),
	}
	ceRes, err := r.Result("aimstress", protocols.CE, r.cfg.Cores, 0)
	if err != nil {
		return nil, err
	}
	out.Checks = []Check{
		{
			Desc: "a larger AIM absorbs the stress kernel's metadata traffic (64K <= 0.5x 4K)",
			Pass: metaAt[65536] <= metaAt[4096]/2,
			Detail: fmt.Sprintf("metaDRAM@4K=%s @64K=%s", stats.FormatCount(metaAt[4096]),
				stats.FormatCount(metaAt[65536])),
		},
		{
			Desc: "every AIM size beats CE's raw in-memory metadata traffic",
			Pass: metaAt[4096] < ceRes.DRAM.MetadataBytes,
			Detail: fmt.Sprintf("ce=%s ce+@4K=%s", stats.FormatCount(ceRes.DRAM.MetadataBytes),
				stats.FormatCount(metaAt[4096])),
		},
		{
			Desc: "CE+ runtime does not degrade as the AIM grows 4K -> 64K",
			Pass: trend[protocols.CEPlus].last <= trend[protocols.CEPlus].first*1.01,
			Detail: fmt.Sprintf("sum@4K=%.3f sum@64K=%.3f",
				trend[protocols.CEPlus].first, trend[protocols.CEPlus].last),
		},
		{
			Desc: "ARC runtime does not degrade as the AIM grows 4K -> 64K",
			Pass: trend[protocols.ARC].last <= trend[protocols.ARC].first*1.01,
			Detail: fmt.Sprintf("sum@4K=%.3f sum@64K=%.3f",
				trend[protocols.ARC].first, trend[protocols.ARC].last),
		},
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// F7: saturation.

// f7Workloads stress the interconnect with *concurrent* fine-grained
// write-sharing — the regime where eager write-invalidation coherence
// (with metadata on every message) saturates the mesh. canneal has the
// suite's heaviest concurrent sharing; racy-sharing is an unsynchronized
// sharing stress kernel. Lock-serialized workloads hide the effect (their
// regions rarely overlap), and on barrier-phased workloads ARC pays
// post-barrier refetch bursts instead — see F3's per-workload figure.
var f7Workloads = []string{"canneal", "racy-sharing"}

// f7Designs: the saturation story needs the baseline, the eager design
// that saturates, and the lazy design that does not.
var f7Designs = []string{protocols.MESI, protocols.CEPlus, protocols.ARC}

func planF7(cfg Config) []RunSpec {
	return crossSpecs(f7Workloads, f7Designs, cfg.CoreSweep...)
}

func runF7(r *Runner) (*Output, error) {
	// Saturation harm is measured as NoC queueing delay per memory
	// access: time lost to contention. (Peak utilization alone rewards
	// finishing slowly — a fast design compresses the same traffic into
	// fewer cycles.) Peak utilization is reported alongside.
	fig := stats.NewFigure("Figure F7: NoC queueing cycles per memory access vs core count",
		"contention penalty; lower is better")
	protos := f7Designs
	qpa := map[string]map[int]float64{}
	for _, p := range protos {
		qpa[p] = map[int]float64{}
	}
	t := stats.NewTable("Peak NoC utilization (bisection-channel model)",
		append([]string{"cores"}, protos...)...)
	for _, cores := range r.cfg.CoreSweep {
		var vals []float64
		row := []string{fmt.Sprintf("%d", cores)}
		for _, p := range protos {
			sumQ, sumA, sumU := 0.0, 0.0, 0.0
			for _, wl := range f7Workloads {
				res, err := r.Result(wl, p, cores, 0)
				if err != nil {
					return nil, err
				}
				sumQ += float64(res.NoC.QueueCycles)
				sumA += float64(res.MemAccesses)
				sumU += res.NoCPeakUtil
			}
			v := 0.0
			if sumA > 0 {
				v = sumQ / sumA
			}
			qpa[p][cores] = v
			vals = append(vals, v)
			row = append(row, fmt.Sprintf("%.2f", sumU/float64(len(f7Workloads))))
		}
		fig.AddGroup(fmt.Sprintf("%d cores", cores), protos, vals)
		t.AddRow(row...)
	}
	lo := r.cfg.CoreSweep[0]
	hi := r.cfg.CoreSweep[len(r.cfg.CoreSweep)-1]
	out := &Output{
		ID: "F7", Title: "NoC saturation",
		Claim: "CE+ stresses or saturates the on-chip interconnect because of eager write-invalidation coherence; ARC does not",
		Body:  fig.Render() + "\n" + t.Render(),
	}
	out.Checks = []Check{
		{
			Desc: fmt.Sprintf("CE+ contention penalty grows from %d to %d cores", lo, hi),
			Pass: qpa[protocols.CEPlus][hi] > qpa[protocols.CEPlus][lo],
			Detail: fmt.Sprintf("%.2f -> %.2f cycles/access", qpa[protocols.CEPlus][lo],
				qpa[protocols.CEPlus][hi]),
		},
		{
			Desc: fmt.Sprintf("ARC contention penalty below CE+ at %d cores", hi),
			Pass: qpa[protocols.ARC][hi] < qpa[protocols.CEPlus][hi],
			Detail: fmt.Sprintf("arc=%.2f ce+=%.2f", qpa[protocols.ARC][hi],
				qpa[protocols.CEPlus][hi]),
		},
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// T3: conflicts on racy workloads.

func planT3(cfg Config) []RunSpec {
	var specs []RunSpec
	for _, spec := range workload.RacySuite() {
		for _, p := range protocols.Detecting() {
			specs = append(specs, RunSpec{Workload: spec.Name, Proto: p, Cores: cfg.Cores, Oracle: true})
		}
	}
	return specs
}

func runT3(r *Runner) (*Output, error) {
	// Each design's timing produces a different witnessed schedule, so
	// conflict counts on heavily racy workloads may legitimately differ
	// across designs; what must hold is (a) every design reports
	// exactly its own schedule's oracle set (enforced by CheckedResult),
	// (b) every design finds the scripted race in racy-single — whose
	// long regions make the conflict schedule-independent: one conflict
	// per reader thread.
	t := stats.NewTable(
		fmt.Sprintf("Table T3: region conflicts detected (%d cores; every run oracle-verified)", r.cfg.Cores),
		"workload", "ce", "ce+", "arc")
	counts := map[string]map[string]int{}
	for _, spec := range workload.RacySuite() {
		counts[spec.Name] = map[string]int{}
		row := []string{spec.Name}
		for _, p := range protocols.Detecting() {
			res, err := r.CheckedResult(spec.Name, p, r.cfg.Cores, 0)
			if err != nil {
				// An oracle mismatch surfaces as an error.
				return nil, err
			}
			counts[spec.Name][p] = res.Conflicts
			row = append(row, fmt.Sprintf("%d", res.Conflicts))
		}
		t.AddRow(row...)
	}
	out := &Output{
		ID: "T3", Title: "Conflicts detected",
		Claim: "all three designs provide sound and complete, byte-precise region conflict detection",
		Body:  t.Render(),
	}
	allFound := true
	singleExact := true
	for wl, per := range counts {
		for _, n := range per {
			if n == 0 {
				allFound = false
			}
			if wl == "racy-single" && n != r.cfg.Cores-1 {
				singleExact = false
			}
		}
	}
	out.Checks = []Check{
		{Desc: "every run matched the golden oracle for its schedule", Pass: true},
		{Desc: "every design detects conflicts in every racy workload", Pass: allFound},
		{
			Desc: "all designs find exactly one conflict per reader in racy-single",
			Pass: singleExact,
			Detail: fmt.Sprintf("want %d; ce=%d ce+=%d arc=%d", r.cfg.Cores-1,
				counts["racy-single"][protocols.CE],
				counts["racy-single"][protocols.CEPlus],
				counts["racy-single"][protocols.ARC]),
		},
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// A1: ARC ablations.

// a1Workloads pick one workload per mechanism: private data
// (blackscholes), read-only sharing (raytrace), and migratory sharing
// (x264).
var a1Workloads = []string{"blackscholes", "raytrace", "x264"}

// a1Variants: full ARC and its two class-disabling ablations.
var a1Variants = []string{protocols.ARC, protocols.ARCNoRO, protocols.ARCNoPrivate}

func planA1(cfg Config) []RunSpec {
	return crossSpecs(a1Workloads, append([]string{protocols.MESI}, a1Variants...), cfg.Cores)
}

func runA1(r *Runner) (*Output, error) {
	variants := a1Variants
	figRun := stats.NewFigure(
		fmt.Sprintf("Ablation A1a: ARC runtime normalized to MESI (%d cores)", r.cfg.Cores),
		"lower is better")
	figNoC := stats.NewFigure(
		fmt.Sprintf("Ablation A1b: ARC on-chip traffic normalized to MESI (%d cores)", r.cfg.Cores),
		"lower is better")
	vals := map[string]map[string]float64{}
	for _, wl := range a1Workloads {
		var runRow, nocRow []float64
		vals[wl] = map[string]float64{}
		for _, v := range variants {
			rt, err := r.Normalized(wl, v, r.cfg.Cores, MetricCycles)
			if err != nil {
				return nil, err
			}
			nc, err := r.Normalized(wl, v, r.cfg.Cores, MetricFlitHop)
			if err != nil {
				return nil, err
			}
			runRow = append(runRow, rt)
			nocRow = append(nocRow, nc)
			vals[wl][v] = rt
		}
		figRun.AddGroup(wl, variants, runRow)
		figNoC.AddGroup(wl, variants, nocRow)
	}
	out := &Output{
		ID: "A1", Title: "ARC ablation: line classification",
		Claim: "ARC's private and read-only line classes are what keep self-invalidation affordable (design-choice ablation; not a paper figure)",
		Body:  figRun.Render() + "\n" + figNoC.Render(),
	}
	out.Checks = []Check{
		{
			Desc: "read-only classification pays off on read-shared raytrace",
			Pass: vals["raytrace"][protocols.ARCNoRO] > vals["raytrace"][protocols.ARC]*1.01,
			Detail: fmt.Sprintf("full=%.3f no-ro=%.3f", vals["raytrace"][protocols.ARC],
				vals["raytrace"][protocols.ARCNoRO]),
		},
		{
			Desc: "private classification pays off on data-parallel blackscholes",
			Pass: vals["blackscholes"][protocols.ARCNoPrivate] > vals["blackscholes"][protocols.ARC]*1.01,
			Detail: fmt.Sprintf("full=%.3f no-priv=%.3f", vals["blackscholes"][protocols.ARC],
				vals["blackscholes"][protocols.ARCNoPrivate]),
		},
	}
	return out, nil
}

// RunAll executes every experiment and renders a combined report. The
// union of all planned runs is prefetched through the worker pool
// (r.Cfg().Jobs simulations at a time) before the deterministic
// in-order render pass, so the report is byte-identical at any Jobs.
func RunAll(r *Runner) (string, []*Output, error) {
	r.Prefetch(PlanAll(r.cfg, All()))
	var b strings.Builder
	var outs []*Output
	for _, e := range All() {
		out, err := e.Run(r)
		if err != nil {
			return b.String(), outs, fmt.Errorf("%s: %w", e.ID, err)
		}
		outs = append(outs, out)
		b.WriteString(out.Render())
		b.WriteString("\n")
	}
	return b.String(), outs, nil
}
