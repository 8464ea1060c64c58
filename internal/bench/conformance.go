package bench

import (
	"fmt"
	"time"

	"arcsim/internal/conformance"
	"arcsim/internal/protocols"
	"arcsim/internal/stats"
)

// confFamily is one generator configuration the conformance experiment
// sweeps, with a stable display name.
type confFamily struct {
	name string
	cfg  conformance.Config
}

func confFamilies() []confFamily {
	return []confFamily{
		{"drf-mixed", conformance.Config{}},
		{"drf-nested", conformance.Config{Phases: 3, Locks: 6, MaxNest: 3, SharedLines: 12}},
		{"degenerate", conformance.Config{Phases: 1, Degenerate: true}},
		{"racy", conformance.Config{Racy: true}},
		{"plant-overlap", conformance.Config{Plant: conformance.PlantOverlap}},
		{"plant-subword", conformance.Config{Plant: conformance.PlantSubword}},
		{"plant-evict", conformance.Config{Plant: conformance.PlantEvict}},
	}
}

// confResult aggregates one family's differential runs.
type confResult struct {
	programs  int
	events    uint64
	conflicts int // under ARC, the most aggressive design
	failures  []string
}

// runConformance executes the differential conformance sweep: generated
// SFR programs from every family, each simulated under mesi/ce/ce+/arc
// with the golden oracle mirrored, asserting oracle agreement, DRF
// emptiness, planted-conflict presence, and event parity (see
// internal/conformance).
//
// The runs are keyed on generated programs, not suite workloads, so the
// experiment has no Plan and bypasses the memo; like R1 it parallelizes
// internally (programs are independent) under the cfg.Jobs bound and
// aggregates in deterministic family/seed order.
func runConformance(r *Runner) (*Output, error) {
	fams := confFamilies()
	perFam := int(16 * r.cfg.Scale)
	if perFam < 2 {
		perFam = 2
	}

	type slot struct {
		prog *conformance.Program
		err  error
		arc  int
	}
	slots := make([][]slot, len(fams))
	for fi := range fams {
		slots[fi] = make([]slot, perFam)
	}
	r.parallel(len(fams)*perFam, func(k int) {
		fi, i := k/perFam, k%perFam
		seed := r.cfg.Seed*1000 + int64(fi)*100 + int64(i)
		prog := conformance.Generate(fams[fi].cfg, seed)
		start := time.Now()
		results, err := conformance.Check(prog, conformance.Options{})
		r.record(fmt.Sprintf("conf/%s/s%d", prog.Cfg.Kind(), seed), time.Since(start))
		s := slot{prog: prog, err: err}
		if res := results[protocols.ARC]; res != nil {
			s.arc = res.Conflicts
		}
		slots[fi][i] = s
	})

	var agg []confResult
	var totalPrograms, drfConflicts int
	for fi := range fams {
		cr := confResult{}
		for _, s := range slots[fi] {
			cr.programs++
			totalPrograms++
			cr.events += uint64(s.prog.Trace.Events())
			cr.conflicts += s.arc
			if s.prog.DRF {
				drfConflicts += s.arc
			}
			if s.err != nil {
				cr.failures = append(cr.failures, s.err.Error())
			}
		}
		agg = append(agg, cr)
	}

	t := stats.NewTable(
		fmt.Sprintf("Conformance: differential check over generated SFR programs (%d programs, 4 designs each)", totalPrograms),
		"family", "programs", "events", "conflicts(arc)", "status")
	var failures []string
	for fi, fam := range fams {
		cr := agg[fi]
		status := "conforms"
		if n := len(cr.failures); n > 0 {
			status = fmt.Sprintf("%d FAILED", n)
			failures = append(failures, cr.failures...)
		}
		t.AddRow(fam.name,
			fmt.Sprintf("%d", cr.programs),
			stats.FormatCount(cr.events),
			fmt.Sprintf("%d", cr.conflicts),
			status)
	}

	body := t.Render() + fmt.Sprintf(`
Generator knobs per family: threads=4, ~40 ops/thread/phase, nested locks
(ascending-ID acquisition), barrier phases, sub-word and cross-line
accesses, degenerate regions. Seeds derive from the harness seed (%d):
program seed = seed*1000 + family*100 + index, so -seed reruns a
different program population. Planted families weave a deterministic
conflict (full-overlap, sub-word tail, or eviction-spill) into the first
region; detecting designs must report it regardless of schedule.

Counterexamples, when found, are shrunk to minimal repros; checked-in
repros live in internal/conformance/testdata/repros/ and are replayed by
the package tests. Regenerate with:
  ARCSIM_UPDATE_REPROS=1 go test ./internal/conformance/ -run UpdateReproCorpus
`, r.cfg.Seed)
	for _, f := range failures {
		body += fmt.Sprintf("\nFAILURE: %s", f)
	}

	plantFailures := 0
	for fi, fam := range fams {
		if fam.cfg.Plant != conformance.PlantNone {
			plantFailures += len(agg[fi].failures)
		}
	}
	return &Output{
		ID:    "CONF",
		Title: "Differential conformance of the conflict-detection designs",
		Claim: "CE, CE+, and ARC all detect region conflicts soundly and precisely; on DRF programs they are conflict-silent and performance-comparable baselines remain exception-free.",
		Body:  body,
		Checks: []Check{
			{
				Desc: "every generated program conforms under mesi/ce/ce+/arc (oracle agreement + event parity)",
				Pass: len(failures) == 0,
				Detail: fmt.Sprintf("%d programs x 4 designs, %d failures",
					totalPrograms, len(failures)),
			},
			{
				Desc:   "DRF families are conflict-free under every design",
				Pass:   drfConflicts == 0,
				Detail: fmt.Sprintf("%d conflicts on DRF programs", drfConflicts),
			},
			{
				Desc:   "planted conflicts (overlap/subword/evict) reported by every detecting design",
				Pass:   plantFailures == 0,
				Detail: fmt.Sprintf("%d planted-family failures", plantFailures),
			},
		},
	}, nil
}
