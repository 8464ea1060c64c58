package witness

import (
	"fmt"
	"testing"

	"arcsim/internal/protocols"
	"arcsim/internal/sim"
	"arcsim/internal/static"
	"arcsim/internal/trace"
	"arcsim/internal/workload"
)

// scanPick is the co-timer's pick as it was computed before the
// scheduler handle: a scan over every core's state for the runnable,
// unheld core with the smallest ready time, lowest ID first. It is the
// reference coTimer.Pick is checked against.
func scanPick(ct *coTimer, cores []sim.CoreState) int {
	if ct.met || ct.dead {
		return -1
	}
	for s := 0; s < 2; s++ {
		cs := cores[ct.tc[s]]
		if cs.Region > ct.ts[s] || cs.Done {
			ct.dead = true
			return -1
		}
	}
	sec := 1 - ct.primary
	primIn := cores[ct.tc[ct.primary]].Region == ct.ts[ct.primary]
	secCS := cores[ct.tc[sec]]
	secReady := secCS.Region == ct.ts[sec] ||
		(secCS.Region+1 == ct.ts[sec] && boundaryNext(secCS))
	held := func(c int) bool {
		for s := 0; s < 2; s++ {
			if c != ct.tc[s] {
				continue
			}
			cs := cores[c]
			if cs.Region == ct.ts[s] && boundaryNext(cs) {
				return true
			}
			if s == ct.primary && !primIn && !secReady {
				return true
			}
			if s == sec && !primIn && cs.Region+1 == ct.ts[s] && boundaryNext(cs) {
				return true
			}
		}
		return false
	}
	pick := -1
	for c, cs := range cores {
		if !cs.Runnable || held(c) {
			continue
		}
		if pick == -1 || cs.Ready < cores[pick].Ready {
			pick = c
		}
	}
	return pick
}

// twinDirector steers a run with one co-timer and, at every step, asks a
// twin co-timer of the same directive for scanPick's answer over the
// full view built from the handle. Both picks are resolved as the
// engine resolves them (a deferral steps the default pick) and must name
// the same core.
type twinDirector struct {
	live, ref *coTimer
	view      []sim.CoreState
	steps     int
	holds     int // steps where the scan skipped the default pick
	err       error
}

func (d *twinDirector) Pick(h *sim.Sched) int {
	d.view = d.view[:0]
	for c := range h.Cores() {
		d.view = append(d.view, h.Core(c))
	}
	want := scanPick(d.ref, d.view)
	got := d.live.Pick(h)
	def := h.DefaultExcept(-1, -1)
	resolve := func(p int) int {
		if p < 0 {
			return def
		}
		return p
	}
	if want >= 0 && want != def {
		d.holds++
	}
	if resolve(got) != resolve(want) && d.err == nil {
		d.err = fmt.Errorf("step %d: co-timer steps core %d, the scan steps core %d", d.steps, resolve(got), resolve(want))
	}
	d.steps++
	return got
}

func (d *twinDirector) Stepped(c int, ev trace.Event, now uint64) {
	d.live.Stepped(c, ev, now)
	d.ref.Stepped(c, ev, now)
}

// TestCoTimerMatchesScan pins the co-timer's O(log n) pick to the O(n)
// scan it replaced, on every step of the racy suite's directed replays:
// the attempts an examination would spend its budget on (every attempt
// of every record the baseline leaves open, up to 64 per workload), at
// WIT's configuration (16 threads, seed 1, scale 0.25; -short runs
// scale 0.05).
func TestCoTimerMatchesScan(t *testing.T) {
	scale := 0.25
	if testing.Short() {
		scale = 0.05
	}
	opt := Options{}.normalized()
	var pool protocols.Pool
	replays, holds := 0, 0
	for _, spec := range workload.RacySuite() {
		tr := spec.Build(workload.Params{Threads: 16, Seed: 1, Scale: scale})
		an, err := static.Analyze(tr)
		if err != nil {
			t.Fatal(err)
		}
		base, err := run(&pool, tr, nil, opt)
		if err != nil {
			t.Fatalf("%s baseline: %v", spec.Name, err)
		}
		var dirs []Directive
		for _, pc := range an.Conflicts() {
			pairs, clashing, refuted := an.WitnessPairs(pc, opt.PairLimit)
			if clashing > 0 && refuted == clashing {
				continue
			}
			if _, _, ok := confirmsRecord(an, pc, base.Exceptions); ok {
				continue
			}
			tg := target{pc: pc, pairs: pairs}
			for j := 0; j < tg.attempts() && len(dirs) < opt.MaxReplays; j++ {
				dirs = append(dirs, tg.directive(j))
			}
		}
		for _, d := range dirs {
			td := &twinDirector{live: newCoTimer(d), ref: newCoTimer(d)}
			if _, err := run(&pool, tr, td, opt); err != nil && !scheduleFault(err) {
				t.Fatalf("%s %v: %v", spec.Name, d, err)
			}
			if td.err != nil {
				t.Fatalf("%s %v: %v", spec.Name, d, td.err)
			}
			replays++
			holds += td.holds
		}
	}
	if replays == 0 || holds == 0 {
		t.Fatalf("%d directed replays held a core on %d steps; the comparison is vacuous", replays, holds)
	}
	t.Logf("%d directed replays, %d steps with a core held", replays, holds)
}
