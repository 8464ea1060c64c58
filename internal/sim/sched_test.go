package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"arcsim/internal/trace"
	"arcsim/internal/workload"
)

// view builds every core's state from the handle: the O(n) per-step
// view the engine once passed to Pick, kept for the test directors that
// scan all cores.
func view(h *Sched) []CoreState {
	cores := make([]CoreState, h.Cores())
	for c := range cores {
		cores[c] = h.Core(c)
	}
	return cores
}

// scanDirector checks the engine's pick against the linear scan the
// winner tree replaced. It defers every pick, computes what the scan
// would choose from the CoreState view (the runnable core with the
// smallest Ready, lowest index first), and records a mismatch when
// Stepped reports another core. Wrapped around an inner director, it
// passes the inner director's picks through and checks only the steps
// the inner director defers.
type scanDirector struct {
	inner   Director // nil: every step is the engine's own pick
	want    int      // the scan's pick for the pending step; -1 if directed
	checked int
	err     error
}

func (d *scanDirector) Pick(h *Sched) int {
	d.want = -1
	cores := view(h)
	if d.inner != nil {
		if p := d.inner.Pick(h); p >= 0 && p < len(cores) && cores[p].Runnable {
			return p
		}
	}
	for c, cs := range cores {
		if cs.Runnable && (d.want < 0 || cs.Ready < cores[d.want].Ready) {
			d.want = c
		}
	}
	return -1
}

func (d *scanDirector) Stepped(c int, ev trace.Event, now uint64) {
	if d.inner != nil {
		d.inner.Stepped(c, ev, now)
	}
	if d.want < 0 {
		return
	}
	if c != d.want && d.err == nil {
		d.err = fmt.Errorf("engine stepped core %d at cycle %d; the linear scan picks core %d", c, now, d.want)
	}
	d.checked++
}

// everyThird picks a random runnable core on every third step and
// defers the rest, so the engine's own picks start from states a
// default schedule never reaches.
type everyThird struct {
	rng  *rand.Rand
	step int
	run  []int
}

func (d *everyThird) Pick(h *Sched) int {
	d.step++
	if d.step%3 != 0 {
		return -1
	}
	d.run = d.run[:0]
	for c, cs := range view(h) {
		if cs.Runnable {
			d.run = append(d.run, c)
		}
	}
	if len(d.run) == 0 {
		return -1
	}
	return d.run[d.rng.Intn(len(d.run))]
}

func (*everyThird) Stepped(int, trace.Event, uint64) {}

// TestSchedulerMatchesLinearScan pins the winner tree to the policy it
// implements: at every step the engine itself picks, it steps exactly
// the core a scan over all cores would (runnable, smallest ready time,
// lowest ID). The catalog covers lock hand-offs and barrier releases,
// the steps that wake other cores; the core counts cover a single
// core, padded trees (3, 12, 33) and full ones (16, 64).
func TestSchedulerMatchesLinearScan(t *testing.T) {
	for i, spec := range workload.Catalog() {
		spec, pn := spec, protoNames[i%len(protoNames)]
		t.Run(spec.Name, func(t *testing.T) {
			for _, n := range []int{1, 3, 12, 16, 33, 64} {
				tr := spec.Build(workload.Params{Threads: n, Seed: 1, Scale: 0.02})
				for _, random := range []bool{false, true} {
					d := &scanDirector{}
					if random {
						d.inner = &everyThird{rng: rand.New(rand.NewSource(int64(n)))}
					}
					m, p := build(pn, n)
					if _, err := Run(m, p, tr, Options{Director: d}); err != nil {
						t.Fatalf("%s, %d cores, random=%v: %v", pn, n, random, err)
					}
					if d.err != nil {
						t.Fatalf("%s, %d cores, random=%v: %v", pn, n, random, d.err)
					}
					if d.checked == 0 {
						t.Fatalf("%s, %d cores, random=%v: no engine pick was checked", pn, n, random)
					}
				}
			}
		})
	}
}

// TestDefaultExceptMatchesScan pins the handle's exclusion query to a
// scan over random core states: the runnable core with the smallest
// ready time, lowest ID first, among those not excluded, or -1. Ready
// times come from a small range so ties are common, and the share of
// running cores varies so that trials with no, one and two runnable
// cores occur. Each trial asks with none, one and both cores excluded,
// with excluded cores that are not running, out-of-range arguments and
// every runnable core excluded, and requires the winner tree to be left
// exactly as it was.
func TestDefaultExceptMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var allExcluded, idleExcluded int
	for _, n := range []int{1, 2, 3, 5, 12, 16, 33, 64} {
		s := getScratch(n)
		h := &Sched{s: s, region: make([]uint64, n)}
		scan := func(a, b int) int {
			pick := -1
			for c := range n {
				if c == a || c == b || s.status[c] != statusRunning {
					continue
				}
				if pick < 0 || s.ready[c] < s.ready[pick] {
					pick = c
				}
			}
			return pick
		}
		for trial := 0; trial < 300; trial++ {
			pRun := rng.Float64()
			var running, idle []int
			for c := range n {
				s.ready[c] = uint64(rng.Intn(6))
				s.status[c] = statusRunning
				if rng.Float64() >= pRun {
					s.status[c] = []coreStatus{statusBlockedLock, statusBlockedBarrier, statusDone}[rng.Intn(3)]
					idle = append(idle, c)
				} else {
					running = append(running, c)
				}
			}
			s.initTree()
			tree := slices.Clone(s.win)
			pick := func() int { return rng.Intn(n) }
			asks := [][2]int{{-1, -1}, {pick(), -1}, {-1, pick()}, {pick(), pick()}, {pick(), pick()}, {n + 3, -7}}
			if len(idle) > 0 {
				c := idle[rng.Intn(len(idle))]
				asks = append(asks, [2]int{c, -1}, [2]int{pick(), c})
				idleExcluded++
			}
			if len(running) > 0 && len(running) <= 2 {
				a, b := running[0], running[len(running)-1]
				asks = append(asks, [2]int{a, b}, [2]int{b, a})
				allExcluded++
			}
			for _, ab := range asks {
				a, b := ab[0], ab[1]
				if got, want := h.DefaultExcept(a, b), scan(a, b); got != want {
					t.Fatalf("%d cores, trial %d: DefaultExcept(%d, %d) = %d, the scan picks %d", n, trial, a, b, got, want)
				}
				if !slices.Equal(s.win, tree) {
					t.Fatalf("%d cores, trial %d: DefaultExcept(%d, %d) left the winner tree changed", n, trial, a, b)
				}
			}
		}
		scratchPool.Put(s)
	}
	if allExcluded == 0 || idleExcluded == 0 {
		t.Fatalf("every-runnable-excluded asked %d times, idle-core exclusion %d times", allExcluded, idleExcluded)
	}
}
