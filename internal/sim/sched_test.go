package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"arcsim/internal/trace"
	"arcsim/internal/workload"
)

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

func (d *scanDirector) Pick(cores []CoreState) int {
	d.want = -1
	if d.inner != nil {
		if p := d.inner.Pick(cores); p >= 0 && p < len(cores) && cores[p].Runnable {
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

func (d *everyThird) Pick(cores []CoreState) int {
	d.step++
	if d.step%3 != 0 {
		return -1
	}
	d.run = d.run[:0]
	for c, cs := range cores {
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
