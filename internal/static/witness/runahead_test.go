package witness

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"arcsim/internal/core"
	"arcsim/internal/static"
)

// TestRunAheadContract drives the walk with scripted replays: random
// targets, a random verdict per attempt (confirm, fail, or an error) and
// a random budget, at 1 to 4 jobs. At every jobs value the walk must
// return the serial walk's report and error; at most jobs replays may
// run at once; at most jobs-1 started replays may go unconsumed, and
// none unless some attempt failed; and the walk may return only once
// every replay it started has finished. First
// attempts, the only ones started ahead, sleep, so a wasted one is still
// running when a walk that does not wait for it returns.
func TestRunAheadContract(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	scripted := errors.New("scripted replay failure")
	wasted := 0
	for trial := 0; trial < 100; trial++ {
		targets := make([]target, 1+rng.Intn(6))
		const (
			fail = iota
			confirm
			fault
		)
		verdict := map[Directive]int{}
		for i := range targets {
			pairs := make([][2]core.RegionID, 1+rng.Intn(3))
			for k := range pairs {
				pairs[k] = [2]core.RegionID{{Core: 0, Seq: uint64(k)}, {Core: 1, Seq: uint64(k)}}
			}
			targets[i] = target{rec: i, pc: static.PredictedConflict{Line: core.Line(i)}, pairs: pairs}
			for j := 0; j < targets[i].attempts(); j++ {
				v := fail
				switch r := rng.Intn(20); {
				case r == 0:
					v = fault
				case r < 8:
					v = confirm
				}
				verdict[targets[i].directive(j)] = v
			}
		}
		budget := rng.Intn(3*len(targets)+2) - 1

		var want *Report
		var wantErr string
		for jobs := 1; jobs <= 4; jobs++ {
			var running, peak, started, finished atomic.Int64
			ra := &runAhead{jobs: jobs, budget: budget, targets: targets,
				replay: func(_ *target, d Directive) (bool, error) {
					started.Add(1)
					n := running.Add(1)
					for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
					}
					if d.Order == OrderAFirst && d.A.Seq == 0 {
						time.Sleep(300 * time.Microsecond)
					}
					running.Add(-1)
					defer finished.Add(1)
					switch verdict[d] {
					case confirm:
						return true, nil
					case fault:
						return false, scripted
					}
					return false, nil
				}}
			rep := &Report{Predictions: make([]Prediction, len(targets))}
			before := runtime.NumGoroutine()
			err := ra.walk(rep)
			if s, f := started.Load(), finished.Load(); s != f {
				t.Fatalf("trial %d, %d jobs: walk returned with %d of %d replays running", trial, jobs, s-f, s)
			}
			if after := settle(before); after > before {
				t.Fatalf("trial %d, %d jobs: %d goroutines after the walk, %d before", trial, jobs, after, before)
			}
			if p := peak.Load(); p > int64(max(jobs, 1)) {
				t.Fatalf("trial %d, %d jobs: %d replays ran at once", trial, jobs, p)
			}
			w := started.Load() - int64(rep.Replays)
			if w > int64(jobs-1) {
				t.Fatalf("trial %d, %d jobs: %d started replays went unconsumed", trial, jobs, w)
			}
			// Only an attempt that did not confirm can waste one: the
			// guess that every attempt confirms starts nothing the
			// budget cannot reach.
			missed := err != nil
			for _, p := range rep.Predictions {
				missed = missed || p.Replays > 1 || (p.Replays == 1 && p.Status != Confirmed)
			}
			if w > 0 && !missed {
				t.Fatalf("trial %d, %d jobs: %d replays wasted though every attempt confirmed", trial, jobs, w)
			}
			wasted += int(w)
			if jobs == 1 {
				want, wantErr = rep, fmt.Sprint(err)
				continue
			}
			if fmt.Sprint(err) != wantErr {
				t.Fatalf("trial %d, %d jobs: error %v, serial walk %s", trial, jobs, err, wantErr)
			}
			if err == nil && !reflect.DeepEqual(rep, want) {
				t.Fatalf("trial %d, %d jobs: report differs from the serial walk's:\n%+v\nwant\n%+v", trial, jobs, rep, want)
			}
		}
	}
	if wasted == 0 {
		t.Fatal("no trial wasted a replay; the budget cut is untested")
	}
}

// settle returns the goroutine count once it is back to n, or after a
// second: a goroutine that has signalled its WaitGroup may still take a
// moment to exit.
func settle(n int) int {
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}
