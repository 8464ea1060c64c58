package protocols

import (
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"

	"arcsim/internal/cache"
	"arcsim/internal/core"
	"arcsim/internal/machine"
	"arcsim/internal/sim"
	"arcsim/internal/trace"
	"arcsim/internal/workload"
)

// runJSON runs tr on m and p and returns the result's canonical JSON.
func runJSON(t *testing.T, m *machine.Machine, p machine.Protocol, tr *trace.Trace) string {
	t.Helper()
	res, err := sim.Run(m, p, tr, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(j)
}

// TestPoolGetResets proves the pooling contract: a pair Put back comes
// out of Get Reset, so its next run is byte-identical to the same run on
// a fresh Build. A canneal trace large enough to leave lines in most LLC
// sets primes each pair first, then a racy run cut short leaves it
// mid-run, with live region metadata and conflicts, as a canceled job
// leaves its pair. The probe is canneal again, so it touches the lines
// the primed metadata covers.
func TestPoolGetResets(t *testing.T) {
	const cores = 4
	cfg := machine.Default(cores)
	canneal, _ := workload.ByName("canneal")
	racy, _ := workload.ByName("racy-sharing")
	prime := canneal.Build(workload.Params{Threads: cores, Seed: 2, Scale: 0.5})
	cut := racy.Build(workload.Params{Threads: cores, Seed: 2, Scale: 0.1})
	probe := canneal.Build(workload.Params{Threads: cores, Seed: 1, Scale: 0.02})
	for _, design := range allDesigns {
		design := design
		t.Run(design, func(t *testing.T) {
			var pool Pool
			m, p, err := pool.Get(design, cfg)
			if err != nil {
				t.Fatal(err)
			}
			runJSON(t, m, p, prime)
			occupied, sets := 0, 0
			for _, c := range m.LLC {
				seen := make(map[int]bool)
				c.ForEach(func(l *cache.Line) { seen[c.SetIndex(l.Tag)] = true })
				occupied += len(seen)
				sets += c.Config().Sets()
			}
			if 2*occupied < sets {
				t.Fatalf("priming run left lines in %d of %d LLC sets, want at least half", occupied, sets)
			}
			if _, err := sim.Run(m, p, cut, sim.Options{MaxCycles: 3000}); !errors.Is(err, sim.ErrMaxCycles) {
				t.Fatalf("cut-short run: %v", err)
			}
			pool.Put(design, m, p)
			if m2, p2, err := pool.Get(design, cfg); err != nil || m2 != m || p2 != p {
				t.Fatalf("Get did not hand out the idle pair (err %v)", err)
			}
			fm, fp, err := Build(design, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if pooled, fresh := runJSON(t, m, p, probe), runJSON(t, fm, fp, probe); pooled != fresh {
				t.Errorf("pooled result diverges from fresh build:\npooled: %s\nfresh:  %s", pooled, fresh)
			}
		})
	}
}

// TestPoolKeys pins which requests share a pair: the key is the design
// plus the whole normalized machine.Config, so any field that differs
// keeps pairs apart, and a field MachineConfig overrides does not.
func TestPoolKeys(t *testing.T) {
	def := machine.Default(4)
	aim, failStop := def, def
	aim.AIM.Entries = 4096
	failStop.Policy = core.FailStop
	for _, tc := range []struct {
		name           string
		putD, getD     string
		putCfg, getCfg machine.Config
		share          bool
	}{
		{"same config", ARC, ARC, def, def, true},
		{"AIM entries differ", CEPlus, CEPlus, aim, def, false},
		{"policy differs", CE, CE, def, failStop, false},
		{"mesi with and without an AIM size", MESI, MESI, aim, def, true},
		{"designs differ", CE, MESI, def, def, false},
	} {
		var pool Pool
		m, p, err := pool.Get(tc.putD, tc.putCfg)
		if err != nil {
			t.Fatal(err)
		}
		pool.Put(tc.putD, m, p)
		got, gp, err := pool.Get(tc.getD, tc.getCfg)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := MachineConfig(tc.getD, tc.getCfg)
		if shared := got == m; shared != tc.share || got.Cfg != want || gp.Name() != tc.getD {
			t.Errorf("%s: shared = %v, want %v; got %s on %+v, want %+v",
				tc.name, shared, tc.share, gp.Name(), got.Cfg, want)
		}
	}
}

// TestPoolGetInvalid holds Get on a configuration MachineConfig rejects
// to Build's error, with nothing built: a machine is megabytes, and Get
// may allocate only the error.
func TestPoolGetInvalid(t *testing.T) {
	var pool Pool
	for _, tc := range []struct {
		design string
		cores  int
	}{{"dragon", 8}, {MESI, 65}, {ARC, 12}} {
		cfg := machine.Default(tc.cores)
		_, _, berr := Build(tc.design, cfg)
		// TotalAlloc is process-wide, so another goroutine's allocation
		// can land inside one measured Get; the smallest of three deltas
		// is Get's own. A build would allocate megabytes every time.
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, p, err := pool.Get(tc.design, cfg)
			runtime.ReadMemStats(&after)
			if berr == nil || err == nil || err.Error() != berr.Error() || m != nil || p != nil {
				t.Errorf("%s/%d: Get = %v, %v, %v; want Build's error %v", tc.design, tc.cores, m, p, err, berr)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least >= 1<<12 {
			t.Errorf("%s/%d: Get allocated %d bytes, want only its error", tc.design, tc.cores, least)
		}
	}
}

// TestPoolConcurrent shares one Pool among goroutines, as a daemon's
// workers do: a pair is never lent to two borrowers at once.
func TestPoolConcurrent(t *testing.T) {
	var pool Pool
	var lent sync.Map
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				m, p, err := pool.Get(MESI, machine.Default(1))
				if _, dup := lent.LoadOrStore(m, true); err != nil || dup {
					t.Errorf("Get lent a pair twice at once, or failed: %v", err)
					return
				}
				lent.Delete(m)
				pool.Put(MESI, m, p)
			}
		}()
	}
	wg.Wait()
}
