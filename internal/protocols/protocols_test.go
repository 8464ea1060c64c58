package protocols

import (
	"context"
	"fmt"
	"testing"

	"arcsim/internal/machine"
	"arcsim/internal/sim"
	"arcsim/internal/workload"
)

// allDesigns is every design Build knows.
var allDesigns = []string{
	MESI, CE, CEPlus, ARC, ARCNoRO, ARCNoPrivate, MOESI, CEPlusMOESI, CEPlusWord, ARCWord,
}

func TestBuildAll(t *testing.T) {
	for _, name := range Names() {
		m, p, err := Build(name, machine.Default(8))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("protocol name %q for design %q", p.Name(), name)
		}
		hasAIM := m.HasAIM()
		wantAIM := name == CEPlus || name == ARC
		if hasAIM != wantAIM {
			t.Errorf("%s: AIM presence = %v, want %v", name, hasAIM, wantAIM)
		}
	}
}

func TestBuildUnknown(t *testing.T) {
	if _, _, err := Build("dragon", machine.Default(8)); err == nil {
		t.Fatal("unknown design accepted")
	}
}

func TestBuildVariants(t *testing.T) {
	variants := map[string]string{
		MOESI:        "moesi",
		CEPlusMOESI:  "ce+moesi",
		CEPlusWord:   "ce+-word",
		ARCWord:      "arc-word",
		ARCNoRO:      "arc-noro",
		ARCNoPrivate: "arc-nopriv",
	}
	for design, wantName := range variants {
		_, p, err := Build(design, machine.Default(8))
		if err != nil {
			t.Fatalf("%s: %v", design, err)
		}
		if p.Name() != wantName {
			t.Errorf("%s: protocol name %q, want %q", design, p.Name(), wantName)
		}
	}
}

func TestBuildInvalidConfig(t *testing.T) {
	cfg := machine.Default(8)
	cfg.L1SizeBytes = 12345
	if _, _, err := Build(MESI, cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestCEPlusKeepsCustomAIM(t *testing.T) {
	cfg := machine.Default(8)
	cfg.AIM.Entries = 4096
	m, _, err := Build(CEPlus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cfg.AIM.Entries != 4096 {
		t.Errorf("AIM entries = %d, want 4096", m.Cfg.AIM.Entries)
	}
}

func TestDetectingSubset(t *testing.T) {
	if len(Detecting()) != 3 {
		t.Error("wrong detecting set")
	}
	for _, d := range Detecting() {
		if d == MESI {
			t.Error("baseline in detecting set")
		}
	}
}

// TestMachineConfigMatchesBuild pins MachineConfig to Build: over
// every design, core counts on both sides of each limit and AIM sizes
// valid and not (12 and 64 fail to divide across tiles or ways at some
// core counts, 1<<21 is over the ceiling), MachineConfig fails exactly
// when Build does, with the same error, and a built machine runs the
// configuration MachineConfig returned. Only valid configurations
// allocate a machine; the 63- and 64-core ones (about 85 MB each) are
// skipped under -short.
func TestMachineConfigMatchesBuild(t *testing.T) {
	for _, design := range allDesigns {
		for _, cores := range []int{1, 2, 3, 8, 16, 63, 64, 65} {
			for _, entries := range []int{0, 12, 64, 4096, 32768, 65536, 1 << 21} {
				cfg := machine.Default(cores)
				cfg.AIM.Entries = entries
				want, merr := MachineConfig(design, cfg)
				if merr == nil && testing.Short() && cores >= 63 {
					continue
				}
				m, _, berr := Build(design, cfg)
				where := fmt.Sprintf("%s/%d cores/%d entries", design, cores, entries)
				switch {
				case (merr == nil) != (berr == nil):
					t.Errorf("%s: MachineConfig error %v, Build error %v", where, merr, berr)
				case merr != nil:
					if merr.Error() != berr.Error() {
						t.Errorf("%s: MachineConfig error %q, Build error %q", where, merr, berr)
					}
				case m.Cfg != want:
					t.Errorf("%s: built %+v, MachineConfig returned %+v", where, m.Cfg, want)
				}
			}
		}
	}
}

// TestMachineConfigAllocatesNothing holds MachineConfig to what submit
// validation relies on: checking a valid configuration allocates
// nothing, where Build spends 20-85 MB on the machine.
func TestMachineConfigAllocatesNothing(t *testing.T) {
	cfg := machine.Default(16)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := MachineConfig(ARC, cfg); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("MachineConfig allocated %v times per call, want 0", allocs)
	}
}

var buildSink *machine.Machine

// BenchmarkBuild measures one machine+protocol build, the cost a run
// pays when no pooled pair is idle.
func BenchmarkBuild(b *testing.B) {
	for _, design := range Names() {
		for _, cores := range []int{16, 64} {
			b.Run(fmt.Sprintf("%s/%d", design, cores), func(b *testing.B) {
				cfg := machine.Default(cores)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m, _, err := Build(design, cfg)
					if err != nil {
						b.Fatal(err)
					}
					buildSink = m
				}
			})
		}
	}
}

var runSink *sim.Result

// BenchmarkRun times each design's protocol layer as the arcbench
// sim-core workload does: a Reset of a pooled pair plus one
// sim.RunContext, at sim-core's scale 0.25. canneal ends a region
// every few events over many resident private lines (ARC's boundary
// walk); racy-sharing logs tens of thousands of conflicts (the
// conflict set, and ARC's and CE's registry scans).
func BenchmarkRun(b *testing.B) {
	for _, design := range Names() {
		for _, wl := range []string{"canneal", "racy-sharing"} {
			for _, cores := range []int{16, 64} {
				b.Run(fmt.Sprintf("%s/%s/%d", design, wl, cores), func(b *testing.B) {
					spec, ok := workload.ByName(wl)
					if !ok {
						b.Fatalf("no workload %s", wl)
					}
					tr := spec.Build(workload.Params{Threads: cores, Seed: 1, Scale: 0.25})
					var pool Pool
					m, p, err := pool.Get(design, machine.Default(cores))
					if err != nil {
						b.Fatal(err)
					}
					run := func() {
						m.Reset()
						p.Reset()
						res, err := sim.RunContext(context.Background(), m, p, tr, sim.Options{})
						if err != nil {
							b.Fatal(err)
						}
						runSink = res
					}
					run() // warm the pair, as sim-core does
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						run()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*runSink.Events), "ns/event")
				})
			}
		}
	}
}
