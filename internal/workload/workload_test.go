package workload

import (
	"reflect"
	"testing"

	"arcsim/internal/trace"
)

func TestCatalogBuildsValidTraces(t *testing.T) {
	for _, spec := range Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			tr := spec.Build(Params{Threads: 4, Seed: 3, Scale: 0.05})
			if err := tr.Validate(); err != nil {
				t.Fatalf("invalid trace: %v", err)
			}
			if tr.NumThreads() != 4 {
				t.Errorf("threads = %d", tr.NumThreads())
			}
			if tr.Events() == 0 {
				t.Error("empty trace")
			}
			if tr.Name != spec.Name {
				t.Errorf("name = %q", tr.Name)
			}
		})
	}
}

func TestCatalogDeterminism(t *testing.T) {
	for _, spec := range Catalog() {
		p := Params{Threads: 3, Seed: 11, Scale: 0.02}
		a := spec.Build(p)
		b := spec.Build(p)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same params produced different traces", spec.Name)
		}
	}
}

func TestCatalogSeedSensitivity(t *testing.T) {
	// Different seeds should change the access stream for generators
	// that use randomness (all of them do).
	for _, spec := range Catalog() {
		a := spec.Build(Params{Threads: 2, Seed: 1, Scale: 0.02})
		b := spec.Build(Params{Threads: 2, Seed: 2, Scale: 0.02})
		if reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed has no effect", spec.Name)
		}
	}
}

func TestScaleGrowsTraces(t *testing.T) {
	for _, spec := range Catalog() {
		small := spec.Build(Params{Threads: 2, Seed: 1, Scale: 0.02})
		big := spec.Build(Params{Threads: 2, Seed: 1, Scale: 0.25})
		if big.Events() <= small.Events() {
			t.Errorf("%s: scale 0.25 (%d events) not larger than scale 0.02 (%d events)",
				spec.Name, big.Events(), small.Events())
		}
	}
}

func TestSuitePartition(t *testing.T) {
	drf, racy := Suite(), RacySuite()
	if len(drf)+len(racy) != len(Catalog()) {
		t.Fatalf("partition broken: %d + %d != %d", len(drf), len(racy), len(Catalog()))
	}
	if len(drf) != 14 {
		t.Errorf("DRF suite size = %d, want 14", len(drf))
	}
	if len(racy) != 3 {
		t.Errorf("racy suite size = %d, want 3", len(racy))
	}
	for _, s := range drf {
		if s.Racy {
			t.Errorf("%s marked racy in DRF suite", s.Name)
		}
	}
}

func TestByName(t *testing.T) {
	s, ok := ByName("canneal")
	if !ok || s.Name != "canneal" {
		t.Fatalf("ByName(canneal) = %v, %v", s, ok)
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) found something")
	}
	if len(Names()) != len(Catalog()) {
		t.Error("Names() size mismatch")
	}
	// Generator resolves the catalog and the three kernels outside it.
	for _, name := range append(Names(), "falseshare", "aimstress", "phasedisjoint") {
		if gen, ok := Generator(name); !ok || gen(Params{Threads: 4, Scale: 0.02}).Name != name {
			t.Errorf("Generator(%q) does not build %s", name, name)
		}
	}
	if _, ok := Generator("nope"); ok {
		t.Error("Generator(nope) found something")
	}
}

func TestSharingStructure(t *testing.T) {
	// The workloads must exhibit the sharing structure their real
	// counterparts are known for; experiment shapes depend on it.
	p := Params{Threads: 8, Seed: 5, Scale: 0.2}
	char := func(name string) trace.Characteristics {
		s, ok := ByName(name)
		if !ok {
			t.Fatalf("missing workload %s", name)
		}
		return trace.Characterize(s.Build(p))
	}

	bs := char("blackscholes")
	if bs.WriteSharedLines != 0 {
		t.Errorf("blackscholes has %d write-shared lines, want 0 (read-only sharing)", bs.WriteSharedLines)
	}

	fa := char("fluidanimate")
	if fa.AvgRegionLen > 60 {
		t.Errorf("fluidanimate avg region length = %.1f, want small (high sync rate)", fa.AvgRegionLen)
	}
	if fa.WriteSharedLines == 0 {
		t.Error("fluidanimate has no write sharing")
	}

	sw := char("swaptions")
	if sw.AvgRegionLen < 250 {
		t.Errorf("swaptions avg region length = %.1f, want long regions", sw.AvgRegionLen)
	}

	x := char("x264")
	if x.WriteSharedLines < 64 {
		t.Errorf("x264 write-shared lines = %d, want many (row handoff)", x.WriteSharedLines)
	}

	cn := char("canneal")
	if cn.DistinctLines < 2000 {
		t.Errorf("canneal touches %d lines, want a cache-hostile footprint", cn.DistinctLines)
	}

	rc := char("racy-counter")
	if rc.WriteSharedLines == 0 {
		t.Error("racy-counter has no write-shared lines")
	}
}

func TestRandomMixValidity(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		for _, racy := range []bool{false, true} {
			tr := Random(MixParams{Threads: 3, Seed: seed, EventsPerThread: 120, Racy: racy, Barriers: 2})
			if err := tr.Validate(); err != nil {
				t.Fatalf("seed %d racy=%v: %v", seed, racy, err)
			}
		}
	}
}

func TestRandomMixDeterminism(t *testing.T) {
	m := MixParams{Threads: 4, Seed: 9, EventsPerThread: 100, Racy: true, Barriers: 1}
	if !reflect.DeepEqual(Random(m), Random(m)) {
		t.Error("Random is not deterministic")
	}
}

func TestParamsNormalization(t *testing.T) {
	s, _ := ByName("blackscholes")
	tr := s.Build(Params{}) // all defaults
	if tr.NumThreads() != 8 {
		t.Errorf("default threads = %d, want 8", tr.NumThreads())
	}
}

func TestNewSuiteSharingStructure(t *testing.T) {
	p := Params{Threads: 8, Seed: 5, Scale: 0.2}
	char := func(name string) trace.Characteristics {
		s, ok := ByName(name)
		if !ok {
			t.Fatalf("missing workload %s", name)
		}
		return trace.Characterize(s.Build(p))
	}

	// radix: heavy write-shared lines (disjoint elements, shared lines).
	rx := char("radix")
	if rx.WriteSharedLines < 100 {
		t.Errorf("radix write-shared lines = %d, want many", rx.WriteSharedLines)
	}

	// barnes: the tree is write-shared across phases and read by all.
	bn := char("barnes")
	if bn.SharedFrac < 0.1 {
		t.Errorf("barnes shared fraction = %.2f, want substantial", bn.SharedFrac)
	}

	// lu: pivot blocks are written by one owner and read by everyone.
	l := char("lu")
	if l.WriteSharedLines == 0 {
		t.Error("lu has no write-shared lines")
	}

	// water: neighbor position exchange means write-shared positions.
	w := char("water")
	if w.WriteSharedLines == 0 {
		t.Error("water has no write-shared lines")
	}
}

func TestFalseSharingKernel(t *testing.T) {
	tr := FalseSharing(Params{Threads: 8, Seed: 1, Scale: 0.1})
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumThreads() != 8 {
		t.Errorf("threads = %d", tr.NumThreads())
	}
	// The hot words must be genuinely write-shared at line granularity.
	c := trace.Characterize(tr)
	if c.WriteSharedLines == 0 {
		t.Error("falseshare has no write-shared lines")
	}
	// Thread count is capped at 64 (one byte per thread over 8 words).
	big := FalseSharing(Params{Threads: 64, Seed: 1, Scale: 0.02})
	if big.NumThreads() != 64 {
		t.Errorf("capped threads = %d", big.NumThreads())
	}
}
