package machine

import (
	"testing"

	"arcsim/internal/core"
)

func TestDefaultConfigValid(t *testing.T) {
	for _, cores := range []int{1, 2, 4, 8, 16, 32, 64} {
		if err := Default(cores).Validate(); err != nil {
			t.Errorf("Default(%d): %v", cores, err)
		}
	}
	// Fitted is valid at every core count, and is Default at the
	// evaluation's core counts.
	for cores := 1; cores <= 64; cores++ {
		if err := Fitted(cores).Validate(); err != nil {
			t.Errorf("Fitted(%d): %v", cores, err)
		}
		if cores >= 8 && cores&(cores-1) == 0 && Fitted(cores) != Default(cores) {
			t.Errorf("Fitted(%d) AIM %+v, want Default's", cores, Fitted(cores).AIM)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	mut := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.Cores = 65 },
		func(c *Config) { c.L1SizeBytes = 1000 },
		func(c *Config) { c.L1Latency = 0 },
		func(c *Config) { c.NoC.Tiles = 2 },
		func(c *Config) { c.AIM.Entries = 100 },
		func(c *Config) { c.DRAM.Channels = 0 },
		func(c *Config) { c.Energy.L1AccessPJ = 0 },
	}
	for i, f := range mut {
		cfg := Default(8)
		f(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestHomeTileInterleaving(t *testing.T) {
	m := New(Default(8))
	seen := map[int]bool{}
	for l := core.Line(0); l < 16; l++ {
		h := m.HomeTile(l)
		if h < 0 || h >= 8 {
			t.Fatalf("home tile %d out of range", h)
		}
		seen[h] = true
	}
	if len(seen) != 8 {
		t.Errorf("interleaving covers %d tiles, want 8", len(seen))
	}
}

func TestRegionLifecycle(t *testing.T) {
	m := New(Default(2))
	r0 := m.Region(0)
	if r0.Seq != 0 {
		t.Fatalf("initial seq = %d", r0.Seq)
	}
	if !m.ActiveRegion(r0) {
		t.Error("initial region inactive")
	}
	m.NextRegion(0)
	if m.ActiveRegion(r0) {
		t.Error("ended region still active")
	}
	if m.Region(0).Seq != 1 || m.Region(1).Seq != 0 {
		t.Error("region advance leaked across cores")
	}
}

func TestReportDeduplicatesAndPolicies(t *testing.T) {
	m := New(Default(2))
	c := core.Conflict{
		Line:   1,
		First:  core.RegionID{Core: 0, Seq: 0},
		Second: core.RegionID{Core: 1, Seq: 0},
	}
	if !m.Report(10, 1, c) {
		t.Fatal("first report rejected")
	}
	if m.Report(11, 0, c) {
		t.Error("duplicate accepted")
	}
	if len(m.Exceptions) != 1 || m.Halted {
		t.Errorf("exceptions=%d halted=%v", len(m.Exceptions), m.Halted)
	}

	cfg := Default(2)
	cfg.Policy = core.FailStop
	m2 := New(cfg)
	m2.Report(5, 0, c)
	if !m2.Halted {
		t.Error("FailStop did not halt")
	}
}

func TestMetaAccessPaths(t *testing.T) {
	// With AIM: first access misses (DRAM fill), second hits (no DRAM).
	m := New(Default(4))
	l1 := m.MetaAccess(0, 100, false, false)
	dramAfterFirst := m.Mem.Stats.Bytes()
	l2 := m.MetaAccess(0, 100, false, false)
	if m.Mem.Stats.Bytes() != dramAfterFirst {
		t.Error("AIM hit still touched DRAM")
	}
	if l2 >= l1 {
		t.Errorf("AIM hit latency %d not below miss latency %d", l2, l1)
	}

	// Without AIM (CE config): every access pays DRAM.
	cfg := Default(4)
	cfg.AIM.Entries = 0
	m2 := New(cfg)
	m2.MetaAccess(0, 100, false, false)
	m2.MetaAccess(0, 100, false, false)
	if m2.Mem.Stats.Reads != 2 {
		t.Errorf("CE metadata reads = %d, want 2", m2.Mem.Stats.Reads)
	}
	if m2.Mem.Stats.MetadataBytes == 0 {
		t.Error("metadata bytes not tracked")
	}
}

func TestSendChargesEnergy(t *testing.T) {
	m := New(Default(16))
	before := m.Meter.TotalPJ()
	m.Send(0, 0, 15, DataBytes)
	if m.Meter.TotalPJ() <= before {
		t.Error("no NoC energy charged")
	}
}

func TestRoundTrip(t *testing.T) {
	m := New(Default(16))
	one := m.Send(0, 0, 15, CtrlBytes)
	rt := m.RoundTrip(0, 0, 15, CtrlBytes, DataBytes)
	if rt <= one {
		t.Errorf("round trip %d not above one-way %d", rt, one)
	}
}

func TestStatsAggregation(t *testing.T) {
	m := New(Default(4))
	m.L1[0].Insert(1)
	m.L1[1].Insert(2)
	m.L1[0].Lookup(1)
	m.L1[1].Lookup(99)
	s := m.L1Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("aggregated L1 stats = %+v", s)
	}
	m.AIM[0].Access(5, false)
	if m.AIMStats().Fills != 1 {
		t.Error("AIM stats not aggregated")
	}
}

func TestFinishStatics(t *testing.T) {
	m := New(Default(8))
	m.FinishStatics(1000)
	if m.Meter.TotalPJ() == 0 {
		t.Error("no static energy")
	}
}
