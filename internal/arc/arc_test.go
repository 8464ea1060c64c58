package arc

import (
	"math/rand"
	"testing"

	"arcsim/internal/aim"
	"arcsim/internal/core"
	"arcsim/internal/machine"
)

func tiny(cores int) *machine.Machine {
	cfg := machine.Default(cores)
	cfg.L1SizeBytes = 8 * core.LineSize
	cfg.L1Ways = 2
	cfg.LLCSliceBytes = 32 * core.LineSize
	cfg.LLCWays = 2
	cfg.AIM = aim.Config{Entries: 16 * cores, Ways: 4, Latency: 3}
	return machine.New(cfg)
}

func acc(k core.AccessKind, a core.Addr, sz uint8) core.Access {
	return core.Access{Kind: k, Addr: a, Size: sz}
}

func TestPrivateLinesAreFree(t *testing.T) {
	m := tiny(2)
	p := New(m)
	p.Access(0, 0, acc(core.Write, 0x1000, 8))
	msgs := m.Mesh.Stats.Messages
	// Subsequent private hits must generate zero traffic.
	for i := 0; i < 10; i++ {
		p.Access(uint64(10+i), 0, acc(core.Write, 0x1000+core.Addr(i), 1))
		p.Access(uint64(50+i), 0, acc(core.Read, 0x1008, 8))
	}
	if m.Mesh.Stats.Messages != msgs {
		t.Errorf("private hits generated %d messages", m.Mesh.Stats.Messages-msgs)
	}
	if m.Counter("arc.registrations") != 0 {
		t.Error("private accesses registered eagerly")
	}
}

func TestPrivateDataSurvivesBoundary(t *testing.T) {
	m := tiny(2)
	p := New(m)
	p.Access(0, 0, acc(core.Write, 0x1000, 8))
	p.Boundary(10, 0)
	m.NextRegion(0)
	if m.L1[0].Peek(core.LineOf(0x1000)) == nil {
		t.Fatal("private line self-invalidated")
	}
	lat := p.Access(20, 0, acc(core.Read, 0x1000, 8))
	if lat > m.Cfg.L1Latency {
		t.Errorf("post-boundary private access latency = %d (should be an L1 hit)", lat)
	}
}

func TestRecallOnSecondToucher(t *testing.T) {
	m := tiny(2)
	p := New(m)
	p.Access(0, 0, acc(core.Write, 0x1000, 8))
	p.Access(10, 1, acc(core.Read, 0x1008, 8)) // disjoint bytes: no conflict
	if m.Counter("arc.recalls") != 1 {
		t.Fatalf("recalls = %d, want 1", m.Counter("arc.recalls"))
	}
	if m.Conflicts.Len() != 0 {
		t.Fatalf("disjoint bytes flagged: %v", m.Conflicts.Conflicts())
	}
	// The recall captured core 0's write bits: core 1 reading byte 0
	// must now conflict.
	p.Access(20, 1, acc(core.Read, 0x1000, 4))
	if m.Conflicts.Len() != 1 {
		t.Fatalf("conflict after recall missed (len=%d)", m.Conflicts.Len())
	}
	// Core 0's copy is now shared and self-invalidates at its boundary.
	l0 := m.L1[0].Peek(core.LineOf(0x1000))
	if l0 == nil || l0.State != lineSharedEager {
		t.Fatalf("owner copy not reclassified: %+v", l0)
	}
	p.Boundary(30, 0)
	m.NextRegion(0)
	if m.L1[0].Peek(core.LineOf(0x1000)) != nil {
		t.Error("shared line survived self-invalidation")
	}
}

func TestReadOnlyClassification(t *testing.T) {
	m := tiny(4)
	p := New(m)
	// Several cores read the same line: becomes read-only.
	for c := core.CoreID(0); c < 4; c++ {
		p.Access(uint64(c)*10, c, acc(core.Read, 0x2000, 8))
	}
	regs := m.Counter("arc.registrations")
	// Read-only hits are free and survive boundaries.
	for c := core.CoreID(0); c < 4; c++ {
		p.Boundary(100+uint64(c), c)
		m.NextRegion(c)
	}
	for c := core.CoreID(0); c < 4; c++ {
		if m.L1[int(c)].Peek(core.LineOf(0x2000)) == nil {
			t.Fatalf("core %d lost its read-only copy at a boundary", c)
		}
		p.Access(200+uint64(c), c, acc(core.Read, 0x2000, 8))
	}
	if m.Counter("arc.registrations") != regs {
		t.Error("read-only reads registered")
	}
	if m.Conflicts.Len() != 0 {
		t.Errorf("read-only sharing flagged: %v", m.Conflicts.Conflicts())
	}
}

func TestWriteToReadOnlyBroadcasts(t *testing.T) {
	m := tiny(4)
	p := New(m)
	for c := core.CoreID(0); c < 3; c++ {
		p.Access(uint64(c)*10, c, acc(core.Read, 0x2000, 8))
	}
	// Core 3 writes: must broadcast, collect the readers' bits, and
	// detect all three conflicts.
	p.Access(100, 3, acc(core.Write, 0x2000, 8))
	if m.Counter("arc.broadcasts") != 1 {
		t.Fatalf("broadcasts = %d", m.Counter("arc.broadcasts"))
	}
	if m.Conflicts.Len() != 3 {
		t.Fatalf("conflicts = %d, want 3 (one per reader)", m.Conflicts.Len())
	}
	// Readers' copies are now shared.
	for c := 0; c < 3; c++ {
		if l := m.L1[c].Peek(core.LineOf(0x2000)); l == nil || l.State != lineSharedEager {
			t.Errorf("core %d copy not reclassified: %+v", c, l)
		}
	}
}

func TestSharedWriteRegistersEagerly(t *testing.T) {
	m := tiny(2)
	p := New(m)
	// Make the line shared via write + recall.
	p.Access(0, 0, acc(core.Write, 0x3000, 8))
	p.Access(10, 1, acc(core.Write, 0x3008, 8)) // recall, shared now
	regs := m.Counter("arc.registrations")
	// Core 1 hit-writes new bytes: extension registration, and the
	// conflict with core 0's live write bits is caught at the registry.
	p.Access(20, 1, acc(core.Write, 0x3004, 4))
	if m.Counter("arc.registrations") != regs+1 {
		t.Error("extension registration not sent")
	}
	if m.Conflicts.Len() != 1 {
		t.Fatalf("hit-time conflict missed (len=%d)", m.Conflicts.Len())
	}
	// Re-touching the same bytes must not re-register.
	p.Access(30, 1, acc(core.Write, 0x3004, 4))
	if m.Counter("arc.registrations") != regs+1 {
		t.Error("duplicate registration for same bytes")
	}
}

func TestBoundaryDowngradesDirtySharedLines(t *testing.T) {
	// Lines A, B and C fall in L1 sets 0, 1 and 2 of tiny's 4-set L1.
	// Core 0 writes each (private, dirty), core 1 reads each (recalled:
	// shared, core 0 clean), and core 0 writes each again (dirty
	// shared). D is a line core 0 only reads after core 1 wrote it
	// (shared, clean); E stays private to core 0.
	lines := []core.Addr{0x3000, 0x3040, 0x3080}
	const d, e = core.Addr(0x30c0), core.Addr(0x5000)
	setup := func(m *machine.Machine, p *Protocol) {
		now := uint64(0)
		for _, a := range lines {
			p.Access(now, 0, acc(core.Write, a, 8))
			p.Access(now+10, 1, acc(core.Read, a+8, 8))
			p.Access(now+20, 0, acc(core.Write, a+0x10, 8))
			now += 30
		}
		p.Access(now, 1, acc(core.Write, d, 8))
		p.Access(now+10, 0, acc(core.Read, d+8, 8))
		p.Access(now+20, 0, acc(core.Write, e, 8))
	}
	m := tiny(2)
	p := New(m)
	setup(m, p)
	for i, a := range lines {
		if set := m.L1[0].SetIndex(core.LineOf(a)); set != i {
			t.Fatalf("line %#x in L1 set %d, want %d", uint64(a), set, i)
		}
		if l := m.L1[0].Peek(core.LineOf(a)); l == nil || !l.Dirty || (l.State != classShared && l.State != lineSharedEager) {
			t.Fatalf("line %#x is not a dirty shared line in core 0's L1: %+v", uint64(a), l)
		}
	}

	// The expected latency, replayed on a twin machine in ascending slot
	// order: the first write-through pays its full send latency, each
	// later one a quarter. Each moves its written bytes plus the mask.
	twin := tiny(2)
	setup(twin, New(twin))
	const now = 1000
	want := uint64(flashInvalidateCycles)
	for i, a := range lines {
		line := core.LineOf(a)
		sendLat := twin.Send(now+want, 0, twin.HomeTile(line), 16+machine.MaskBytes)
		if i == 0 {
			want += sendLat
		} else {
			want += sendLat / 4
		}
	}

	lat := p.Boundary(now, 0)
	m.NextRegion(0)
	if lat != want {
		t.Errorf("boundary latency = %d, want %d", lat, want)
	}
	if got := m.Counter("arc.downgrades"); got != 3 {
		t.Errorf("downgrades = %d, want 3", got)
	}
	if got := m.Counter("arc.selfinvalidations"); got != 4 {
		t.Errorf("self-invalidations = %d, want 4 (A, B, C and D)", got)
	}
	if m.Mesh.Stats != twin.Mesh.Stats {
		t.Errorf("boundary traffic %+v, want %+v", m.Mesh.Stats, twin.Mesh.Stats)
	}
	for _, a := range append(lines, d) {
		if m.L1[0].Peek(core.LineOf(a)) != nil {
			t.Errorf("shared line %#x survived the boundary", uint64(a))
		}
	}
	if m.L1[0].Peek(core.LineOf(e)) == nil {
		t.Error("private line self-invalidated")
	}
}

func TestEvictionSpillsPrivateBits(t *testing.T) {
	m := tiny(2)
	p := New(m)
	// Private line 0 with bits; force eviction (set 0: lines 0,4,8).
	p.Access(0, 0, acc(core.Write, 0, 8))
	p.Access(10, 0, acc(core.Read, 4*64, 8))
	p.Access(20, 0, acc(core.Read, 8*64, 8))
	if m.Counter("arc.bit_spills") == 0 {
		t.Fatal("private eviction did not spill bits")
	}
	// Second core touches the evicted line: recall finds nothing
	// resident, but the registry still has the spilled write bits.
	p.Access(30, 1, acc(core.Read, 0, 8))
	if m.Conflicts.Len() != 1 {
		t.Fatalf("conflict lost across eviction (len=%d)", m.Conflicts.Len())
	}
}

func TestRegionEndStopsDetection(t *testing.T) {
	m := tiny(2)
	p := New(m)
	p.Access(0, 0, acc(core.Write, 0x4000, 8))
	p.Boundary(10, 0)
	m.NextRegion(0)
	p.Access(20, 1, acc(core.Read, 0x4000, 8))
	if m.Conflicts.Len() != 0 {
		t.Errorf("conflict with ended region: %v", m.Conflicts.Conflicts())
	}
}

func TestNoInvalidationTraffic(t *testing.T) {
	// The structural claim of the design: writes never invalidate
	// remote copies; both cores keep their lines until their own
	// boundaries.
	m := tiny(2)
	p := New(m)
	p.Access(0, 0, acc(core.Read, 0x5000, 8))
	p.Access(10, 1, acc(core.Write, 0x5008, 8)) // recall; no invalidation
	if m.L1[0].Peek(core.LineOf(0x5000)) == nil {
		t.Error("remote write invalidated the reader's copy")
	}
}

// TestMatchesGoldenOracle is the ARC counterpart of CE's oracle test.
func TestMatchesGoldenOracle(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		cores := 2 + int(seed%3)
		m := tiny(cores)
		p := New(m)
		g := core.NewGolden(cores)
		rng := rand.New(rand.NewSource(seed))
		now := uint64(0)
		for i := 0; i < 400; i++ {
			c := core.CoreID(rng.Intn(cores))
			if rng.Intn(12) == 0 {
				now += p.Boundary(now, c)
				m.NextRegion(c)
				g.Boundary(c)
				continue
			}
			line := core.Line(rng.Intn(12))
			off := uint(rng.Intn(8)) * 8
			size := uint8(1 << rng.Intn(4))
			k := core.Read
			if rng.Intn(2) == 0 {
				k = core.Write
			}
			a := acc(k, line.Base()+core.Addr(off), size)
			now += p.Access(now, c, a)
			g.Access(c, a)
		}
		if ok, diff := m.Conflicts.Equal(g.Set()); !ok {
			t.Fatalf("seed %d cores=%d: ARC != golden: %s", seed, cores, diff)
		}
	}
}

func TestName(t *testing.T) {
	if New(tiny(2)).Name() != "arc" {
		t.Error("wrong name")
	}
	if NewWithOptions(tiny(2), Options{DisableReadOnly: true}).Name() != "arc-noro" {
		t.Error("wrong ablated name")
	}
	if NewWithOptions(tiny(2), Options{DisablePrivate: true}).Name() != "arc-nopriv" {
		t.Error("wrong ablated name")
	}
}

// TestAblationsMatchGoldenOracle: disabling classification optimizations
// changes cost, never correctness.
func TestAblationsMatchGoldenOracle(t *testing.T) {
	variants := []Options{
		{DisableReadOnly: true},
		{DisablePrivate: true},
		{DisableReadOnly: true, DisablePrivate: true},
	}
	for vi, opts := range variants {
		for seed := int64(0); seed < 15; seed++ {
			cores := 2 + int(seed%3)
			m := tiny(cores)
			p := NewWithOptions(m, opts)
			g := core.NewGolden(cores)
			rng := rand.New(rand.NewSource(seed))
			now := uint64(0)
			for i := 0; i < 300; i++ {
				c := core.CoreID(rng.Intn(cores))
				if rng.Intn(12) == 0 {
					now += p.Boundary(now, c)
					m.NextRegion(c)
					g.Boundary(c)
					continue
				}
				line := core.Line(rng.Intn(12))
				off := uint(rng.Intn(8)) * 8
				size := uint8(1 << rng.Intn(4))
				k := core.Read
				if rng.Intn(2) == 0 {
					k = core.Write
				}
				a := acc(k, line.Base()+core.Addr(off), size)
				now += p.Access(now, c, a)
				g.Access(c, a)
			}
			if ok, diff := m.Conflicts.Equal(g.Set()); !ok {
				t.Fatalf("variant %d seed %d: != golden: %s", vi, seed, diff)
			}
		}
	}
}

func TestAblationsChangeCost(t *testing.T) {
	// Disabling the private class must make region-crossing private
	// reuse chattier: shared-class lines self-invalidate at every
	// boundary and must be refetched, while private lines survive.
	run := func(opts Options) uint64 {
		m := tiny(2)
		p := NewWithOptions(m, opts)
		now := uint64(0)
		for r := 0; r < 10; r++ {
			for i := 0; i < 8; i++ {
				now += p.Access(now, 0, acc(core.Write, core.Addr(0x1000+8*i), 8))
			}
			now += p.Boundary(now, 0)
			m.NextRegion(0)
		}
		return m.Mesh.Stats.Messages
	}
	if full, abl := run(Options{}), run(Options{DisablePrivate: true}); abl <= full {
		t.Errorf("no-private traffic %d not above full design %d", abl, full)
	}
}
