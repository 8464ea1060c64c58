package aim

import (
	"testing"

	"arcsim/internal/core"
)

func TestHitMissFill(t *testing.T) {
	b := NewBank(64, 4, 0)
	r := b.Access(10, false)
	if r.Hit {
		t.Fatal("hit in empty bank")
	}
	r = b.Access(10, false)
	if !r.Hit {
		t.Fatal("miss after fill")
	}
	if b.Stats.Hits != 1 || b.Stats.Misses != 1 || b.Stats.Fills != 1 {
		t.Errorf("stats = %+v", b.Stats)
	}
}

func TestDirtyVictimWriteback(t *testing.T) {
	// 4 entries, 4 ways: a single set.
	b := NewBank(4, 4, 0)
	b.Access(0, true)
	for i := core.Line(1); i < 4; i++ {
		b.Access(i, false)
	}
	r := b.Access(4, false) // evicts line 0 (LRU, dirty)
	if !r.Evicted || r.VictimLine != 0 || !r.VictimDirty {
		t.Fatalf("eviction result = %+v", r)
	}
	if b.Stats.DirtyWritebacks != 1 {
		t.Errorf("dirty writebacks = %d", b.Stats.DirtyWritebacks)
	}
}

func TestDirtyUpgradeOnHit(t *testing.T) {
	b := NewBank(4, 4, 0)
	b.Access(0, false)
	b.Access(0, true) // hit upgrades to dirty
	for i := core.Line(1); i < 5; i++ {
		b.Access(i, false)
	}
	if b.Stats.DirtyWritebacks != 1 {
		t.Errorf("dirty upgrade lost: %+v", b.Stats)
	}
}

func TestContains(t *testing.T) {
	b := NewBank(8, 2, 0)
	if b.Contains(5) {
		t.Error("phantom entry")
	}
	b.Access(5, false)
	if !b.Contains(5) {
		t.Error("entry missing")
	}
	if b.Occupancy() != 1 {
		t.Errorf("occupancy = %d", b.Occupancy())
	}
}

func TestBanksConstruction(t *testing.T) {
	banks := Banks(DefaultConfig(), 8)
	if len(banks) != 8 {
		t.Fatalf("banks = %d", len(banks))
	}
	if Banks(Config{}, 8) != nil {
		t.Error("disabled AIM produced banks")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(8); err != nil {
		t.Fatal(err)
	}
	if err := (Config{}).Validate(8); err != nil {
		t.Errorf("disabled config rejected: %v", err)
	}
	if err := (Config{Entries: MaxEntries, Ways: 8, Latency: 3}).Validate(64); err != nil {
		t.Errorf("config at the ceiling rejected: %v", err)
	}
	bad := []Config{
		{Entries: -1, Ways: 4, Latency: 1},
		{Entries: 100, Ways: 4, Latency: 1},            // not divisible by 8 tiles
		{Entries: 1024, Ways: 0, Latency: 1},           // no ways
		{Entries: 1024, Ways: 4, Latency: 0},           // no latency
		{Entries: 8 * 24, Ways: 8, Latency: 1},         // 3 sets per tile, not pow2
		{Entries: 2 * MaxEntries, Ways: 8, Latency: 3}, // over the ceiling
		{Entries: 1 << 36, Ways: 8, Latency: 3},        // valid geometry, out of memory when built
	}
	for i, c := range bad {
		if err := c.Validate(8); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}
