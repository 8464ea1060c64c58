package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"arcsim/internal/core"
)

func cfg4x2() Config {
	// 4 sets x 2 ways.
	return Config{Name: "t", SizeBytes: 4 * 2 * core.LineSize, Ways: 2}
}

func TestConfigValidate(t *testing.T) {
	if err := cfg4x2().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Name: "zero", SizeBytes: 0, Ways: 1},
		{Name: "ways", SizeBytes: 1024, Ways: 0},
		{Name: "align", SizeBytes: 1000, Ways: 2},
		{Name: "pow2", SizeBytes: 3 * 2 * core.LineSize, Ways: 2},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", c.Name)
		}
	}
}

func TestHitMiss(t *testing.T) {
	c := New(cfg4x2())
	if c.Lookup(1) != nil {
		t.Fatal("hit in empty cache")
	}
	c.Insert(1)
	if c.Lookup(1) == nil {
		t.Fatal("miss after insert")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(cfg4x2())
	// Lines 0, 4, 8 all map to set 0 (4 sets). Two ways.
	c.Insert(0)
	c.Insert(4)
	c.Lookup(0) // 0 is now MRU, 4 is LRU
	_, victim, evicted := c.Insert(8)
	if !evicted || victim.Tag != 4 {
		t.Fatalf("victim = %+v evicted=%v, want tag 4", victim, evicted)
	}
	if c.Peek(0) == nil || c.Peek(8) == nil || c.Peek(4) != nil {
		t.Error("wrong resident set after eviction")
	}
}

func TestDirtyEvictionCounted(t *testing.T) {
	c := New(cfg4x2())
	slot, _, _ := c.Insert(0)
	slot.Dirty = true
	c.Insert(4)
	c.Insert(8) // evicts 0 (LRU), which is dirty
	if c.Stats.DirtyEvictions != 1 {
		t.Errorf("dirty evictions = %d", c.Stats.DirtyEvictions)
	}
}

func TestDoubleInsertPanics(t *testing.T) {
	c := New(cfg4x2())
	c.Insert(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double insert")
		}
	}()
	c.Insert(1)
}

func TestInvalidate(t *testing.T) {
	c := New(cfg4x2())
	slot, _, _ := c.Insert(3)
	slot.Dirty = true
	old, ok := c.Invalidate(3)
	if !ok || !old.Dirty || old.Tag != 3 {
		t.Fatalf("invalidate returned %+v %v", old, ok)
	}
	if c.Peek(3) != nil {
		t.Error("line still resident")
	}
	if _, ok := c.Invalidate(3); ok {
		t.Error("second invalidate succeeded")
	}
}

func TestInvalidateIf(t *testing.T) {
	c := New(cfg4x2())
	for i := core.Line(0); i < 6; i++ {
		slot, _, _ := c.Insert(i)
		slot.State = uint8(i % 2)
	}
	n := c.InvalidateIf(allSets(c), func(l *Line) bool { return l.State == 0 })
	if n != 3 {
		t.Errorf("invalidated %d, want 3", n)
	}
	c.ForEach(func(l *Line) {
		if l.State == 0 {
			t.Errorf("state-0 line %#x survived", uint64(l.Tag))
		}
	})
}

// allSets returns an InvalidateIf set mask naming every set of c.
func allSets(c *Cache) []uint64 {
	sets := make([]uint64, (c.cfg.Sets()+63)/64)
	for s := 0; s < c.cfg.Sets(); s++ {
		sets[s>>6] |= 1 << (s & 63)
	}
	return sets
}

func TestOccupancyAndForEach(t *testing.T) {
	c := New(cfg4x2())
	for i := core.Line(0); i < 5; i++ {
		c.Insert(i)
	}
	if got := c.Occupancy(); got != 5 {
		t.Errorf("occupancy = %d", got)
	}
	seen := 0
	c.ForEach(func(*Line) { seen++ })
	if seen != 5 {
		t.Errorf("ForEach visited %d", seen)
	}
}

// TestLRUStackProperty: with a single set, after any access sequence the
// resident lines are exactly the k most recently used distinct lines.
func TestLRUStackProperty(t *testing.T) {
	const ways = 4
	c := New(Config{Name: "stack", SizeBytes: ways * core.LineSize, Ways: ways})
	rng := rand.New(rand.NewSource(99))
	var history []core.Line
	for step := 0; step < 2000; step++ {
		line := core.Line(rng.Intn(12))
		if c.Lookup(line) == nil {
			c.Insert(line)
		}
		history = append(history, line)

		// Most recent `ways` distinct lines.
		want := map[core.Line]bool{}
		for i := len(history) - 1; i >= 0 && len(want) < ways; i-- {
			want[history[i]] = true
		}
		got := map[core.Line]bool{}
		c.ForEach(func(l *Line) { got[l.Tag] = true })
		if len(got) != len(want) {
			t.Fatalf("step %d: residency size %d want %d", step, len(got), len(want))
		}
		for ln := range want {
			if !got[ln] {
				t.Fatalf("step %d: line %d missing from cache", step, ln)
			}
		}
	}
}

func TestSetIndexDistribution(t *testing.T) {
	// Lines differing only above the set bits must land in the same set
	// (and therefore evict each other); lines in different sets must not.
	c := New(cfg4x2()) // 4 sets
	c.Insert(0)
	c.Insert(1) // different set
	c.Insert(2)
	c.Insert(3)
	if c.Occupancy() != 4 {
		t.Fatalf("occupancy = %d, want 4 (no conflicts across sets)", c.Occupancy())
	}
}

// TestResetMatchesNew drives caches through a seeded mix of every
// mutating operation and requires Reset to restore exactly what New
// builds — line array, recency clock, statistics, and empty touched-slot
// and valid-slot bitmaps — even though it clears only the slots Insert
// flagged. The geometries cover the hashed and unhashed index, a slot
// count spanning several bitmap words, and sets whose slots straddle a
// bitmap word.
func TestResetMatchesNew(t *testing.T) {
	cfgs := []Config{
		{Name: "plain", SizeBytes: 8 * 4 * core.LineSize, Ways: 4},
		{Name: "hashed", SizeBytes: 8 * 4 * core.LineSize, Ways: 4, IndexHash: true},
		{Name: "plain-wide", SizeBytes: 256 * 2 * core.LineSize, Ways: 2},
		{Name: "hashed-wide", SizeBytes: 256 * 2 * core.LineSize, Ways: 2, IndexHash: true},
		{Name: "odd-ways", SizeBytes: 64 * 3 * core.LineSize, Ways: 3},
	}
	for _, cfg := range cfgs {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			requireFresh := func(c *Cache, when string) {
				t.Helper()
				for w, mask := range c.touched {
					if mask != 0 {
						t.Fatalf("%s: touched word %d = %#x, want empty", when, w, mask)
					}
				}
				if !reflect.DeepEqual(c, New(cfg)) {
					t.Fatalf("%s: cache differs from New(cfg): tick %d, stats %+v, occupancy %d",
						when, c.tick, c.Stats, c.Occupancy())
				}
			}

			c := New(cfg)
			c.Reset()
			requireFresh(c, "reset of a never-used cache")

			rng := rand.New(rand.NewSource(7))
			lines := core.Line(4 * cfg.Sets() * cfg.Ways)
			for round := 0; round < 3; round++ {
				for step := 0; step < 4000; step++ {
					line := core.Line(rng.Int63n(int64(lines)))
					switch op := rng.Intn(10); {
					case op < 4:
						if c.Peek(line) == nil {
							slot, _, _ := c.Insert(line)
							slot.Dirty = rng.Intn(2) == 0
							slot.State = uint8(rng.Intn(4))
							slot.Sharers = rng.Uint64()
							slot.Owner = int16(rng.Intn(16))
							slot.Aux = rng.Uint64()
							slot.Bits.WriteMask = core.ByteMask(rng.Uint64())
							slot.Remote.ReadMask = core.ByteMask(rng.Uint64())
						}
					case op < 7:
						c.Lookup(line)
					case op < 8:
						c.Invalidate(line)
					case op < 9:
						state := uint8(rng.Intn(4))
						c.InvalidateIf(allSets(c), func(l *Line) bool { return l.State == state && l.Tag&1 == 0 })
					default:
						c.ForEach(func(l *Line) {
							l.Aux++
							l.Dirty = !l.Dirty
						})
					}
				}
				if c.Occupancy() == 0 {
					t.Fatalf("round %d: the operation mix left the cache empty", round)
				}
				c.Reset()
				requireFresh(c, fmt.Sprintf("reset after round %d", round))
				c.Reset()
				requireFresh(c, fmt.Sprintf("second reset after round %d", round))
			}
		})
	}
}

// TestValidSlotWalks checks the valid-slot bitmap against a plain model
// over a seeded mix of Insert, Lookup, Invalidate, InvalidateIf and
// Reset: after every operation the bitmap agrees with Line.Valid on
// every slot, ForEach visits exactly the valid lines in ascending slot
// order (what a scan of the line array visits), InvalidateIf under a
// random set mask visits exactly the valid lines of the masked sets in
// that order, Occupancy matches, and the resident tags are the model's.
func TestValidSlotWalks(t *testing.T) {
	cfgs := []Config{
		{Name: "direct", SizeBytes: 128 * core.LineSize, Ways: 1},
		{Name: "odd-ways", SizeBytes: 64 * 3 * core.LineSize, Ways: 3},
		{Name: "hashed", SizeBytes: 16 * 8 * core.LineSize, Ways: 8, IndexHash: true},
		{Name: "wide-sets", SizeBytes: 4 * 96 * core.LineSize, Ways: 96},
	}
	for _, cfg := range cfgs {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			c := New(cfg)
			model := map[core.Line]bool{}
			// scan lists the valid slots of the sets in (every set when in
			// is nil) the way a walk of the whole line array finds them.
			scan := func(in []uint64) []*Line {
				var out []*Line
				for i := range c.lines {
					set := i / cfg.Ways
					if c.lines[i].Valid && (in == nil || in[set>>6]&(1<<(set&63)) != 0) {
						out = append(out, &c.lines[i])
					}
				}
				return out
			}
			check := func(step int, op string) {
				t.Helper()
				for i := range c.lines {
					if bit := c.valid[i>>6]&(1<<(i&63)) != 0; bit != c.lines[i].Valid {
						t.Fatalf("step %d (%s): slot %d valid bit %v, Line.Valid %v", step, op, i, bit, c.lines[i].Valid)
					}
				}
				want := scan(nil)
				var got []*Line
				c.ForEach(func(l *Line) { got = append(got, l) })
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d (%s): ForEach visited %d lines, a scan finds %d (or in another order)", step, op, len(got), len(want))
				}
				if c.Occupancy() != len(model) || len(want) != len(model) {
					t.Fatalf("step %d (%s): occupancy %d, scan %d, model %d", step, op, c.Occupancy(), len(want), len(model))
				}
				for _, l := range want {
					if !model[l.Tag] {
						t.Fatalf("step %d (%s): line %#x resident but not in the model", step, op, uint64(l.Tag))
					}
				}
			}

			rng := rand.New(rand.NewSource(11))
			lines := core.Line(3 * cfg.Sets() * cfg.Ways)
			for step := 0; step < 6000; step++ {
				line := core.Line(rng.Int63n(int64(lines)))
				var op string
				switch k := rng.Intn(20); {
				case k < 9:
					op = "insert"
					if c.Peek(line) == nil {
						slot, victim, evicted := c.Insert(line)
						slot.State = uint8(rng.Intn(4))
						model[line] = true
						if evicted {
							delete(model, victim.Tag)
						}
					}
				case k < 13:
					op = "lookup"
					if hit := c.Lookup(line) != nil; hit != model[line] {
						t.Fatalf("step %d: Lookup(%#x) hit=%v, model %v", step, uint64(line), hit, model[line])
					}
				case k < 16:
					op = "invalidate"
					if _, ok := c.Invalidate(line); ok != model[line] {
						t.Fatalf("step %d: Invalidate(%#x) = %v, model %v", step, uint64(line), ok, model[line])
					}
					delete(model, line)
				case k < 19:
					op = "invalidate-if"
					state := uint8(rng.Intn(4))
					// A random set mask: one set, about half the sets, or
					// every set.
					sets := make([]uint64, (cfg.Sets()+63)/64)
					switch rng.Intn(3) {
					case 0:
						s := rng.Intn(cfg.Sets())
						sets[s>>6] |= 1 << (s & 63)
					case 1:
						for s := 0; s < cfg.Sets(); s++ {
							if rng.Intn(2) == 0 {
								sets[s>>6] |= 1 << (s & 63)
							}
						}
					default:
						sets = allSets(c)
					}
					want := scan(sets)
					var visited []*Line
					dropped := 0
					n := c.InvalidateIf(sets, func(l *Line) bool {
						visited = append(visited, l)
						if l.State != state {
							return false
						}
						delete(model, l.Tag)
						dropped++
						return true
					})
					if !reflect.DeepEqual(visited, want) {
						t.Fatalf("step %d: InvalidateIf visited %d lines, a scan finds %d (or in another order)", step, len(visited), len(want))
					}
					if n != dropped {
						t.Fatalf("step %d: InvalidateIf reported %d drops, predicate accepted %d", step, n, dropped)
					}
				default:
					op = "reset"
					c.Reset()
					clear(model)
				}
				check(step, op)
			}
		})
	}
}
