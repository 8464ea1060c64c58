// Package aim implements the Access Information Memory, the on-chip
// metadata cache the paper introduces for CE+ and reuses (as the registry
// store) in ARC. One AIM bank lives at each LLC tile and caches the
// per-line access metadata whose backing store is an in-memory table.
//
// The AIM is a presence/cost structure: the functional metadata itself is
// tracked by the protocol engines (they must agree with the golden
// detector regardless of AIM size), while the AIM decides whether a
// metadata access is an on-chip hit or must pay a DRAM round trip — which
// is exactly the performance/energy distinction between CE and CE+.
package aim

import (
	"fmt"

	"arcsim/internal/cache"
	"arcsim/internal/core"
)

// Config sizes the AIM.
type Config struct {
	// Entries is the total entry count across all tiles; zero disables
	// the AIM (the CE configuration: metadata lives in memory only).
	Entries int
	// Ways is the associativity of each bank.
	Ways int
	// Latency is the bank access latency in cycles.
	Latency uint64
}

// DefaultConfig is the evaluation configuration: a 32K-entry, 8-way AIM.
func DefaultConfig() Config {
	return Config{Entries: 32768, Ways: 8, Latency: 3}
}

// MaxEntries is the ceiling on Entries: 32x the default and 16x the
// largest size the F6 sweep runs. It bounds the banks' line arrays near
// 80 MB at any tile count; without it a geometrically valid size such as
// 1<<36 entries passes Validate and exhausts memory when the banks are
// built.
const MaxEntries = 1 << 20

// Validate checks the configuration for the given tile count.
func (c Config) Validate(tiles int) error {
	if c.Entries == 0 {
		return nil // disabled
	}
	if c.Entries < 0 || c.Ways <= 0 || c.Latency == 0 {
		return fmt.Errorf("aim: invalid config %+v", c)
	}
	if c.Entries > MaxEntries {
		return fmt.Errorf("aim: %d entries exceeds the %d-entry ceiling", c.Entries, MaxEntries)
	}
	per := c.Entries / tiles
	if per*tiles != c.Entries {
		return fmt.Errorf("aim: %d entries not divisible across %d tiles", c.Entries, tiles)
	}
	if per%c.Ways != 0 {
		return fmt.Errorf("aim: %d entries/tile not divisible by %d ways", per, c.Ways)
	}
	sets := per / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("aim: %d sets per tile not a power of two", sets)
	}
	return nil
}

// Stats counts AIM events for one bank.
type Stats struct {
	Hits            uint64
	Misses          uint64
	Fills           uint64
	DirtyWritebacks uint64
}

// Result describes one AIM access.
type Result struct {
	// Hit reports whether the entry was resident.
	Hit bool
	// Evicted reports whether the fill displaced a victim; VictimLine
	// and VictimDirty describe it. A dirty victim must be written back
	// to the in-memory metadata table.
	Evicted     bool
	VictimLine  core.Line
	VictimDirty bool
}

// Bank is one per-tile AIM bank.
type Bank struct {
	c     *cache.Cache
	Stats Stats
}

// NewBank builds one bank holding entriesPerTile entries.
func NewBank(entriesPerTile, ways int, tile int) *Bank {
	return &Bank{c: cache.New(cache.Config{
		Name:      fmt.Sprintf("aim%d", tile),
		SizeBytes: entriesPerTile * core.LineSize, // one entry per "line slot"
		Ways:      ways,
		IndexHash: true, // shared structure: hash like the LLC
	})}
}

// Access touches the entry for line, filling on a miss; dirty marks the
// entry modified (it will need a table writeback when displaced).
func (b *Bank) Access(line core.Line, dirty bool) Result {
	if ln := b.c.Lookup(line); ln != nil {
		b.Stats.Hits++
		ln.Dirty = ln.Dirty || dirty
		return Result{Hit: true}
	}
	b.Stats.Misses++
	b.Stats.Fills++
	slot, victim, evicted := b.c.Insert(line)
	slot.Dirty = dirty
	res := Result{Evicted: evicted}
	if evicted {
		res.VictimLine = victim.Tag
		res.VictimDirty = victim.Dirty
		if victim.Dirty {
			b.Stats.DirtyWritebacks++
		}
	}
	return res
}

// Reset empties the bank and zeroes its statistics (machine pooling).
func (b *Bank) Reset() {
	b.c.Reset()
	b.Stats = Stats{}
}

// Contains reports whether line is resident, without side effects.
func (b *Bank) Contains(line core.Line) bool { return b.c.Peek(line) != nil }

// Occupancy returns the number of resident entries.
func (b *Bank) Occupancy() int { return b.c.Occupancy() }

// Banks builds one bank per tile per cfg; it returns nil when the AIM is
// disabled.
func Banks(cfg Config, tiles int) []*Bank {
	if cfg.Entries == 0 {
		return nil
	}
	if err := cfg.Validate(tiles); err != nil {
		panic(err)
	}
	per := cfg.Entries / tiles
	banks := make([]*Bank, tiles)
	for i := range banks {
		banks[i] = NewBank(per, cfg.Ways, i)
	}
	return banks
}
