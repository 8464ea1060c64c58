// Package cache models set-associative caches with true-LRU replacement.
// The same structure backs the private L1s of every design and the shared
// LLC slices; protocol engines own the meaning of the per-line State,
// Bits, Sharers, and Owner fields.
package cache

import (
	"fmt"
	"math/bits"

	"arcsim/internal/core"
)

// NoOwner marks a line without a current owning core (LLC directory use).
const NoOwner = int16(-1)

// Line is one cache line's bookkeeping. Data values are not simulated —
// only addresses, states, and metadata, which is all conflict detection
// and traffic accounting need. The small fields share one word, which
// keeps a Line at 72 bytes: line arrays are most of a machine's memory.
type Line struct {
	Tag   core.Line
	Valid bool
	Dirty bool
	// State is protocol-defined (e.g. MESI states, ARC line classes).
	State uint8
	// Owner and Sharers implement the LLC directory: the exclusive
	// owner if any, and a bitmask of cores with a copy.
	Owner int16
	// Bits carries per-line region access metadata (CE: the local
	// region's read/write bytes; ARC: the current region's touch bits).
	Bits core.AccessBits
	// Remote caches the union of other cores' live access bits for the
	// line (CE uses it to detect conflicts on L1 hits without traffic).
	Remote core.AccessBits
	// Sharers is the directory's copy mask (see Owner).
	Sharers uint64
	// Aux is protocol scratch (e.g. the region sequence number that
	// Bits belongs to).
	Aux uint64

	lru uint64
}

// Stats counts cache events.
type Stats struct {
	Hits           uint64
	Misses         uint64
	Evictions      uint64
	DirtyEvictions uint64
}

// Config sizes a cache.
type Config struct {
	Name string
	// SizeBytes is the capacity; must be a multiple of Ways*LineSize
	// and yield a power-of-two set count.
	SizeBytes int
	Ways      int
	// IndexHash mixes the upper line-address bits into the set index.
	// Shared structures (LLC slices, AIM banks) use it — as real LLCs
	// do — so that threads whose data differs only in high address
	// bits do not collide on one set. Private L1s keep the
	// conventional low-bit index.
	IndexHash bool
}

// Sets returns the number of sets the config implies.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * core.LineSize) }

// SetOf returns the set a line maps to under this configuration, without
// instantiating the cache (the phase-parallel planner counts per-set
// occupancy over configs whose line arrays would be megabytes). The
// config must be valid.
func (c Config) SetOf(line core.Line) int {
	h := uint64(line)
	if c.IndexHash {
		h *= 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	return int(h & uint64(c.Sets()-1))
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry", c.Name)
	}
	if c.SizeBytes%(c.Ways*core.LineSize) != 0 {
		return fmt.Errorf("cache %q: size %d not divisible by ways*linesize", c.Name, c.SizeBytes)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Cache is a set-associative cache. It is not safe for concurrent use;
// the simulator is single-goroutine by design (deterministic replay).
type Cache struct {
	cfg     Config
	setMask uint64
	lines   []Line // sets * ways, set-major
	tick    uint64
	// touched has one bit per slot, raised by Insert — the only path
	// that makes a line valid, and so the only way a slot can leave the
	// all-zero state New creates. Reset clears just those slots.
	touched []uint64
	// valid has one bit per slot, mirroring Line.Valid: Insert raises
	// it, Invalidate, InvalidateIf and Reset lower it. ForEach,
	// InvalidateIf and Occupancy walk it, so they cost the resident
	// lines, not the capacity. valid ⊆ touched.
	valid []uint64

	Stats Stats
}

// New builds a cache; it panics on invalid configuration (a programming
// error — configs are validated when machines are assembled).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	// Lines start invalid; Owner is only meaningful on valid lines and
	// Insert initializes it, so no per-line setup pass is needed (it
	// would touch tens of megabytes per machine).
	return &Cache{
		cfg:     cfg,
		setMask: uint64(cfg.Sets() - 1),
		lines:   make([]Line, cfg.Sets()*cfg.Ways),
		touched: make([]uint64, (cfg.Sets()*cfg.Ways+63)/64),
		valid:   make([]uint64, (cfg.Sets()*cfg.Ways+63)/64),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Reset empties the cache and zeroes its statistics, returning it to
// its freshly-built state (deep-equal to New(cfg)) without reallocating
// the line array. Only the slots Insert filled since the last Reset are
// cleared: every other line is still all-zero, so a run that filled a
// few hundred lines of a megabyte LLC slice pays for those alone.
// Pooled machines use it between runs; it allocates nothing.
func (c *Cache) Reset() {
	for w, mask := range c.touched {
		if mask == 0 {
			continue
		}
		for ; mask != 0; mask &= mask - 1 {
			c.lines[w*64+bits.TrailingZeros64(mask)] = Line{}
		}
		c.touched[w] = 0
		c.valid[w] = 0 // valid ⊆ touched
	}
	c.tick = 0
	c.Stats = Stats{}
}

// SetIndex returns the set a line maps to. ARC marks the L1 sets that
// hold its shared lines with it (see InvalidateIf).
func (c *Cache) SetIndex(line core.Line) int { return c.setIndex(line) }

func (c *Cache) setIndex(line core.Line) int {
	h := uint64(line)
	if c.cfg.IndexHash {
		// Fibonacci-style multiplicative mix; deterministic and cheap.
		h *= 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	return int(h & c.setMask)
}

func (c *Cache) setOf(line core.Line) []Line {
	base := c.setIndex(line) * c.cfg.Ways
	return c.lines[base : base+c.cfg.Ways]
}

// Lookup returns the resident line and bumps its recency, counting a hit;
// on a miss it returns nil and counts a miss.
func (c *Cache) Lookup(line core.Line) *Line {
	set := c.setOf(line)
	for i := range set {
		if set[i].Valid && set[i].Tag == line {
			c.tick++
			set[i].lru = c.tick
			c.Stats.Hits++
			return &set[i]
		}
	}
	c.Stats.Misses++
	return nil
}

// Peek returns the resident line without touching recency or statistics,
// or nil. Protocol engines use it for snoops and invalidations.
func (c *Cache) Peek(line core.Line) *Line {
	set := c.setOf(line)
	for i := range set {
		if set[i].Valid && set[i].Tag == line {
			return &set[i]
		}
	}
	return nil
}

// Insert allocates a slot for line, evicting the LRU victim if the set is
// full. It returns the new slot (zeroed except Tag/Valid/lru) and, if an
// eviction occurred, a copy of the victim. Inserting a line that is
// already resident is a programming error and panics.
func (c *Cache) Insert(line core.Line) (slot *Line, victim Line, evicted bool) {
	base := c.setIndex(line) * c.cfg.Ways
	set := c.lines[base : base+c.cfg.Ways]
	free, lru := -1, -1
	for i := range set {
		ln := &set[i]
		if ln.Valid {
			if ln.Tag == line {
				panic(fmt.Sprintf("cache %q: double insert of line %#x", c.cfg.Name, uint64(line)))
			}
			if lru < 0 || ln.lru < set[lru].lru {
				lru = i
			}
		} else if free < 0 {
			free = i
		}
	}
	way := free
	if way < 0 {
		way = lru
		victim = set[way]
		evicted = true
		c.Stats.Evictions++
		if victim.Dirty {
			c.Stats.DirtyEvictions++
		}
	}
	c.tick++
	i := base + way
	c.touched[i>>6] |= 1 << (i & 63)
	c.valid[i>>6] |= 1 << (i & 63)
	slot = &c.lines[i]
	*slot = Line{Tag: line, Valid: true, Owner: NoOwner, lru: c.tick}
	return slot, victim, evicted
}

// drop invalidates the line in slot i.
func (c *Cache) drop(i int) {
	c.lines[i] = Line{Owner: NoOwner}
	c.valid[i>>6] &^= 1 << (i & 63)
}

// Invalidate drops the line if resident and returns a copy of what was
// dropped.
func (c *Cache) Invalidate(line core.Line) (Line, bool) {
	base := c.setIndex(line) * c.cfg.Ways
	for i := base; i < base+c.cfg.Ways; i++ {
		if ln := &c.lines[i]; ln.Valid && ln.Tag == line {
			old := *ln
			c.drop(i)
			return old, true
		}
	}
	return Line{}, false
}

// InvalidateIf visits the valid lines of the sets whose bits are raised
// in sets (one bit per set, set s at bit s%64 of word s/64), in
// ascending slot order, drops every line for which pred returns true,
// and returns how many were dropped. ARC's flash self-invalidation uses
// it with the sets that can hold a shared line, so a boundary costs
// those sets, not the resident lines. pred may mutate the line and act
// on other caches, but must not change this one.
func (c *Cache) InvalidateIf(sets []uint64, pred func(*Line) bool) int {
	ways := c.cfg.Ways
	n := 0
	for w, mask := range sets {
		for ; mask != 0; mask &= mask - 1 {
			set := w*64 + bits.TrailingZeros64(mask)
			for i := set * ways; i < (set+1)*ways; i++ {
				if c.valid[i>>6]&(1<<(i&63)) != 0 && pred(&c.lines[i]) {
					c.drop(i)
					n++
				}
			}
		}
	}
	return n
}

// ForEach visits every valid line in ascending slot order. The callback
// may mutate the line but must not change Tag or Valid.
func (c *Cache) ForEach(fn func(*Line)) {
	for w, mask := range c.valid {
		for mask != 0 {
			fn(&c.lines[w*64+bits.TrailingZeros64(mask)])
			mask &= mask - 1
		}
	}
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for _, mask := range c.valid {
		n += bits.OnesCount64(mask)
	}
	return n
}
