// Package machine assembles the simulated multicore: per-core L1 caches,
// a tiled shared LLC, the AIM metadata banks, the mesh interconnect, the
// off-chip memory, and the energy meter. Protocol engines (MESI, CE, CE+,
// ARC) are built on top of this substrate through the Protocol interface;
// the machine provides the timed, energy-accounted primitive operations
// they compose.
package machine

import (
	"fmt"
	"sync"

	"arcsim/internal/aim"
	"arcsim/internal/cache"
	"arcsim/internal/core"
	"arcsim/internal/dram"
	"arcsim/internal/energy"
	"arcsim/internal/noc"
)

// Message payload sizes in bytes (header overhead is added by the mesh).
const (
	// CtrlBytes is a pure control message (request, ack, invalidate).
	CtrlBytes = 0
	// MaskBytes carries one byte-mask (registration extensions).
	MaskBytes = 8
	// MetaBytes carries one AccessBits record (read+write masks).
	MetaBytes = core.MetadataBytes
	// DataBytes carries one cache line.
	DataBytes = core.LineSize
)

// Protocol is the plug-in interface a coherence/conflict-detection design
// implements over a Machine.
type Protocol interface {
	// Name identifies the design ("mesi", "ce", "ce+", "arc").
	Name() string
	// Access executes one memory access by core c issued at cycle now
	// and returns its latency in cycles. All functional state changes,
	// traffic, energy, and conflict reports happen as side effects.
	Access(now uint64, c core.CoreID, acc core.Access) uint64
	// Boundary performs the design's end-of-region work for core c
	// (metadata clearing, self-invalidation, self-downgrade, ...) and
	// returns its latency. The simulator advances the machine's region
	// counter after Boundary returns.
	Boundary(now uint64, c core.CoreID) uint64
	// Reset returns the engine to its freshly-built state on a machine
	// that Machine.Reset has just cleared, keeping its allocated
	// metadata tables. A run after both Resets is byte-identical to a
	// run on a fresh build (see protocols.Pool).
	Reset()
}

// Config describes one simulated machine (Table T1 of the evaluation).
type Config struct {
	Cores int

	L1SizeBytes int
	L1Ways      int
	L1Latency   uint64

	// LLCSliceBytes is the capacity of each tile's LLC slice.
	LLCSliceBytes int
	LLCWays       int
	LLCLatency    uint64

	// SyncLatency is the base cost of a lock/barrier operation at its
	// home tile (on top of the message round trip).
	SyncLatency uint64

	AIM    aim.Config
	NoC    noc.Config
	DRAM   dram.Config
	Energy energy.Model

	Policy core.ExceptionPolicy
}

// Default returns the evaluation configuration for the given core count:
// 32 KB 8-way L1s, 1 MB 16-way LLC slices, a near-square mesh, a
// 32K-entry AIM, and 4 DRAM channels.
func Default(cores int) Config {
	return Config{
		Cores:         cores,
		L1SizeBytes:   32 << 10,
		L1Ways:        8,
		L1Latency:     2,
		LLCSliceBytes: 1 << 20,
		LLCWays:       16,
		LLCLatency:    10,
		SyncLatency:   12,
		AIM:           aim.DefaultConfig(),
		NoC:           noc.DefaultConfig(cores),
		DRAM:          dram.DefaultConfig(),
		Energy:        energy.DefaultModel(),
		Policy:        core.LogAndContinue,
	}
}

// Fitted is Default with the AIM trimmed to fit any core count: the
// default 32K-entry AIM only divides across power-of-two tile counts, so
// Fitted takes the largest power-of-two set count per tile, of Ways
// entries each, that fits the default total. At 8, 16, 32 and 64 cores
// it returns Default unchanged. Generated programs, whose thread counts
// are arbitrary, run on it.
func Fitted(cores int) Config {
	cfg := Default(cores)
	sets := 1
	for sets*2*cfg.AIM.Ways*cores <= cfg.AIM.Entries {
		sets *= 2
	}
	cfg.AIM.Entries = sets * cfg.AIM.Ways * cores
	return cfg
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("machine: need at least one core")
	}
	if c.Cores > 64 {
		return fmt.Errorf("machine: at most 64 cores (directory bitmasks are 64-bit), got %d", c.Cores)
	}
	if err := (cache.Config{Name: "l1", SizeBytes: c.L1SizeBytes, Ways: c.L1Ways}).Validate(); err != nil {
		return err
	}
	if err := (cache.Config{Name: "llc", SizeBytes: c.LLCSliceBytes, Ways: c.LLCWays}).Validate(); err != nil {
		return err
	}
	if c.L1Latency == 0 || c.LLCLatency == 0 {
		return fmt.Errorf("machine: zero cache latency")
	}
	if err := c.AIM.Validate(c.Cores); err != nil {
		return err
	}
	if c.NoC.Tiles != c.Cores {
		return fmt.Errorf("machine: NoC has %d tiles for %d cores", c.NoC.Tiles, c.Cores)
	}
	if err := c.NoC.Validate(); err != nil {
		return err
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	return c.Energy.Validate()
}

// CounterID indexes a pre-interned named counter. Protocol packages
// register their counter names once (package initialization) and bump
// integer slots from the hot loop; the string view is materialized only
// when a report is serialized.
type CounterID int32

var (
	counterMu    sync.Mutex
	counterIndex = map[string]CounterID{}
	counterNames []string
)

// RegisterCounter interns name and returns its stable ID. Safe for
// concurrent use; registering the same name twice returns the same ID.
func RegisterCounter(name string) CounterID {
	counterMu.Lock()
	defer counterMu.Unlock()
	if id, ok := counterIndex[name]; ok {
		return id
	}
	id := CounterID(len(counterNames))
	counterNames = append(counterNames, name)
	counterIndex[name] = id
	return id
}

// counterRegistrySize returns the number of interned counter names.
func counterRegistrySize() int {
	counterMu.Lock()
	defer counterMu.Unlock()
	return len(counterNames)
}

// Machine is the assembled substrate. Not safe for concurrent use: the
// simulator is single-goroutine and deterministic.
type Machine struct {
	Cfg Config

	L1  []*cache.Cache
	LLC []*cache.Cache
	AIM []*aim.Bank // nil when disabled (the CE configuration)

	Mesh  *noc.Mesh
	Mem   *dram.Memory
	Meter *energy.Meter

	// counters holds protocol-specific counter slots indexed by
	// CounterID; touched marks slots that were incremented (even by
	// zero) so CounterMap reproduces the exact key set the old
	// map-based counters serialized.
	counters []uint64
	touched  []bool

	// Conflicts and Exceptions accumulate detection results.
	Conflicts  *core.ConflictSet
	Exceptions []core.Exception
	// Halted is set when the exception policy is FailStop and a
	// conflict was detected.
	Halted bool

	regionSeq []uint64
}

// New assembles a machine; it panics on invalid configuration (configs
// come from validated presets or tests).
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := counterRegistrySize()
	m := &Machine{
		Cfg:       cfg,
		L1:        make([]*cache.Cache, cfg.Cores),
		LLC:       make([]*cache.Cache, cfg.Cores),
		Mesh:      noc.New(cfg.NoC),
		Mem:       dram.New(cfg.DRAM),
		Meter:     energy.NewMeter(cfg.Energy),
		counters:  make([]uint64, n),
		touched:   make([]bool, n),
		Conflicts: core.NewConflictSet(),
		regionSeq: make([]uint64, cfg.Cores),
	}
	for i := 0; i < cfg.Cores; i++ {
		m.L1[i] = cache.New(cache.Config{
			Name: fmt.Sprintf("l1.%d", i), SizeBytes: cfg.L1SizeBytes, Ways: cfg.L1Ways,
		})
		m.LLC[i] = cache.New(cache.Config{
			Name: fmt.Sprintf("llc.%d", i), SizeBytes: cfg.LLCSliceBytes, Ways: cfg.LLCWays,
			IndexHash: true,
		})
	}
	m.AIM = aim.Banks(cfg.AIM, cfg.Cores)
	return m
}

// HasAIM reports whether the machine has an AIM (CE+ and ARC configs).
func (m *Machine) HasAIM() bool { return m.AIM != nil }

// HomeTile returns the tile whose LLC slice (and directory/registry/AIM
// bank) owns the line. Lines are address-interleaved across tiles.
func (m *Machine) HomeTile(line core.Line) int {
	return int(uint64(line) % uint64(m.Cfg.Cores))
}

// SyncHome returns the home tile of a lock or barrier variable.
func (m *Machine) SyncHome(id uint32) int { return int(id) % m.Cfg.Cores }

// IncID bumps a pre-interned counter. This is the hot path: no map
// lookup, no allocation. A zero increment still marks the slot touched
// so it appears in the serialized counter map, matching the historical
// `map[name] += 0` behavior.
func (m *Machine) IncID(id CounterID, n uint64) {
	if int(id) >= len(m.counters) {
		m.growCounters()
	}
	m.counters[id] += n
	m.touched[id] = true
}

// growCounters resizes the slot arrays to the current registry size
// (counters registered after this machine was built).
func (m *Machine) growCounters() {
	n := counterRegistrySize()
	counters := make([]uint64, n)
	touched := make([]bool, n)
	copy(counters, m.counters)
	copy(touched, m.touched)
	m.counters, m.touched = counters, touched
}

// Counter returns the current value of a named counter (zero if never
// touched). Intended for tests and reports, not the hot loop.
func (m *Machine) Counter(name string) uint64 {
	counterMu.Lock()
	id, ok := counterIndex[name]
	counterMu.Unlock()
	if !ok || int(id) >= len(m.counters) {
		return 0
	}
	return m.counters[id]
}

// CounterMap materializes the touched counters as a name→value map for
// report serialization.
func (m *Machine) CounterMap() map[string]uint64 {
	counterMu.Lock()
	names := counterNames
	counterMu.Unlock()
	out := make(map[string]uint64, len(m.counters))
	for id, t := range m.touched {
		if t {
			out[names[id]] = m.counters[id]
		}
	}
	return out
}

// Reset returns the machine to its freshly-built state so a pooled
// machine can be reused for another run without reallocating the cache
// arrays. The configuration and component topology are retained; all
// simulated state — cache contents, statistics, energy, interconnect
// and DRAM contention windows, counters, conflicts, exceptions, region
// sequence numbers — is cleared. Results from a Reset machine are
// byte-identical to results from a freshly built one.
func (m *Machine) Reset() {
	for i := range m.L1 {
		m.L1[i].Reset()
		m.LLC[i].Reset()
	}
	for _, b := range m.AIM {
		b.Reset()
	}
	m.Mesh.Reset()
	m.Mem.Reset()
	m.Meter.Reset()
	for i := range m.counters {
		m.counters[i] = 0
		m.touched[i] = false
	}
	m.Conflicts.Reset()
	m.Exceptions = m.Exceptions[:0]
	m.Halted = false
	for i := range m.regionSeq {
		m.regionSeq[i] = 0
	}
}

// ctrMetaDRAM counts metadata-table accesses that go straight to DRAM
// (the AIM-less CE configuration).
var ctrMetaDRAM = RegisterCounter("meta.dram")

// ---------------------------------------------------------------------------
// Timed, energy-accounted primitives.

// Send moves a message with the given payload from tile src to tile dst
// at cycle now and returns its latency, charging NoC energy.
func (m *Machine) Send(now uint64, src, dst, payloadBytes int) uint64 {
	before := m.Mesh.Stats.FlitHops
	lat := m.Mesh.Send(now, src, dst, payloadBytes)
	m.Meter.FlitHops(m.Mesh.Stats.FlitHops - before)
	return lat
}

// RoundTrip is a request/response pair between two tiles (request payload
// reqBytes, response payload respBytes).
func (m *Machine) RoundTrip(now uint64, src, dst, reqBytes, respBytes int) uint64 {
	lat := m.Send(now, src, dst, reqBytes)
	return lat + m.Send(now+lat, dst, src, respBytes)
}

// L1Tick charges one L1 access of core c and returns its latency.
func (m *Machine) L1Tick(c core.CoreID) uint64 {
	m.Meter.L1Accesses(1)
	return m.Cfg.L1Latency
}

// LLCTick charges one LLC slice access and returns its latency.
func (m *Machine) LLCTick(tile int) uint64 {
	m.Meter.LLCAccesses(1)
	return m.Cfg.LLCLatency
}

// DRAMData moves one cache line to or from memory.
func (m *Machine) DRAMData(now uint64, line core.Line, write bool) uint64 {
	before := m.Mem.Stats.Bytes()
	lat := m.Mem.Access(now, line, DataBytes, write, false)
	m.Meter.DRAMBytes(m.Mem.Stats.Bytes() - before)
	return lat
}

// DRAMMeta moves one metadata record to or from the in-memory metadata
// table.
func (m *Machine) DRAMMeta(now uint64, line core.Line, write bool) uint64 {
	before := m.Mem.Stats.Bytes()
	lat := m.Mem.Access(now, line, MetaBytes, write, true)
	m.Meter.DRAMBytes(m.Mem.Stats.Bytes() - before)
	return lat
}

// MetaAccess performs one metadata-table access for `line` at its home
// tile, going through the AIM when present (CE+/ARC) and straight to
// memory otherwise (CE). dirty marks the entry modified; blind marks
// accesses that overwrite/merge without needing the record's previous
// contents (spills and scrubs), which dirty-allocate in the AIM without
// a memory fill. Non-blind accesses (conflict checks) pay the fill on a
// miss. The returned latency includes fill and dirty-victim writebacks.
func (m *Machine) MetaAccess(now uint64, line core.Line, dirty, blind bool) uint64 {
	tile := m.HomeTile(line)
	if m.AIM == nil {
		m.IncID(ctrMetaDRAM, 1)
		if blind {
			return m.DRAMMeta(now, line, true)
		}
		lat := m.DRAMMeta(now, line, false)
		if dirty {
			// Read-modify-write: the update is charged as traffic but
			// overlaps the critical path.
			m.DRAMMeta(now+lat, line, true)
		}
		return lat
	}
	bank := m.AIM[tile]
	m.Meter.AIMAccesses(1)
	res := bank.Access(line, dirty)
	lat := m.Cfg.AIM.Latency
	if !res.Hit && !blind {
		// Fill from the in-memory table.
		lat += m.DRAMMeta(now+lat, line, false)
	}
	if res.Evicted && res.VictimDirty {
		// Write the displaced entry back to the table. This happens
		// off the critical path in hardware; we charge traffic and
		// energy but not latency.
		m.DRAMMeta(now+lat, res.VictimLine, true)
	}
	return lat
}

// ---------------------------------------------------------------------------
// Regions and conflicts.

// Region returns core c's active region.
func (m *Machine) Region(c core.CoreID) core.RegionID {
	return core.RegionID{Core: c, Seq: m.regionSeq[c]}
}

// Seq returns core c's active region sequence number.
func (m *Machine) Seq(c core.CoreID) uint64 { return m.regionSeq[c] }

// NextRegion advances core c to its next region. The simulator calls it
// after the protocol's Boundary work.
func (m *Machine) NextRegion(c core.CoreID) { m.regionSeq[c]++ }

// ActiveRegion reports whether r is still executing (its core has not
// passed a boundary since).
func (m *Machine) ActiveRegion(r core.RegionID) bool {
	return m.regionSeq[r.Core] == r.Seq
}

// Report records a detected conflict; duplicates (same canonical key) are
// ignored. Under FailStop the machine halts. It reports whether the
// conflict was new.
func (m *Machine) Report(now uint64, by core.CoreID, c core.Conflict) bool {
	if !m.Conflicts.Add(c) {
		return false
	}
	m.Exceptions = append(m.Exceptions, core.Exception{Conflict: c, DetectedBy: by, Cycle: now})
	if m.Cfg.Policy == core.FailStop {
		m.Halted = true
	}
	return true
}

// PhaseFence resets the machine's transient contention state (NoC
// utilization windows, DRAM row buffers and bandwidth windows) to idle
// at cycle now. The simulator invokes it at every barrier release: a
// global barrier quiesces the machine, so post-barrier timing depends
// only on post-barrier traffic. Cache contents, statistics, energy, and
// conflict state are untouched.
func (m *Machine) PhaseFence(now uint64) {
	m.Mesh.Fence(now)
	m.Mem.Fence(now)
}

// FinishStatics charges leakage for the whole run.
func (m *Machine) FinishStatics(cycles uint64) {
	m.Meter.StaticCycles(cycles, m.Cfg.Cores, m.Cfg.AIM.Entries)
}

// L1Stats aggregates hit/miss statistics over all private caches.
func (m *Machine) L1Stats() cache.Stats {
	var s cache.Stats
	for _, c := range m.L1 {
		s.Hits += c.Stats.Hits
		s.Misses += c.Stats.Misses
		s.Evictions += c.Stats.Evictions
		s.DirtyEvictions += c.Stats.DirtyEvictions
	}
	return s
}

// LLCStats aggregates statistics over all LLC slices.
func (m *Machine) LLCStats() cache.Stats {
	var s cache.Stats
	for _, c := range m.LLC {
		s.Hits += c.Stats.Hits
		s.Misses += c.Stats.Misses
		s.Evictions += c.Stats.Evictions
		s.DirtyEvictions += c.Stats.DirtyEvictions
	}
	return s
}

// AIMStats aggregates statistics over all AIM banks (zero when disabled).
func (m *Machine) AIMStats() aim.Stats {
	var s aim.Stats
	for _, b := range m.AIM {
		s.Hits += b.Stats.Hits
		s.Misses += b.Stats.Misses
		s.Fills += b.Stats.Fills
		s.DirtyWritebacks += b.Stats.DirtyWritebacks
	}
	return s
}
