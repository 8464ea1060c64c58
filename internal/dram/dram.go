// Package dram models the off-chip memory network: channels and banks
// with open-row policy and a bandwidth-based queueing model. Off-chip
// traffic (bytes moved) is the paper's "memory network" metric; CE's
// in-memory metadata accesses and the AIM's fills/writebacks all flow
// through this model.
package dram

import (
	"fmt"
	"math"

	"arcsim/internal/core"
)

// Config sizes the memory system.
type Config struct {
	// Channels is the number of independent memory channels.
	Channels int
	// BanksPerChannel is the number of banks per channel.
	BanksPerChannel int
	// LinesPerRow is the row-buffer size in cache lines.
	LinesPerRow int
	// RowHitLatency and RowMissLatency are access latencies in core
	// cycles for row-buffer hits and misses.
	RowHitLatency  uint64
	RowMissLatency uint64
	// BytesPerCycle is the peak bandwidth of one channel.
	BytesPerCycle float64
	// Window is the bandwidth-averaging window in cycles.
	Window uint64
	// MaxQueueFactor caps the contention multiplier.
	MaxQueueFactor float64
	// BurstBytes is the minimum transfer unit; small metadata accesses
	// are rounded up to it.
	BurstBytes int
}

// DefaultConfig returns the memory parameters used across the evaluation
// (documented in Table T1).
func DefaultConfig() Config {
	return Config{
		Channels:        4,
		BanksPerChannel: 8,
		LinesPerRow:     128, // 8 KB rows
		RowHitLatency:   60,
		RowMissLatency:  140,
		BytesPerCycle:   8,
		Window:          4096,
		MaxQueueFactor:  16,
		BurstBytes:      32,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Channels <= 0 || c.BanksPerChannel <= 0 || c.LinesPerRow <= 0 {
		return fmt.Errorf("dram: non-positive geometry %+v", c)
	}
	if c.BytesPerCycle <= 0 {
		return fmt.Errorf("dram: non-positive bandwidth")
	}
	if c.Window == 0 {
		return fmt.Errorf("dram: zero window")
	}
	if c.MaxQueueFactor < 1 {
		return fmt.Errorf("dram: MaxQueueFactor %f < 1", c.MaxQueueFactor)
	}
	if c.BurstBytes <= 0 {
		return fmt.Errorf("dram: non-positive burst")
	}
	return nil
}

// Stats is the cumulative off-chip accounting.
type Stats struct {
	Reads       uint64
	Writes      uint64
	BytesRead   uint64
	BytesWrite  uint64
	RowHits     uint64
	RowMisses   uint64
	QueueCycles uint64
	// MetadataBytes is the subset of traffic that carried conflict
	// metadata rather than program data (CE's in-memory table, AIM
	// fills/writebacks). Reported separately in experiment F4.
	MetadataBytes uint64
}

// Bytes returns total bytes moved in either direction.
func (s Stats) Bytes() uint64 { return s.BytesRead + s.BytesWrite }

// Memory is the off-chip model. Not safe for concurrent use.
type Memory struct {
	cfg Config
	// openRow[channel*banks+bank] is the currently open row (+1; 0 means
	// none).
	openRow []uint64

	winStart uint64
	winBytes uint64
	util     float64
	peakUtil float64

	Stats Stats
}

// New builds a memory model; it panics on invalid configuration.
func New(cfg Config) *Memory {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Memory{
		cfg:     cfg,
		openRow: make([]uint64, cfg.Channels*cfg.BanksPerChannel),
	}
}

// Config returns the memory configuration.
func (m *Memory) Config() Config { return m.cfg }

// geometry maps a line to (bank index within openRow, row number).
func (m *Memory) geometry(line core.Line) (bankIdx int, row uint64) {
	l := uint64(line)
	ch := int(l) % m.cfg.Channels
	bank := int(l/uint64(m.cfg.Channels)) % m.cfg.BanksPerChannel
	row = l / uint64(m.cfg.Channels*m.cfg.BanksPerChannel*m.cfg.LinesPerRow)
	return ch*m.cfg.BanksPerChannel + bank, row
}

// Access models one transfer of `bytes` bytes belonging to `line` at cycle
// `now` and returns its latency. metadata marks conflict-metadata traffic
// for separate accounting.
func (m *Memory) Access(now uint64, line core.Line, bytes int, write, metadata bool) uint64 {
	if bytes < m.cfg.BurstBytes {
		bytes = m.cfg.BurstBytes
	}
	bankIdx, row := m.geometry(line)
	var lat uint64
	if m.openRow[bankIdx] == row+1 {
		m.Stats.RowHits++
		lat = m.cfg.RowHitLatency
	} else {
		m.Stats.RowMisses++
		m.openRow[bankIdx] = row + 1
		lat = m.cfg.RowMissLatency
	}

	if write {
		m.Stats.Writes++
		m.Stats.BytesWrite += uint64(bytes)
	} else {
		m.Stats.Reads++
		m.Stats.BytesRead += uint64(bytes)
	}
	if metadata {
		m.Stats.MetadataBytes += uint64(bytes)
	}

	// Serialization on the channel plus load-dependent queueing.
	lat += uint64(math.Ceil(float64(bytes) / m.cfg.BytesPerCycle))
	m.observe(now, uint64(bytes))
	queue := m.queueDelay(lat)
	m.Stats.QueueCycles += queue
	return lat + queue
}

func (m *Memory) observe(now uint64, bytes uint64) {
	cap := float64(m.cfg.Channels) * m.cfg.BytesPerCycle * float64(m.cfg.Window)
	for now >= m.winStart+m.cfg.Window {
		inst := float64(m.winBytes) / cap
		// float64(...) keeps arm64 from fusing the multiply-add (make fma-check).
		m.util = float64(0.5*m.util) + float64(0.5*inst)
		if m.util > m.peakUtil {
			m.peakUtil = m.util
		}
		m.winBytes = 0
		m.winStart += m.cfg.Window
	}
	m.winBytes += bytes
}

// Fence resets the transient memory state to idle at cycle now: every
// bank's row buffer is closed and the bandwidth-utilization tracking
// restarts empty, while cumulative Stats and the observed peak are
// kept. The simulator calls this at every barrier release so that
// post-barrier memory timing depends only on post-barrier traffic (the
// property phase-parallel simulation relies on); physically it is the
// quiesce-and-precharge a global barrier implies.
func (m *Memory) Fence(now uint64) {
	for i := range m.openRow {
		m.openRow[i] = 0
	}
	m.winBytes = 0
	m.util = 0
	m.winStart = now
}

// Reset returns the memory model to its freshly-built state: all row
// buffers closed, utilization tracking idle at cycle 0, peak cleared,
// Stats zeroed. Machine pooling uses it between runs; Fence is the
// in-run variant that keeps Stats.
func (m *Memory) Reset() {
	clear(m.openRow)
	m.winStart = 0
	m.winBytes = 0
	m.util = 0
	m.peakUtil = 0
	m.Stats = Stats{}
}

func (m *Memory) queueDelay(base uint64) uint64 {
	rho := m.util
	if rho <= 0 {
		return 0
	}
	var factor float64
	if rho >= 1 {
		factor = m.cfg.MaxQueueFactor
	} else {
		factor = rho / (1 - rho)
		if factor > m.cfg.MaxQueueFactor {
			factor = m.cfg.MaxQueueFactor
		}
	}
	return uint64(math.Round(factor * float64(base)))
}

// Utilization returns the smoothed bandwidth utilization.
func (m *Memory) Utilization() float64 { return m.util }

// PeakUtilization returns the highest smoothed utilization observed.
func (m *Memory) PeakUtilization() float64 { return m.peakUtil }
