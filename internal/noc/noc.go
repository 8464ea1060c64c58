// Package noc models the on-chip interconnect: a 2D mesh with XY routing,
// wormhole-style serialization, and a utilization-based contention model.
// The mesh does not simulate individual flits hop by hop; it accounts
// flit-hops exactly (which drives traffic figures and energy) and derives
// queueing delay from smoothed link utilization (which produces the
// saturation behaviour the paper reports for CE+ at high core counts).
package noc

import (
	"fmt"
	"math"
)

// HeaderBytes is the per-message routing/command overhead added to every
// payload.
const HeaderBytes = 8

// Config sizes the mesh.
type Config struct {
	// Tiles is the number of mesh nodes; one tile hosts one core plus
	// one LLC slice. Rounded up to a rectangle (near-square).
	Tiles int
	// FlitBytes is the link width; a message of n bytes occupies
	// ceil((n+HeaderBytes)/FlitBytes) flits.
	FlitBytes int
	// HopLatency is the per-hop router+link traversal latency, cycles.
	HopLatency uint64
	// LocalLatency is the latency of a message that stays on its tile.
	LocalLatency uint64
	// Window is the utilization-averaging window in cycles.
	Window uint64
	// MaxQueueFactor caps the contention multiplier (the "saturated"
	// latency is MaxQueueFactor x the uncontended latency).
	MaxQueueFactor float64
}

// DefaultConfig returns the mesh parameters used across the evaluation
// (documented in Table T1).
func DefaultConfig(tiles int) Config {
	return Config{
		Tiles:          tiles,
		FlitBytes:      16,
		HopLatency:     3,
		LocalLatency:   1,
		Window:         2048,
		MaxQueueFactor: 24,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Tiles <= 0 {
		return fmt.Errorf("noc: need at least one tile, got %d", c.Tiles)
	}
	if c.FlitBytes <= 0 {
		return fmt.Errorf("noc: flit width %d invalid", c.FlitBytes)
	}
	if c.Window == 0 {
		return fmt.Errorf("noc: zero utilization window")
	}
	if c.MaxQueueFactor < 1 {
		return fmt.Errorf("noc: MaxQueueFactor %f < 1", c.MaxQueueFactor)
	}
	return nil
}

// Stats is the cumulative traffic accounting.
type Stats struct {
	Messages uint64
	// Flits is the total number of flits injected.
	Flits uint64
	// FlitHops is flits weighted by hops traversed — the paper's
	// on-chip traffic metric and the quantity NoC energy scales with.
	FlitHops uint64
	// Bytes is total payload+header bytes.
	Bytes uint64
	// QueueCycles is the total added contention delay.
	QueueCycles uint64
}

// Mesh is the interconnect model. Not safe for concurrent use.
type Mesh struct {
	cfg  Config
	w, h int
	// links is the effective channel capacity the contention model
	// divides by: the mesh's bisection channels (4*min(w,h) directed
	// links, both cut orientations averaged), not the aggregate link
	// count. Bisection bandwidth grows only as sqrt(tiles) while
	// traffic grows with tiles — the saturation mechanism the paper's
	// CE+ results hinge on.
	links float64

	// utilization tracking
	winStart    uint64
	winFlitHops uint64
	util        float64 // smoothed flit-hops per link-cycle, 0..~1+
	peakUtil    float64

	Stats Stats
}

// New builds a mesh; it panics on invalid configuration.
func New(cfg Config) *Mesh {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	w := 1
	for w*w < cfg.Tiles {
		w++
	}
	h := (cfg.Tiles + w - 1) / w
	m := &Mesh{cfg: cfg, w: w, h: h}
	short := w
	if h < short {
		short = h
	}
	m.links = float64(4 * short)
	return m
}

// Config returns the mesh configuration.
func (m *Mesh) Config() Config { return m.cfg }

// Dims returns the mesh width and height.
func (m *Mesh) Dims() (w, h int) { return m.w, m.h }

// coord returns tile t's mesh coordinates.
func (m *Mesh) coord(t int) (x, y int) { return t % m.w, t / m.w }

// Hops returns the XY-routing hop count between two tiles (the Manhattan
// distance).
func (m *Mesh) Hops(src, dst int) int {
	sx, sy := m.coord(src)
	dx, dy := m.coord(dst)
	return abs(sx-dx) + abs(sy-dy)
}

// Flits returns the flit count of a message with the given payload.
func (m *Mesh) Flits(payloadBytes int) uint64 {
	total := payloadBytes + HeaderBytes
	f := (total + m.cfg.FlitBytes - 1) / m.cfg.FlitBytes
	if f < 1 {
		f = 1
	}
	return uint64(f)
}

// Send models one message from src to dst injected at cycle now and
// returns its delivery latency. Traffic accounting (flit-hops, bytes) and
// utilization tracking are updated as side effects.
func (m *Mesh) Send(now uint64, src, dst, payloadBytes int) uint64 {
	flits := m.Flits(payloadBytes)
	hops := m.Hops(src, dst)

	m.Stats.Messages++
	m.Stats.Flits += flits
	m.Stats.Bytes += uint64(payloadBytes + HeaderBytes)

	if hops == 0 {
		// Same-tile delivery: no link traversal, no contention.
		return m.cfg.LocalLatency + flits - 1
	}

	fh := flits * uint64(hops)
	m.Stats.FlitHops += fh
	m.observe(now, fh)

	base := uint64(hops)*m.cfg.HopLatency + (flits - 1)
	queue := m.queueDelay(base)
	m.Stats.QueueCycles += queue
	return base + queue
}

// observe folds fh flit-hops injected at cycle now into the utilization
// window. Calls must have non-decreasing now (the simulator processes
// events in global time order). A message after a long quiet gap closes
// all elapsed windows in O(1): only the first close can carry flit-hops,
// and every further close halves util (0.5*util + 0.5*0), so the decay
// fast-forwards as util * 0.5^k instead of one iteration per window.
func (m *Mesh) observe(now uint64, fh uint64) {
	if now >= m.winStart+m.cfg.Window {
		// Close the current window and decay it into the smoothed
		// estimate — the only close whose instantaneous term is nonzero,
		// and therefore the only one that can raise the peak.
		inst := float64(m.winFlitHops) / (float64(m.cfg.Window) * m.links)
		// float64(...) keeps arm64 from fusing the multiply-add (make fma-check).
		m.util = float64(0.5*m.util) + float64(0.5*inst)
		if m.util > m.peakUtil {
			m.peakUtil = m.util
		}
		m.winFlitHops = 0
		elapsed := (now - m.winStart) / m.cfg.Window
		m.winStart += elapsed * m.cfg.Window
		m.halve(elapsed - 1)
	}
	m.winFlitHops += fh
}

// halve applies k exact halvings to util without looping k times. While
// the result stays a normal float64 a single Ldexp is bit-identical to k
// repeated halvings (both are exact); in the subnormal tail each halving
// rounds, so the remainder is looped — at most ~54 steps before util
// reaches 0, a constant bound independent of k.
func (m *Mesh) halve(k uint64) {
	if k == 0 || m.util == 0 {
		return
	}
	// util = f*2^exp with f in [0.5,1): after d halvings the value is
	// still normal (>= 2^-1022 even at f=0.5) while d <= exp+1021.
	_, exp := math.Frexp(m.util)
	if drop := int64(exp) + 1021; drop > 0 {
		if uint64(drop) >= k {
			m.util = math.Ldexp(m.util, -int(k))
			return
		}
		m.util = math.Ldexp(m.util, -int(drop))
		k -= uint64(drop)
	}
	if k >= 60 {
		// From the edge of the normal range, at most ~54 further
		// halvings round to exact 0; skip the (slow) denormal ops.
		m.util = 0
		return
	}
	for ; k > 0 && m.util != 0; k-- {
		m.util *= 0.5
	}
}

// Fence resets the utilization tracking to an idle state starting at
// cycle now: the partial window's flit-hops are discarded (not folded
// into the smoothed estimate) and the smoothed utilization drops to
// zero, while cumulative Stats and the observed peak are kept.
//
// The simulator calls this at every barrier release, making the
// contention state after a barrier a pure function of post-barrier
// traffic — which is what lets phases whose footprints are disjoint be
// simulated independently and stitched bit-exactly (see internal/sim).
// Physically this models the barrier's global quiesce: every in-flight
// message has drained before any thread resumes.
func (m *Mesh) Fence(now uint64) {
	m.winFlitHops = 0
	m.util = 0
	m.winStart = now
}

// Reset returns the mesh to its freshly-built state: utilization
// tracking idle at cycle 0, peak cleared, Stats zeroed. Machine pooling
// uses it between runs; Fence is the in-run variant that keeps Stats.
func (m *Mesh) Reset() {
	m.winStart = 0
	m.winFlitHops = 0
	m.util = 0
	m.peakUtil = 0
	m.Stats = Stats{}
}

// queueDelay converts current utilization into added delay for a message
// with the given uncontended latency, using an M/D/1-style rho/(1-rho)
// shape capped at MaxQueueFactor.
func (m *Mesh) queueDelay(base uint64) uint64 {
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

// Utilization returns the smoothed link utilization (flit-hops per
// link-cycle), the quantity the contention model is driven by.
func (m *Mesh) Utilization() float64 { return m.util }

// PeakUtilization returns the highest smoothed utilization observed.
func (m *Mesh) PeakUtilization() float64 { return m.peakUtil }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
