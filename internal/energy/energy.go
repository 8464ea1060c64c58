// Package energy provides the per-event energy model used by the
// evaluation. The paper derives energy from CACTI/McPAT-style models; this
// reproduction embeds per-event constants of the same relative magnitudes
// (picojoule scale). All energy comparisons in the experiments are ratios
// against the MESI baseline, which such a model preserves (see the
// substitution notes in DESIGN.md).
package energy

import (
	"fmt"
	"strings"
)

// Component identifies an energy sink.
type Component int

const (
	L1 Component = iota
	LLC
	AIM
	NoC
	DRAM
	Static
	numComponents
)

var componentNames = [numComponents]string{"L1", "LLC", "AIM", "NoC", "DRAM", "Static"}

func (c Component) String() string {
	if int(c) < len(componentNames) {
		return componentNames[c]
	}
	return fmt.Sprintf("component(%d)", int(c))
}

// Components lists all components in display order.
func Components() []Component {
	out := make([]Component, numComponents)
	for i := range out {
		out[i] = Component(i)
	}
	return out
}

// Model holds per-event energies in picojoules.
type Model struct {
	// L1AccessPJ is charged per L1 tag+data access (hit or miss probe).
	L1AccessPJ float64
	// LLCAccessPJ is charged per LLC slice access.
	LLCAccessPJ float64
	// AIMAccessPJ is charged per AIM probe or update.
	AIMAccessPJ float64
	// FlitHopPJ is charged per flit per hop on the mesh.
	FlitHopPJ float64
	// DRAMPerBytePJ is charged per byte moved off-chip.
	DRAMPerBytePJ float64
	// StaticCorePJPerCycle is leakage per core (core+L1+LLC slice) per
	// cycle.
	StaticCorePJPerCycle float64
	// StaticAIMPJPerCyclePer1K is AIM leakage per 1024 entries per
	// cycle, so larger AIMs cost idle power (the F6 sweep's tradeoff).
	StaticAIMPJPerCyclePer1K float64
}

// DefaultModel returns the constants used across the evaluation
// (documented in Table T1).
func DefaultModel() Model {
	return Model{
		L1AccessPJ:               12,
		LLCAccessPJ:              55,
		AIMAccessPJ:              20,
		FlitHopPJ:                6,
		DRAMPerBytePJ:            60,
		StaticCorePJPerCycle:     4,
		StaticAIMPJPerCyclePer1K: 0.4,
	}
}

// Validate reports model errors (all constants must be non-negative and
// the dynamic ones positive).
func (m Model) Validate() error {
	pos := map[string]float64{
		"L1AccessPJ":    m.L1AccessPJ,
		"LLCAccessPJ":   m.LLCAccessPJ,
		"AIMAccessPJ":   m.AIMAccessPJ,
		"FlitHopPJ":     m.FlitHopPJ,
		"DRAMPerBytePJ": m.DRAMPerBytePJ,
	}
	for name, v := range pos {
		if v <= 0 {
			return fmt.Errorf("energy: %s must be positive, got %f", name, v)
		}
	}
	if m.StaticCorePJPerCycle < 0 || m.StaticAIMPJPerCyclePer1K < 0 {
		return fmt.Errorf("energy: negative static power")
	}
	return nil
}

// Meter accumulates energy per component. The zero value is unusable; use
// NewMeter.
type Meter struct {
	model Model
	pj    [numComponents]float64
}

// NewMeter builds a meter; it panics on an invalid model.
func NewMeter(model Model) *Meter {
	if err := model.Validate(); err != nil {
		panic(err)
	}
	return &Meter{model: model}
}

// Reset zeroes the accumulated energy (machine pooling).
func (m *Meter) Reset() { m.pj = [numComponents]float64{} }

// The charges below wrap each product in float64(...), which rounds it
// before the add: without it arm64 fuses the multiply-add into one
// rounding and its energy bytes could differ from amd64's (make
// fma-check guards this).

// L1Accesses charges n L1 accesses.
func (m *Meter) L1Accesses(n uint64) { m.pj[L1] += float64(float64(n) * m.model.L1AccessPJ) }

// LLCAccesses charges n LLC slice accesses.
func (m *Meter) LLCAccesses(n uint64) { m.pj[LLC] += float64(float64(n) * m.model.LLCAccessPJ) }

// AIMAccesses charges n AIM probes/updates.
func (m *Meter) AIMAccesses(n uint64) { m.pj[AIM] += float64(float64(n) * m.model.AIMAccessPJ) }

// FlitHops charges n flit-hops of on-chip traffic.
func (m *Meter) FlitHops(n uint64) { m.pj[NoC] += float64(float64(n) * m.model.FlitHopPJ) }

// DRAMBytes charges n bytes of off-chip traffic.
func (m *Meter) DRAMBytes(n uint64) { m.pj[DRAM] += float64(float64(n) * m.model.DRAMPerBytePJ) }

// StaticCycles charges leakage for the whole chip (cores cores, aimEntries
// AIM entries) running for `cycles` cycles.
func (m *Meter) StaticCycles(cycles uint64, cores, aimEntries int) {
	perCycle := float64(m.model.StaticCorePJPerCycle*float64(cores)) +
		float64(m.model.StaticAIMPJPerCyclePer1K*float64(aimEntries)/1024)
	m.pj[Static] += float64(float64(cycles) * perCycle)
}

// PJ returns the energy charged to one component, in picojoules.
func (m *Meter) PJ(c Component) float64 { return m.pj[c] }

// TotalPJ returns total energy in picojoules.
func (m *Meter) TotalPJ() float64 {
	var t float64
	for _, v := range m.pj {
		t += v
	}
	return t
}

// Breakdown returns the per-component energy in display order.
func (m *Meter) Breakdown() map[Component]float64 {
	out := make(map[Component]float64, numComponents)
	for i := Component(0); i < numComponents; i++ {
		out[i] = m.pj[i]
	}
	return out
}

// String renders the breakdown compactly (microjoules).
func (m *Meter) String() string {
	parts := make([]string, 0, numComponents)
	for i := Component(0); i < numComponents; i++ {
		parts = append(parts, fmt.Sprintf("%s=%.1fuJ", i, m.pj[i]/1e6))
	}
	return strings.Join(parts, " ")
}
