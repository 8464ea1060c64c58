package arc_test

import (
	"fmt"
	"testing"

	"arcsim/internal/arc"
	"arcsim/internal/cache"
	"arcsim/internal/conformance"
	"arcsim/internal/core"
	"arcsim/internal/machine"
	"arcsim/internal/protocols"
	"arcsim/internal/sim"
	"arcsim/internal/trace"
	"arcsim/internal/workload"
)

// invariantChecked runs ARC and, after every Access and Boundary, checks
// the invariant Boundary's set walk relies on: every valid L1 line in a
// shared state lies in a marked set of its core.
type invariantChecked struct {
	*arc.Protocol
	err error
}

func (c *invariantChecked) Access(now uint64, id core.CoreID, acc core.Access) uint64 {
	lat := c.Protocol.Access(now, id, acc)
	c.check("access", now, id)
	return lat
}

func (c *invariantChecked) Boundary(now uint64, id core.CoreID) uint64 {
	lat := c.Protocol.Boundary(now, id)
	c.check("boundary", now, id)
	return lat
}

func (c *invariantChecked) check(op string, now uint64, id core.CoreID) {
	if c.err != nil {
		return
	}
	for o, l1 := range c.M.L1 {
		l1.ForEach(func(l *cache.Line) {
			if c.err == nil && arc.SharedState(l.State) && !c.SharedSetMarked(o, l.Tag) {
				c.err = fmt.Errorf("after c%d's %s at cycle %d: c%d holds shared line %#x (state %d) in an unmarked set",
					id, op, now, o, uint64(l.Tag), l.State)
			}
		})
	}
}

func runChecked(t *testing.T, name, design string, tr *trace.Trace) {
	t.Helper()
	m, p, err := protocols.Build(design, machine.Fitted(tr.NumThreads()))
	if err != nil {
		t.Fatal(err)
	}
	c := &invariantChecked{Protocol: p.(*arc.Protocol)}
	if _, err := sim.Run(m, c, tr, sim.Options{}); err != nil {
		t.Fatalf("%s on %s: %v", name, design, err)
	}
	if c.err != nil {
		t.Fatalf("%s on %s: %v", name, design, c.err)
	}
}

// TestSharedSetInvariant drives ARC and its ablations over the
// conformance generator's families and ARC over the catalog, at 4 and
// 16 cores, checking the shared-set invariant after every step. Each
// place a copy becomes shared (a fill, a write to a read-only copy, the
// owner's copy at a second touch, a broadcast collection) must mark its
// set; dropping any one of those marks fails this test.
func TestSharedSetInvariant(t *testing.T) {
	families := []conformance.Config{
		{},
		{Phases: 3, Locks: 6, MaxNest: 3, SharedLines: 12},
		{Phases: 1, Degenerate: true},
		{Racy: true},
		{Racy: true, Degenerate: true, Phases: 3},
		{Plant: conformance.PlantOverlap},
		{Plant: conformance.PlantSubword},
		{Plant: conformance.PlantEvict},
	}
	for fi, cfg := range families {
		for _, n := range []int{4, 16} {
			cfg.Threads = n
			for seed := int64(1); seed <= 3; seed++ {
				prog := conformance.Generate(cfg, seed)
				name := fmt.Sprintf("family %d (%s) seed %d, %d cores", fi, prog.Cfg.Kind(), seed, n)
				for _, design := range []string{protocols.ARC, protocols.ARCNoRO, protocols.ARCNoPrivate} {
					runChecked(t, name, design, prog.Trace)
				}
			}
		}
	}
	for _, spec := range workload.Catalog() {
		for _, n := range []int{4, 16} {
			tr := spec.Build(workload.Params{Threads: n, Seed: 1, Scale: 0.02})
			runChecked(t, fmt.Sprintf("%s, %d cores", spec.Name, n), protocols.ARC, tr)
		}
	}
}
