// Package ce implements Conflict Exceptions (CE) and its AIM-extended
// variant CE+, the paper's two eager designs. CE layers byte-granularity
// region access metadata on the MESI directory protocol:
//
//   - Every L1 line carries the local region's read/write byte masks
//     (cache.Line.Bits, tagged with the region in cache.Line.Aux).
//   - Coherence events move metadata: invalidation and downgrade
//     responses carry the victim's access bits (modelled as piggyback
//     messages), and invalidated/evicted bits are spilled to an in-memory
//     metadata table.
//   - Fetches and upgrades consult the table for non-resident bits of
//     still-active remote regions, detecting conflicts at the moment of
//     the second access — exactly the oracle's semantics.
//   - Each fetched line caches the union of remote active bits
//     (cache.Line.Remote) so that pure L1 hits can detect conflicts
//     locally without traffic.
//   - At a region boundary the core clears its resident bits (a flash
//     gang-clear) and must scrub every record it spilled to the memory
//     table — the "frequent metadata accesses in memory" cost the
//     abstract attributes to CE.
//
// CE+ is the same protocol with the machine's AIM enabled: metadata-table
// accesses become on-chip AIM hits most of the time instead of DRAM round
// trips. The Protocol reports "ce" or "ce+" accordingly.
package ce

import (
	"math/bits"

	"arcsim/internal/cache"
	"arcsim/internal/coherence"
	"arcsim/internal/core"
	"arcsim/internal/linetab"
	"arcsim/internal/machine"
)

// gangClearCycles is the cost of flash-clearing the local access bits in
// the L1 metadata array at a region boundary.
const gangClearCycles = 2

// Pre-interned counter IDs (see machine.RegisterCounter).
var (
	ctrMetaReads    = machine.RegisterCounter("ce.meta_reads")
	ctrMetaPiggy    = machine.RegisterCounter("ce.meta_piggyback")
	ctrHitSuspects  = machine.RegisterCounter("ce.hit_suspects")
	ctrConflicts    = machine.RegisterCounter("ce.conflicts")
	ctrSpills       = machine.RegisterCounter("ce.spills")
	ctrRegionClears = machine.RegisterCounter("ce.region_clears")
)

// metaView is a borrowed view of one metadata-table record: the spilled
// access bits of each core for one line, tagged with the region they
// belong to, and the mask of cores with a record (one bit per core).
// The view aliases the protocol's flat backing arrays — taking a view
// is free, but a view must not be used across a call that can create a
// table entry (creation may grow the arrays).
type metaView struct {
	bits []core.AccessBits
	tags []uint64
	used *uint64
}

// Protocol implements machine.Protocol for CE/CE+.
type Protocol struct {
	M *machine.Machine
	// WordGranularity tracks metadata at 8-byte word granularity
	// instead of bytes: cheaper hardware, but disjoint-byte accesses
	// within a word raise false conflicts (experiment A3).
	WordGranularity bool
	// DropReadBitsOnSpill is a fault-injection knob for the conformance
	// mutation tests: the spill path discards read bits, so conflicts
	// whose first access was an evicted read go undetected. It must
	// never be set outside tests.
	DropReadBitsOnSpill bool

	mesi *coherence.Engine

	// The in-memory metadata table, flattened: tab maps a line to a
	// slot; slot s owns used[s] and the span [s*cores, (s+1)*cores) of
	// bits and tags. Slots are bump-allocated and recycled through free.
	tab  linetab.Table
	bits []core.AccessBits
	tags []uint64
	used []uint64
	next int32
	free []int32

	// spilled[c] lists the lines core c spilled metadata for during its
	// current region (insertion-ordered for determinism; appended only
	// when a fresh registration is created, which dedups it); region
	// end must scrub them.
	spilled [][]core.Line
}

// New builds the CE protocol over m. With the machine's AIM enabled the
// design is CE+; with AIM disabled it is the original CE.
func New(m *machine.Machine) *Protocol {
	engine := coherence.New(m)
	// In CE the access bits are part of the line state and travel with
	// every coherence message.
	engine.MetaTax = machine.MetaBytes
	return &Protocol{
		M:       m,
		mesi:    engine,
		spilled: make([][]core.Line, m.Cfg.Cores),
	}
}

// Reset returns the protocol to its freshly-built state, keeping the
// table capacity, so a pooled machine+protocol pair can be reused
// across runs (see DESIGN.md, "Memory discipline").
func (p *Protocol) Reset() {
	p.mesi.Reset()
	p.tab.Reset()
	p.next = 0
	p.free = p.free[:0]
	for i := range p.spilled {
		p.spilled[i] = p.spilled[i][:0]
	}
}

// view returns slot s's record. See the aliasing caveat on metaView.
func (p *Protocol) view(s int32) metaView {
	cores := p.M.Cfg.Cores
	lo := int(s) * cores
	return metaView{
		bits: p.bits[lo : lo+cores],
		tags: p.tags[lo : lo+cores],
		used: &p.used[s],
	}
}

// lookup returns the record for line if one exists.
func (p *Protocol) lookup(line core.Line) (metaView, bool) {
	s, ok := p.tab.Get(line)
	if !ok {
		return metaView{}, false
	}
	return p.view(s), true
}

// entry returns (creating if needed) the record for line.
func (p *Protocol) entry(line core.Line) metaView {
	s, ok := p.tab.Get(line)
	if !ok {
		s = p.alloc()
		p.tab.Put(line, s)
	}
	return p.view(s)
}

// alloc claims a slot: recycled from the free list, or bump-allocated
// (growing the backing arrays when the high-water mark passes their
// length). Only the used mask needs clearing — bits/tags are written
// before they are read once a used bit is set.
func (p *Protocol) alloc() int32 {
	cores := p.M.Cfg.Cores
	var s int32
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		s = p.next
		p.next++
		if int(p.next) > len(p.used) {
			p.used = append(p.used, 0)
		}
		for len(p.tags) < int(p.next)*cores {
			p.bits = append(p.bits, core.AccessBits{})
			p.tags = append(p.tags, 0)
		}
	}
	p.used[s] = 0
	return s
}

// remove drops line's record and recycles its slot.
func (p *Protocol) remove(line core.Line) {
	if s, ok := p.tab.Delete(line); ok {
		p.free = append(p.free, s)
	}
}

// Name implements machine.Protocol.
func (p *Protocol) Name() string {
	name := "ce"
	if p.M.HasAIM() {
		name = "ce+"
	}
	if p.mesi.UseOwned {
		name += "moesi"
	}
	if p.WordGranularity {
		name += "-word"
	}
	return name
}

// maskOf returns the access's tracking mask at the configured granularity.
func (p *Protocol) maskOf(acc core.Access) core.ByteMask {
	m := acc.Mask()
	if p.WordGranularity {
		m = core.WidenToWords(m)
	}
	return m
}

// Mesi exposes the underlying coherence engine (tests check its
// invariants through it).
func (p *Protocol) Mesi() *coherence.Engine { return p.mesi }

// Access implements machine.Protocol.
func (p *Protocol) Access(now uint64, c core.CoreID, acc core.Access) uint64 {
	m := p.M
	lat := p.mesi.Access(now, c, acc)
	tr := &p.mesi.Trace
	line := tr.Line
	mask := p.maskOf(acc)
	seq := m.Seq(c)

	l1 := m.L1[int(c)].Peek(line)
	if l1 == nil {
		// The line is always resident after a MESI access.
		panic("ce: line not resident after access")
	}

	if tr.DirectoryInvolved() {
		lat += p.directoryCheck(now+lat, c, acc, tr, l1)
	} else {
		lat += p.hitCheck(now+lat, c, acc, line, l1)
	}

	// Record the local region's bits.
	if l1.Aux != seq {
		l1.Bits = core.AccessBits{}
		l1.Aux = seq
	}
	l1.Bits.Add(acc.Kind, mask)

	// Spill metadata displaced by this transaction.
	if tr.L1Evicted {
		p.spillVictim(now+lat, c, tr.L1Victim)
	}
	for _, rc := range tr.InclusionVictims {
		p.spillVictim(now+lat, rc.Core, rc.Snapshot)
	}
	return lat
}

// directoryCheck runs at fetches and upgrades: it gathers every other
// core's live bits for the line (invalidation/downgrade snapshots plus the
// memory table), checks the incoming access against them, spills
// invalidated bits, caches the remote union on the local line, and charges
// the metadata traffic.
func (p *Protocol) directoryCheck(now uint64, c core.CoreID, acc core.Access, tr *coherence.AccessTrace, l1 *cache.Line) uint64 {
	m := p.M
	var lat uint64
	var remote core.AccessBits
	mask := p.maskOf(acc)

	// 1. Bits previously spilled to the in-memory table. (Read before
	// this transaction's own spills land, so the table access reflects
	// pre-existing metadata only.)
	if entry, ok := p.lookup(tr.Line); ok {
		lat += m.MetaAccess(now, tr.Line, false, false)
		m.IncID(ctrMetaReads, 1)
		live := false
		for set := *entry.used; set != 0; set &= set - 1 {
			o := bits.TrailingZeros64(set)
			if entry.tags[o] != m.Seq(core.CoreID(o)) {
				*entry.used &^= 1 << uint(o) // scrub stale record
				continue
			}
			live = true
			if core.CoreID(o) == c {
				continue // own earlier spill; never a conflict
			}
			remote.Merge(entry.bits[o])
			p.checkAgainst(now, c, acc, tr.Line, core.CoreID(o), entry.tags[o], entry.bits[o], mask)
		}
		if !live {
			p.remove(tr.Line)
		}
	}

	// 2. Bits travelling with coherence responses (resident copies that
	// this transaction invalidated or downgraded).
	for _, rc := range tr.Remote {
		bits := rc.Snapshot.Bits
		if rc.Snapshot.Aux == m.Seq(rc.Core) && !bits.Empty() {
			remote.Merge(bits)
			// The bits arrived with the coherence response (the
			// engine's MetaTax pays their transport).
			m.IncID(ctrMetaPiggy, 1)
			p.checkAgainst(now, c, acc, tr.Line, rc.Core, rc.Snapshot.Aux, bits, mask)
		}
		// Metadata leaves the line's protection whenever the copy is
		// invalidated *or downgraded*: a downgraded owner's write bits
		// must become globally visible (in the table) because later
		// requesters no longer trigger an intervention for this line.
		p.spillVictim(now, rc.Core, rc.Snapshot)
	}

	l1.Remote = remote
	return lat
}

// hitCheck runs on pure L1 hits: the cached remote-bits union flags
// potential conflicts; a flagged access validates against the memory
// table (charged) to attribute or dismiss them.
func (p *Protocol) hitCheck(now uint64, c core.CoreID, acc core.Access, line core.Line, l1 *cache.Line) uint64 {
	m := p.M
	mask := p.maskOf(acc)
	if _, suspect := l1.Remote.ConflictsWith(acc.Kind, mask); !suspect {
		return 0
	}
	m.IncID(ctrHitSuspects, 1)
	entry, ok := p.lookup(line)
	lat := m.MetaAccess(now, line, false, false)
	m.IncID(ctrMetaReads, 1)
	var fresh core.AccessBits
	if ok {
		for set := *entry.used &^ (1 << uint(c)); set != 0; set &= set - 1 {
			o := bits.TrailingZeros64(set)
			if entry.tags[o] != m.Seq(core.CoreID(o)) {
				*entry.used &^= 1 << uint(o)
				continue
			}
			fresh.Merge(entry.bits[o])
			p.checkAgainst(now, c, acc, line, core.CoreID(o), entry.tags[o], entry.bits[o], mask)
		}
	}
	// Refresh the cached union so stale suspicions stop recurring.
	l1.Remote = fresh
	return lat
}

// checkAgainst reports a conflict between the incoming access and core
// o's recorded bits if their bytes clash.
func (p *Protocol) checkAgainst(now uint64, c core.CoreID, acc core.Access, line core.Line, o core.CoreID, oSeq uint64, bits core.AccessBits, mask core.ByteMask) {
	clash, ok := bits.ConflictsWith(acc.Kind, mask)
	if !ok {
		return
	}
	conflict := core.Conflict{
		Line:       line,
		First:      core.RegionID{Core: o, Seq: oSeq},
		Second:     p.M.Region(c),
		FirstWrote: bits.WriteMask.Overlaps(mask),
		SecondKind: acc.Kind,
		Bytes:      clash,
	}
	if p.M.Report(now, c, conflict) {
		p.M.IncID(ctrConflicts, 1)
	}
}

// spillVictim writes a displaced line's live access bits to the in-memory
// metadata table (via the AIM in CE+).
func (p *Protocol) spillVictim(now uint64, c core.CoreID, victim cache.Line) {
	m := p.M
	if victim.Bits.Empty() || victim.Aux != m.Seq(c) {
		return // no live metadata
	}
	if p.DropReadBitsOnSpill {
		victim.Bits.ReadMask = 0
	}
	entry := p.entry(victim.Tag)
	o := int(c)
	if *entry.used&(1<<uint(o)) != 0 && entry.tags[o] == victim.Aux {
		entry.bits[o].Merge(victim.Bits)
	} else {
		entry.bits[o] = victim.Bits
		entry.tags[o] = victim.Aux
		*entry.used |= 1 << uint(o)
		// A fresh registration is created exactly once per (line,
		// region) — nothing else scrubs or deletes a live registration
		// mid-region — so this branch is the spilled-list dedup.
		p.spilled[o] = append(p.spilled[o], victim.Tag)
	}
	// Metadata write: to the home tile, then into the table/AIM. The
	// latency hides behind the data writeback; traffic and energy count.
	m.Send(now, o, m.HomeTile(victim.Tag), machine.MetaBytes)
	m.MetaAccess(now, victim.Tag, true, true)
	m.IncID(ctrSpills, 1)
}

// Boundary implements machine.Protocol: flash-clear resident bits and
// scrub every metadata record this region spilled to memory. The scrub is
// pipelined (four cycles per record after the first full access) but its
// traffic and energy are charged in full.
func (p *Protocol) Boundary(now uint64, c core.CoreID) uint64 {
	m := p.M
	lat := uint64(gangClearCycles)
	seq := m.Seq(c)
	first := true
	for _, line := range p.spilled[c] {
		entry, ok := p.lookup(line)
		if ok && *entry.used&(1<<uint(c)) != 0 && entry.tags[c] == seq {
			*entry.used &^= 1 << uint(c)
			if *entry.used == 0 {
				p.remove(line)
			}
		}
		l := m.MetaAccess(now+lat, line, true, true)
		m.IncID(ctrRegionClears, 1)
		if first {
			lat += l
			first = false
		} else {
			lat += l / 4
		}
	}
	p.spilled[c] = p.spilled[c][:0]
	return lat
}
