// Package arc implements ARC, the paper's novel design: region conflict
// detection on top of cache coherence based on release consistency with
// self-invalidation and self-downgrade, instead of M(O)ESI's eager write
// invalidation.
//
// Key mechanisms (see DESIGN.md for the full rationale):
//
//   - No directory and no invalidation traffic. Data can be cached by any
//     number of cores simultaneously; writes never disturb remote copies.
//   - A registry at each LLC tile classifies every line as private,
//     read-only, or shared. Class and owner ride in the LLC line's tag
//     bits (free); per-core access bits live in the AIM-backed metadata
//     table and are only touched when regions actually contend.
//   - Private lines are free: their access bits stay in the L1. The first
//     touch by a second core triggers a registry "recall" that collects
//     the owner's current bits (and dirty data) and reclassifies the line.
//   - Read-only lines are free for readers and exempt from
//     self-invalidation. A write to a read-only line triggers a broadcast
//     collection — rare by construction in well-behaved programs.
//   - Shared lines defer registration while no other active region is
//     touching them ("pend" mode): the fetch leaves a pend marker at the
//     registry and the bits stay local, dying silently at the region
//     boundary. When the registry sees a second live toucher, it recalls
//     the pend core's current bits and both parties switch to "eager"
//     mode, where every access that touches new bytes sends a small
//     extension registration that is checked byte-precisely against the
//     other active regions' bits. Conflict detection is therefore exact
//     while well-synchronized sharing costs almost nothing.
//   - At every region boundary a core self-downgrades its dirty shared
//     lines (write-through to the LLC) and flash self-invalidates its
//     shared lines; private and read-only data survive, which is why ARC
//     keeps single-thread locality.
package arc

import (
	"math/bits"

	"arcsim/internal/cache"
	"arcsim/internal/core"
	"arcsim/internal/linetab"
	"arcsim/internal/machine"
)

// Pre-interned counter IDs (see machine.RegisterCounter).
var (
	ctrRegistrations      = machine.RegisterCounter("arc.registrations")
	ctrLLCWritebacks      = machine.RegisterCounter("arc.llc_writebacks")
	ctrPends              = machine.RegisterCounter("arc.pends")
	ctrEagerJoins         = machine.RegisterCounter("arc.eager_joins")
	ctrPendUpgrades       = machine.RegisterCounter("arc.pend_upgrades")
	ctrPendRecalls        = machine.RegisterCounter("arc.pend_recalls")
	ctrRecalls            = machine.RegisterCounter("arc.recalls")
	ctrRecallDowngrades   = machine.RegisterCounter("arc.recall_downgrades")
	ctrBroadcasts         = machine.RegisterCounter("arc.broadcasts")
	ctrConflicts          = machine.RegisterCounter("arc.conflicts")
	ctrDowngrades         = machine.RegisterCounter("arc.downgrades")
	ctrSelfInvalidations  = machine.RegisterCounter("arc.selfinvalidations")
	ctrEvictWritethroughs = machine.RegisterCounter("arc.evict_writethroughs")
	ctrBitSpills          = machine.RegisterCounter("arc.bit_spills")
)

// Line classes. classPrivate/classReadOnly/classShared double as registry
// entry classes and L1 line states; lineSharedEager is an L1-only state
// marking a shared copy whose region has a live concurrent toucher.
const (
	// classPrivate: the registry believes only this core has touched
	// the line.
	classPrivate uint8 = iota + 1
	// classReadOnly: multiple cores read the line; nobody has written
	// it. Exempt from self-invalidation; reads are not registered.
	classReadOnly
	// classShared: written data touched by multiple cores over time. As
	// an L1 state it means "shared, deferred": no concurrent toucher
	// when fetched, bits local, pend marker at the registry.
	classShared
	// lineSharedEager: shared copy with a live concurrent toucher; new
	// bytes send eager extension registrations.
	lineSharedEager
)

// flashInvalidateCycles is the cost of the flash self-invalidation sweep
// at a region boundary.
const flashInvalidateCycles = 2

// record is one registry entry's per-line state. used, pend and
// pendWrite hold one bit per core (machine.Config.Validate caps the core
// count at 64), so a scan visits the registered cores alone.
type record struct {
	class uint8
	// writerEver: some core has ever registered write bits; such a line
	// can never (re)become read-only.
	writerEver bool
	// owner is the private owner (valid when class == classPrivate).
	owner core.CoreID
	// used marks cores with registered access bits (tagged by region
	// sequence in the view's tags). pend marks cores whose registered
	// bits may be incomplete (the rest is resident in their L1 and must
	// be recalled before a check); pendWrite marks pends whose local
	// bits include writes. pend ⊆ used.
	used, pend, pendWrite uint64
}

// regView is a borrowed view of one registry record: the record itself
// and its per-core bits and tags, which alias the protocol's flat
// backing arrays (slot s owns span [s*cores, (s+1)*cores)). Taking a
// view is free, but a view must not be used across a call that can
// create a registry entry — creation may grow the arrays, leaving the
// view pointing at the old backing storage.
type regView struct {
	r    *record
	bits []core.AccessBits
	tags []uint64
}

// register merges complete (eager) bits for core c's region seq.
func (e regView) register(c core.CoreID, seq uint64, bits core.AccessBits) {
	e.spill(c, seq, bits)
	e.r.pend &^= 1 << uint(c)
	e.r.pendWrite &^= 1 << uint(c)
}

// spill merges bits for core c without clearing its pend status (the
// core may keep accumulating bits locally after a refetch).
func (e regView) spill(c core.CoreID, seq uint64, bits core.AccessBits) {
	i, b := int(c), uint64(1)<<uint(c)
	if e.r.used&b != 0 && e.tags[i] == seq {
		e.bits[i].Merge(bits)
	} else {
		e.bits[i] = bits
		e.tags[i] = seq
		e.r.used |= b
	}
	if !bits.WriteMask.Empty() {
		e.r.writerEver = true
	}
}

// markPend records that core c's active region is touching the line with
// its bits held locally; write notes whether those bits include writes.
func (e regView) markPend(c core.CoreID, seq uint64, write bool) {
	i, b := int(c), uint64(1)<<uint(c)
	if e.r.used&b == 0 || e.tags[i] != seq {
		e.bits[i] = core.AccessBits{}
		e.tags[i] = seq
		e.r.used |= b
	}
	e.r.pend |= b
	if write {
		e.r.pendWrite |= b
	}
}

// scrubStale drops core o's registration if its region ended; it reports
// whether a live registration remains.
func (e regView) scrubStale(o int, liveSeq uint64) bool {
	b := uint64(1) << uint(o)
	if e.r.used&b == 0 {
		return false
	}
	if e.tags[o] != liveSeq {
		e.r.used &^= b
		e.r.pend &^= b
		e.r.pendWrite &^= b
		return false
	}
	return true
}

// Options disables individual ARC mechanisms for the ablation study
// (experiment A1). The full design has both enabled.
type Options struct {
	// DisableReadOnly turns off the read-only line class: read-shared
	// data behaves like written shared data (self-invalidation every
	// boundary, pend/eager registration).
	DisableReadOnly bool
	// DisablePrivate turns off the private line class: every line is
	// shared from its first touch.
	DisablePrivate bool
}

// Protocol implements machine.Protocol for ARC.
type Protocol struct {
	M *machine.Machine
	// WordGranularity tracks registry metadata at 8-byte word
	// granularity instead of bytes (experiment A3).
	WordGranularity bool

	opts Options

	// The registry, flattened: tab maps a line to a slot in the arrays
	// below. records are per-slot; bits and tags are per-slot per-core
	// spans (see regView). Slots are bump-allocated; the registry never
	// deletes entries, so there is no free list.
	tab     linetab.Table
	records []record
	bits    []core.AccessBits
	tags    []uint64
	next    int32

	// sharedSets holds one bitmap of L1 sets per core (setWords words
	// each): a set's bit is raised wherever a copy in it enters
	// classShared or lineSharedEager, and Boundary walks only the marked
	// sets. Every shared copy lies in a marked set of its core; that is
	// all Boundary needs to drop the same lines in the same order as a
	// walk of every resident line.
	sharedSets []uint64
	setWords   int
}

// New builds the ARC protocol over m with the full design.
func New(m *machine.Machine) *Protocol { return NewWithOptions(m, Options{}) }

// NewWithOptions builds ARC with ablation options.
func NewWithOptions(m *machine.Machine, opts Options) *Protocol {
	words := (m.L1[0].Config().Sets() + 63) / 64
	return &Protocol{
		M:          m,
		opts:       opts,
		sharedSets: make([]uint64, m.Cfg.Cores*words),
		setWords:   words,
	}
}

// Reset returns the protocol to its freshly-built state, keeping the
// registry capacity, so a pooled machine+protocol pair can be reused
// across runs (see DESIGN.md, "Memory discipline").
func (p *Protocol) Reset() {
	p.tab.Reset()
	p.next = 0
	clear(p.sharedSets)
}

// markShared records that core c's L1 holds a shared copy of line, so
// its next Boundary visits that line's set.
func (p *Protocol) markShared(c int, line core.Line) {
	set := p.M.L1[c].SetIndex(line)
	p.sharedSets[c*p.setWords+set>>6] |= 1 << (set & 63)
}

// Name implements machine.Protocol; ablated variants are suffixed.
func (p *Protocol) Name() string {
	switch {
	case p.opts.DisablePrivate:
		return "arc-nopriv"
	case p.opts.DisableReadOnly:
		return "arc-noro"
	case p.WordGranularity:
		return "arc-word"
	}
	return "arc"
}

// entry returns (creating if needed) the registry record for line. See
// the aliasing caveat on regView.
func (p *Protocol) entry(line core.Line) regView {
	s, ok := p.tab.Get(line)
	if !ok {
		s = p.alloc()
		p.tab.Put(line, s)
	}
	return p.view(s)
}

// view returns slot s's record.
func (p *Protocol) view(s int32) regView {
	cores := p.M.Cfg.Cores
	lo := int(s) * cores
	return regView{
		r:    &p.records[s],
		bits: p.bits[lo : lo+cores],
		tags: p.tags[lo : lo+cores],
	}
}

// alloc claims the next slot, growing the backing arrays when the
// high-water mark passes their length and clearing its record (after a
// Reset the bump allocator walks over previous-run state). bits/tags
// need no clearing: they are written before being read once the
// cleared used bit is set.
func (p *Protocol) alloc() int32 {
	cores := p.M.Cfg.Cores
	s := p.next
	p.next++
	if int(p.next) > len(p.records) {
		p.records = append(p.records, record{})
	}
	for len(p.tags) < int(p.next)*cores {
		p.bits = append(p.bits, core.AccessBits{})
		p.tags = append(p.tags, 0)
	}
	p.records[s] = record{}
	return s
}

// Access implements machine.Protocol.
func (p *Protocol) Access(now uint64, c core.CoreID, acc core.Access) uint64 {
	m := p.M
	line := acc.Line()
	seq := m.Seq(c)
	mask := acc.Mask()
	if p.WordGranularity {
		mask = core.WidenToWords(mask)
	}

	lat := m.L1Tick(c)
	l1 := m.L1[int(c)].Lookup(line)
	if l1 != nil {
		return lat + p.hit(now+lat, c, acc, line, seq, mask, l1)
	}
	return lat + p.fetch(now+lat, c, acc, line, seq, mask)
}

// hit handles an L1 hit according to the copy's state.
func (p *Protocol) hit(now uint64, c core.CoreID, acc core.Access, line core.Line, seq uint64, mask core.ByteMask, l1 *cache.Line) uint64 {
	if l1.Aux != seq {
		l1.Bits = core.AccessBits{}
		l1.Aux = seq
	}
	before := l1.Bits
	l1.Bits.Add(acc.Kind, mask)
	grew := l1.Bits != before

	var lat uint64
	switch l1.State {
	case classPrivate:
		// Private copies track bits locally; the registry recalls them
		// if a second core ever touches the line.
	case classShared:
		// Deferred-shared: reads stay local. The first write upgrades
		// the pend at the registry (and may force eager mode).
		if acc.Kind == core.Write && before.WriteMask.Empty() {
			lat += p.pendUpgrade(now, c, line, seq, mask, l1)
		}
	case classReadOnly:
		if acc.Kind == core.Write {
			// First write to read-only data: collect and reclassify.
			// The registration must carry the requester's *full* local
			// bits — its earlier read-only reads of this line were
			// never registered and become visible with the class flip.
			lat += p.broadcastCollect(now, c, line)
			lat += p.registerFull(now+lat, c, acc.Kind, line, seq, mask, l1.Bits)
			l1.State = lineSharedEager
			p.markShared(int(c), line)
		}
		// Reads on read-only lines are unregistered and free.
	case lineSharedEager:
		if grew {
			lat += p.registerAt(now, c, acc.Kind, line, seq, mask)
		}
	}
	if acc.Kind == core.Write {
		l1.Dirty = true
	}
	return lat
}

// registerAt sends an extension registration for (kind, mask) to the home
// registry and checks it against other cores' registered bits. The send
// is on the critical path; the acknowledgement's traffic is charged but
// its latency is overlapped (log-and-continue exception semantics).
func (p *Protocol) registerAt(now uint64, c core.CoreID, kind core.AccessKind, line core.Line, seq uint64, mask core.ByteMask) uint64 {
	var bits core.AccessBits
	bits.Add(kind, mask)
	return p.registerFull(now, c, kind, line, seq, mask, bits)
}

// registerFull registers an arbitrary bit set (checking the triggering
// access's mask for conflicts first).
func (p *Protocol) registerFull(now uint64, c core.CoreID, kind core.AccessKind, line core.Line, seq uint64, mask core.ByteMask, bits core.AccessBits) uint64 {
	m := p.M
	home := m.HomeTile(line)
	lat := m.Send(now, int(c), home, machine.MaskBytes)
	m.Send(now+lat, home, int(c), machine.CtrlBytes) // ack, overlapped
	lat += m.MetaAccess(now+lat, line, true, false)
	m.IncID(ctrRegistrations, 1)

	e := p.entry(line)
	lat += p.recallPends(now+lat, c, line, e)
	p.checkConflicts(now+lat, c, kind, line, mask, e)
	e.register(c, seq, bits)
	return lat
}

// fetch handles an L1 miss: data comes from the home LLC slice (or
// memory), the registry is consulted, classification may change (recall /
// broadcast), conflicts are checked, and the access is recorded.
func (p *Protocol) fetch(now uint64, c core.CoreID, acc core.Access, line core.Line, seq uint64, mask core.ByteMask) uint64 {
	m := p.M
	home := m.HomeTile(line)
	r := int(c)

	// Request carries the initial access mask; 8B header + 8B mask fit
	// in a single flit, so the request costs the same as a MESI GetS.
	lat := m.Send(now, r, home, machine.MaskBytes)
	lat += m.LLCTick(home)

	// Data lookup at the home slice.
	if m.LLC[home].Lookup(line) == nil {
		slot, victim, evicted := m.LLC[home].Insert(line)
		if evicted && victim.Dirty {
			m.DRAMData(now+lat, victim.Tag, true) // off critical path
			m.IncID(ctrLLCWritebacks, 1)
		}
		slot.Dirty = false
		lat += m.DRAMData(now+lat, line, false)
	}

	// Registry consultation. Class and owner are stored with the LLC
	// line, so reading them costs nothing beyond the LLC access above;
	// the bits table (AIM) is touched only on contention paths below.
	e := p.entry(line)
	var class uint8
	switch {
	case e.r.class == 0:
		// Untouched: becomes private to the requester (or joins the
		// shared protocol immediately under the DisablePrivate
		// ablation).
		if p.opts.DisablePrivate {
			e.r.class = classShared
			var jl uint64
			class, jl = p.joinShared(now+lat, c, acc.Kind, line, seq, mask, e)
			lat += jl
		} else {
			e.r.class = classPrivate
			e.r.owner = c
			class = classPrivate
		}
	case e.r.class == classPrivate && e.r.owner == c:
		class = classPrivate // refetch by the owner
	case e.r.class == classPrivate:
		// Second toucher: recall the owner's bits, reclassify.
		lat += p.recall(now+lat, e.r.owner, line, e)
		if e.r.writerEver || acc.Kind == core.Write || p.opts.DisableReadOnly {
			e.r.class = classShared
			// Concurrency has materialized: the requester joins eager
			// (joinShared sees the owner's live bits if any).
			var jl uint64
			class, jl = p.joinShared(now+lat, c, acc.Kind, line, seq, mask, e)
			lat += jl
		} else {
			e.r.class = classReadOnly
			class = classReadOnly
		}
		// The former owner's copy (if resident) takes the new class;
		// under contention it operates eagerly.
		if ol := m.L1[int(e.r.owner)].Peek(line); ol != nil {
			ol.State = e.r.class
			if e.r.class == classShared {
				ol.State = lineSharedEager
				p.markShared(int(e.r.owner), line)
			}
		}
	case e.r.class == classReadOnly && acc.Kind == core.Write:
		lat += p.broadcastCollect(now+lat, c, line)
		var jl uint64
		class, jl = p.joinShared(now+lat, c, acc.Kind, line, seq, mask, e)
		lat += jl
	case e.r.class == classReadOnly:
		class = classReadOnly // free: no bits tracked for readers
	default: // shared
		var jl uint64
		class, jl = p.joinShared(now+lat, c, acc.Kind, line, seq, mask, e)
		lat += jl
	}

	// Data response.
	lat += m.Send(now+lat, home, r, machine.DataBytes)

	// Local fill.
	slot, victim, evicted := m.L1[r].Insert(line)
	if evicted {
		p.evict(now+lat, c, victim)
	}
	slot.State = class
	if class == classShared || class == lineSharedEager {
		p.markShared(r, line)
	}
	slot.Dirty = acc.Kind == core.Write
	slot.Aux = seq
	slot.Bits = core.AccessBits{}
	slot.Bits.Add(acc.Kind, mask)
	return lat
}

// joinShared runs the shared-line admission protocol for an access by c.
// Concurrent *readers* may all defer (pend mode, bits local, one cheap
// pend marker each) — reads cannot conflict with reads, so they need no
// mutual visibility. The moment a live *writer* is involved — the joiner
// writes while anyone is live, or a joiner of any kind finds a live
// region with writes — all pend bits are recalled, the incoming access is
// checked against every live region's bits, and everyone operates eagerly
// from then on. Returns the L1 state for c's copy.
func (p *Protocol) joinShared(now uint64, c core.CoreID, kind core.AccessKind, line core.Line, seq uint64, mask core.ByteMask, e regView) (uint8, uint64) {
	m := p.M
	var lat uint64
	liveAny, liveWriter := false, false
	for set := e.r.used &^ (1 << uint(c)); set != 0; set &= set - 1 {
		o := bits.TrailingZeros64(set)
		if !e.scrubStale(o, m.Seq(core.CoreID(o))) {
			continue
		}
		liveAny = true
		// A live region is a writer if its pend flavor says so (local
		// write bits) or its *registered* bits contain writes — a core
		// can re-pend after an eager phase (eviction + refetch) with
		// its earlier write bits already in the registry.
		if e.r.pend&e.r.pendWrite&(1<<uint(o)) != 0 || !e.bits[o].WriteMask.Empty() {
			liveWriter = true
		}
	}
	eager := (kind == core.Write && liveAny) || liveWriter
	if !eager {
		// Defer: leave a pend marker (a dirty-allocated table touch).
		lat += m.MetaAccess(now, line, true, true)
		e.markPend(c, seq, kind == core.Write)
		m.IncID(ctrPends, 1)
		return classShared, lat
	}
	// A writer is in play: gather pend bits, check, register eagerly.
	lat += p.recallPends(now+lat, c, line, e)
	lat += m.MetaAccess(now+lat, line, true, false)
	p.checkConflicts(now+lat, c, kind, line, mask, e)
	var bits core.AccessBits
	bits.Add(kind, mask)
	e.register(c, seq, bits)
	m.IncID(ctrEagerJoins, 1)
	return lineSharedEager, lat
}

// pendUpgrade handles the first local write to a read-pend copy: the
// registry learns the pend now covers writes; if other live regions are
// touching the line, their bits are recalled and everyone goes eager.
func (p *Protocol) pendUpgrade(now uint64, c core.CoreID, line core.Line, seq uint64, mask core.ByteMask, l1 *cache.Line) uint64 {
	m := p.M
	home := m.HomeTile(line)
	lat := m.Send(now, int(c), home, machine.MaskBytes)
	m.IncID(ctrPendUpgrades, 1)

	e := p.entry(line)
	liveAny := false
	for set := e.r.used &^ (1 << uint(c)); set != 0; set &= set - 1 {
		o := bits.TrailingZeros64(set)
		if e.scrubStale(o, m.Seq(core.CoreID(o))) {
			liveAny = true
		}
	}
	if !liveAny {
		lat += m.MetaAccess(now+lat, line, true, true)
		e.markPend(c, seq, true)
		return lat
	}
	// Others are live: recall them, check my new write against their
	// bits (my earlier reads were already checked from their side when
	// their writes registered — see package comment), go eager.
	lat += p.recallPends(now+lat, c, line, e)
	lat += m.MetaAccess(now+lat, line, true, false)
	p.checkConflicts(now+lat, c, core.Write, line, mask, e)
	e.register(c, seq, l1.Bits) // full local bits become visible
	l1.State = lineSharedEager
	m.IncID(ctrEagerJoins, 1)
	return lat
}

// recallPends collects the locally-held bits of every live pend core
// (other than c) and flips their resident copies to eager mode.
func (p *Protocol) recallPends(now uint64, c core.CoreID, line core.Line, e regView) uint64 {
	m := p.M
	home := m.HomeTile(line)
	var worst uint64
	for set := e.r.pend & e.r.used &^ (1 << uint(c)); set != 0; set &= set - 1 {
		o := bits.TrailingZeros64(set)
		oc := core.CoreID(o)
		if !e.scrubStale(o, m.Seq(oc)) {
			continue
		}
		legA := m.Send(now, home, o, machine.CtrlBytes)
		legB := m.Send(now+legA, o, home, machine.MetaBytes)
		if legA+legB > worst {
			worst = legA + legB
		}
		m.IncID(ctrPendRecalls, 1)
		if ol := m.L1[o].Peek(line); ol != nil {
			if !ol.Bits.Empty() && ol.Aux == m.Seq(oc) {
				e.spill(oc, ol.Aux, ol.Bits)
			}
			if ol.State == classShared {
				ol.State = lineSharedEager
			}
		}
		// Any evicted portion of o's bits was spilled at eviction and
		// is already merged; o's registration is complete now.
		e.r.pend &^= 1 << uint(o)
		e.r.pendWrite &^= 1 << uint(o)
	}
	return worst
}

// recall collects the private owner's current bits (and dirty data) when
// a second core touches the line. The caller reclassifies the owner's
// resident copy once the new class is decided.
func (p *Protocol) recall(now uint64, owner core.CoreID, line core.Line, e regView) uint64 {
	m := p.M
	home := m.HomeTile(line)
	lat := m.Send(now, home, int(owner), machine.CtrlBytes)
	m.IncID(ctrRecalls, 1)

	ol := m.L1[int(owner)].Peek(line)
	if ol == nil {
		// Not resident: the owner's bits were spilled at eviction and
		// are already in the registry.
		return lat + m.Send(now+lat, int(owner), home, machine.CtrlBytes)
	}
	resp := machine.MetaBytes
	if ol.Dirty {
		// Write the dirty data through so the requester sees it.
		resp += machine.DataBytes
		p.writeThrough(now+lat, line)
		ol.Dirty = false
		m.IncID(ctrRecallDowngrades, 1)
	}
	if !ol.Bits.Empty() && ol.Aux == m.Seq(owner) {
		e.spill(owner, ol.Aux, ol.Bits)
	}
	if !ol.Bits.WriteMask.Empty() {
		e.r.writerEver = true
	}
	// The owner's bits charge one table update.
	m.MetaAccess(now+lat, line, true, true)
	return lat + m.Send(now+lat, int(owner), home, resp)
}

// broadcastCollect handles the first write to a read-only line: every
// core is queried for its resident bits, which are registered; all
// resident copies are reclassified shared-eager. Rare for well-behaved
// data.
func (p *Protocol) broadcastCollect(now uint64, requester core.CoreID, line core.Line) uint64 {
	m := p.M
	home := m.HomeTile(line)
	e := p.entry(line)
	e.r.class = classShared
	e.r.writerEver = true
	m.IncID(ctrBroadcasts, 1)

	var worst uint64
	for o := 0; o < m.Cfg.Cores; o++ {
		if core.CoreID(o) == requester {
			continue
		}
		legA := m.Send(now, home, o, machine.CtrlBytes)
		resp := machine.CtrlBytes
		if ol := m.L1[o].Peek(line); ol != nil {
			ol.State = lineSharedEager
			p.markShared(o, line)
			if !ol.Bits.Empty() && ol.Aux == m.Seq(core.CoreID(o)) {
				e.spill(core.CoreID(o), ol.Aux, ol.Bits)
				resp = machine.MetaBytes
			}
		}
		legB := m.Send(now+legA, o, home, resp)
		if legA+legB > worst {
			worst = legA + legB
		}
	}
	return worst + m.MetaAccess(now+worst, line, true, false)
}

// checkConflicts compares an incoming access against every other core's
// registered bits for the line and reports byte-overlapping conflicts.
// Callers must have recalled pend bits first.
func (p *Protocol) checkConflicts(now uint64, c core.CoreID, kind core.AccessKind, line core.Line, mask core.ByteMask, e regView) {
	m := p.M
	for set := e.r.used &^ (1 << uint(c)); set != 0; set &= set - 1 {
		o := bits.TrailingZeros64(set)
		oc := core.CoreID(o)
		if !e.scrubStale(o, m.Seq(oc)) {
			continue
		}
		clash, ok := e.bits[o].ConflictsWith(kind, mask)
		if !ok {
			continue
		}
		conflict := core.Conflict{
			Line:       line,
			First:      core.RegionID{Core: oc, Seq: e.tags[o]},
			Second:     m.Region(c),
			FirstWrote: e.bits[o].WriteMask.Overlaps(mask),
			SecondKind: kind,
			Bytes:      clash,
		}
		if m.Report(now, c, conflict) {
			m.IncID(ctrConflicts, 1)
		}
	}
}

// writeThrough pushes one line's dirty data to the home LLC slice (or
// straight to memory if the slice no longer caches it).
func (p *Protocol) writeThrough(now uint64, line core.Line) {
	m := p.M
	home := m.HomeTile(line)
	if dl := m.LLC[home].Peek(line); dl != nil {
		dl.Dirty = true
		m.Meter.LLCAccesses(1)
	} else {
		m.DRAMData(now, line, true)
	}
}

// evict handles an L1 eviction: private, read-only, and deferred-shared
// victims spill their live bits to the registry (so later recalls and
// broadcasts still see them); dirty data is written through. Eager
// victims already registered their bits.
func (p *Protocol) evict(now uint64, c core.CoreID, victim cache.Line) {
	m := p.M
	home := m.HomeTile(victim.Tag)
	liveBits := !victim.Bits.Empty() && victim.Aux == m.Seq(c)

	payload := 0
	if victim.Dirty {
		payload += machine.DataBytes
		p.writeThrough(now, victim.Tag)
		m.IncID(ctrEvictWritethroughs, 1)
	}
	if liveBits && victim.State != lineSharedEager {
		payload += machine.MetaBytes
		e := p.entry(victim.Tag)
		e.spill(c, victim.Aux, victim.Bits)
		m.MetaAccess(now, victim.Tag, true, true)
		m.IncID(ctrBitSpills, 1)
	}
	if payload > 0 {
		m.Send(now, int(c), home, payload)
	}
}

// Boundary implements machine.Protocol: flash self-invalidate all shared
// lines, self-downgrading each dirty one (write-through) just before it
// is dropped. Private and read-only lines survive, preserving locality.
// The write-throughs are pipelined: the first pays full latency, the
// rest a quarter. Downgrading inside the invalidation walk relies on a
// write-through touching only the NoC, the LLC and DRAM, never this L1,
// so the walk's slot order and each send's start time do not depend on
// what the walk has already dropped. The walk visits only the sets
// marked since the last boundary: every shared copy lies in one, so it
// drops the same lines in the same ascending slot order as a walk of
// every resident line, and afterwards no shared copy is left to mark.
func (p *Protocol) Boundary(now uint64, c core.CoreID) uint64 {
	m := p.M
	r := int(c)
	lat := uint64(flashInvalidateCycles)
	first := true
	sets := p.sharedSets[r*p.setWords : (r+1)*p.setWords]
	n := m.L1[r].InvalidateIf(sets, func(l *cache.Line) bool {
		if l.State != classShared && l.State != lineSharedEager {
			return false
		}
		if !l.Dirty {
			return true
		}
		home := m.HomeTile(l.Tag)
		// Word-granularity write-through: only the written bytes move
		// (plus their mask); within a region the write mask covers all
		// dirty bytes because shared lines flush at every boundary.
		payload := l.Bits.WriteMask.Count() + machine.MaskBytes
		sendLat := m.Send(now+lat, r, home, payload)
		p.writeThrough(now+lat, l.Tag)
		m.IncID(ctrDowngrades, 1)
		if first {
			lat += sendLat
			first = false
		} else {
			lat += sendLat / 4
		}
		return true
	})
	clear(sets)
	m.IncID(ctrSelfInvalidations, uint64(n))
	return lat
}

// RegistrySize reports the number of live registry entries (for tests and
// diagnostics).
func (p *Protocol) RegistrySize() int { return p.tab.Len() }
