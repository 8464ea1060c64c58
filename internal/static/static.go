// Package static implements an interleaving-agnostic region-conflict
// analyzer over trace programs. Where the dynamic designs (CE, CE+, ARC)
// observe one schedule and report the region conflicts that actually
// manifested, the analyzer reasons over every schedule the simulator could
// produce and predicts the conflicts that *may* manifest in some
// interleaving.
//
// The analysis combines three classic ingredients over the trace's
// synchronization-free region (SFR) decomposition:
//
//   - Per-thread SFR decomposition. Region boundaries are exactly the
//     simulator's: acquire, release, barrier, and thread end each close
//     the current region and open the next, with sequence numbers matching
//     core.RegionID (seq 0 first, incremented at every boundary).
//
//   - Eraser-style locksets. Within one SFR the held-lock set is constant
//     (acquires and releases are themselves boundaries), so the lockset is
//     a per-region attribute. Reentrant acquires are counted; a lock is
//     held until its outermost release.
//
//   - Barrier-phase happens-before. Barriers are the only trace operation
//     that orders *all* threads, so they induce a vector-clock order (see
//     vclock.go): two regions on different threads are concurrent exactly
//     when they fall in the same barrier phase. Lock release→acquire edges
//     are deliberately NOT treated as ordering — which releaser feeds
//     which acquirer is schedule-dependent — so locks contribute mutual
//     exclusion only, never happens-before.
//
// Two regions are conflict-predicted when they run on different threads in
// the same barrier phase, hold no lock in common, and touch overlapping
// bytes of a cache line with at least one write. The verdict is
// ProvenDRF when no pair of regions is conflict-predicted.
//
// # Soundness
//
// The contract, cross-checked continuously by internal/conformance, is:
// every conflict any dynamic protocol can detect in any interleaving is
// predicted. The argument has two halves, both anchored in the simulator's
// event-processing order (internal/sim):
//
//   - Phases: a thread's phase-p+1 events are only scheduled after every
//     thread has arrived at barrier p, and the arriving threads' boundary
//     events are processed at their arrival times, before the release. So
//     a phase-p region is always closed (its Boundary observed by the
//     oracle and every design) before any phase-p+1 access executes —
//     regions in different phases can never overlap temporally.
//
//   - Locksets: when a thread blocks on a held lock, the releaser's
//     release boundary is processed before the waiter's grant is
//     scheduled. Two regions holding a common lock therefore never have
//     temporally overlapping accesses, in any schedule.
//
// Everything else about the schedule is adversarial: any two same-phase,
// lock-disjoint regions on different threads may overlap, so their byte
// clashes are reported.
//
// # Precision
//
// The analysis is deliberately conservative — a predicted conflict may be
// unrealizable (e.g. accesses ordered by data flow the trace language
// cannot express). Precision is measured, not assumed: the STAT experiment
// (cmd/experiments -run STAT) reports the false-positive rate over the
// DRF workload suite, and the conformance engine asserts the generator's
// DRF-by-construction programs are proven DRF.
package static

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"arcsim/internal/core"
	"arcsim/internal/linetab"
	"arcsim/internal/trace"
)

// Verdict is the analyzer's overall judgment of a program.
type Verdict int

const (
	// ProvenDRF means no pair of regions is conflict-predicted: the
	// program is data-race-free under every schedule, and no dynamic
	// design can raise a region-conflict exception on it.
	ProvenDRF Verdict = iota
	// MayConflict means at least one pair of regions is
	// conflict-predicted; see Analysis.Conflicts.
	MayConflict
)

func (v Verdict) String() string {
	if v == ProvenDRF {
		return "proven-DRF"
	}
	return "may-conflict"
}

// PredictedConflict describes one predicted conflict: two concurrent,
// lock-disjoint region groups on different threads touching overlapping
// bytes of a line with at least one write. To keep reports readable on
// large programs, regions of one thread that share a barrier phase and a
// lockset are aggregated; RegionA/RegionB name the earliest region of
// each side and Pairs counts how many raw region pairs the record covers.
type PredictedConflict struct {
	// Line is the conflicting cache line.
	Line core.Line
	// Phase is the barrier phase both sides run in.
	Phase int
	// RegionA and RegionB are the earliest conflicting regions of each
	// side, ordered so RegionA.Core < RegionB.Core.
	RegionA, RegionB core.RegionID
	// AWrites and BWrites report which sides contribute writes to the
	// clash (at least one is true).
	AWrites, BWrites bool
	// Bytes covers the clashing bytes of the line.
	Bytes core.ByteMask
	// Pairs is the number of raw region pairs aggregated into this
	// record.
	Pairs int
}

func (p PredictedConflict) String() string {
	kind := func(w bool) string {
		if w {
			return "W"
		}
		return "R"
	}
	return fmt.Sprintf("line %#x phase %d: %v(%s) vs %v(%s) over %d byte(s) [%d pair(s)]",
		uint64(p.Line.Base()), p.Phase, p.RegionA, kind(p.AWrites), p.RegionB, kind(p.BWrites),
		p.Bytes.Count(), p.Pairs)
}

// Stats summarizes the analyzed program.
type Stats struct {
	Threads  int // trace threads
	Events   int // total trace events
	Accesses int // memory accesses
	Regions  int // SFRs across all threads
	Phases   int // barrier phases (barriers + 1)
	Lines    int // distinct cache lines touched
	Shared   int // lines touched by more than one thread
}

// Analysis is the result of analyzing one trace program. It is immutable
// after Analyze returns and safe for concurrent use.
type Analysis struct {
	stats     Stats
	conflicts []PredictedConflict

	// regionPhase[t][s] and regionLockset[t][s] give region (t,s)'s
	// barrier phase and interned lockset. Every processed boundary opens
	// a region, so the slices cover seq 0..#boundaries(t).
	regionPhase   [][]int32
	regionLockset [][]int32
	// phaseStart[t][p] is the seq of thread t's first region in phase p;
	// see vclock.go for how this encodes the barrier-join vector clocks.
	phaseStart [][]uint64
	// regionAH[t][s] is region (t,s)'s acquisition-history snapshot: one
	// interned lockset id per held lock, aligned with the region's sorted
	// lockset, naming the locks freshly acquired since that lock's
	// outermost hold began (see RefutesPair). nil for lock-free regions.
	regionAH [][][]int32
	// locksets[i] is interned lockset i, sorted ascending. Index 0 is
	// the empty set. locksetIdx maps the byte encoding of a sorted set
	// to its id (lock-heavy workloads intern on every acquire/release,
	// so the lookup must not scan the table).
	locksets   [][]uint32
	locksetIdx map[string]int32
	// lines holds each touched line's per-region access footprints,
	// in first-touch order, and lineIdx maps a line to its index there.
	lines   []lineBuf
	lineIdx linetab.Table
	// lineCache is a direct-mapped line→index cache used only during the
	// walk: accesses have strong line locality (a 64-byte line absorbs
	// several consecutive accesses, and loops alternate between a handful
	// of lines), and the per-access table lookup is otherwise the
	// analysis's dominant cost.
	lineCache [lineCacheSize]lineCacheEntry
	// entrySlab is the unused tail of the chunk record carves each new
	// line's first entries from, and keyBuf is internLockset's reusable
	// key encoding: the walk allocates per chunk, not per line or
	// lockset lookup.
	entrySlab []lineEntry
	keyBuf    []byte
}

// lineBufEntries is how many entries a new line starts with room for,
// and entryChunk how many entries the slab they come from holds.
const (
	lineBufEntries = 2
	entryChunk     = 512
)

const lineCacheSize = 4096

// lineCacheEntry caches line's index in Analysis.lines, plus one (the
// zero entry caches nothing).
type lineCacheEntry struct {
	line core.Line
	idx1 int32
}

// lineEntry is the merged access footprint of one region on one line.
type lineEntry struct {
	thread int32
	seq    uint64
	bits   core.AccessBits
}

// lineBuf holds one line's entries, grouped by thread with ascending
// seq (binary-searchable). lastThread/lastIdx cache the most recent entry
// so a region's repeat touches of a line merge with a single lookup (the
// walk is per-thread, so the cache cannot be invalidated by another
// thread).
type lineBuf struct {
	line       core.Line
	entries    []lineEntry
	lastThread int32
	lastIdx    int32
}

// Analyze runs the static analysis over tr. The trace must validate
// (trace.Validate rules: balanced locks, consistent barrier sequences,
// in-line accesses); analysis errors are limited to validation failures.
func Analyze(tr *trace.Trace) (*Analysis, error) {
	if tr == nil {
		return nil, fmt.Errorf("static: nil trace")
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("static: %w", err)
	}
	a := &Analysis{
		regionPhase:   make([][]int32, len(tr.Threads)),
		regionLockset: make([][]int32, len(tr.Threads)),
		phaseStart:    make([][]uint64, len(tr.Threads)),
		regionAH:      make([][][]int32, len(tr.Threads)),
	}
	a.internLockset(nil) // index 0: empty set
	for t := range tr.Threads {
		a.walkThread(tr, t)
	}
	a.stats.Threads = len(tr.Threads)
	a.stats.Events = tr.Events()
	a.stats.Phases = len(a.phaseStart[0])
	a.stats.Lines = len(a.lines)
	for t := range a.regionPhase {
		a.stats.Regions += len(a.regionPhase[t])
	}
	a.enumerate()
	return a, nil
}

// walkThread decomposes one thread into regions, assigning each its phase
// and lockset and recording per-line access footprints. The region
// sequence numbering mirrors the simulator exactly: seq starts at 0 and
// increments each time a boundary event is processed (an acquire's
// boundary fires even while the thread then blocks for the lock).
func (a *Analysis) walkThread(tr *trace.Trace, t int) {
	var (
		seq   uint64
		phase int32
		held  = map[uint32]int{} // lock -> reentrant acquire depth
		cur   = make([]uint32, 0, 4)
		curID int32 // interned id of cur
		// ah[l] is lock l's acquisition history — the sorted set of locks
		// freshly acquired since l's outermost hold began. Reentrant
		// acquires never block, so they are not acquisitions here.
		ah = map[uint32][]uint32{}
	)
	open := func() {
		a.regionPhase[t] = append(a.regionPhase[t], phase)
		a.regionLockset[t] = append(a.regionLockset[t], curID)
		var snap []int32
		if len(cur) > 0 {
			snap = make([]int32, len(cur))
			for i, l := range cur {
				snap[i] = a.internLockset(ah[l])
			}
		}
		a.regionAH[t] = append(a.regionAH[t], snap)
	}
	a.phaseStart[t] = append(a.phaseStart[t], 0)
	open() // region 0: phase 0, no locks
	for _, ev := range tr.Threads[t] {
		switch ev.Op {
		case trace.OpRead, trace.OpWrite:
			acc := ev.Mem()
			a.record(acc.Line(), t, seq, acc.Kind, acc.Mask())
			a.stats.Accesses++
		case trace.OpAcquire:
			seq++
			if held[ev.Arg]++; held[ev.Arg] == 1 {
				for _, l := range cur {
					if !containsLock(ah[l], ev.Arg) {
						ah[l] = insertLock(ah[l], ev.Arg)
					}
				}
				ah[ev.Arg] = nil
				cur = insertLock(cur, ev.Arg)
				curID = a.internLockset(cur)
			}
			open()
		case trace.OpRelease:
			seq++
			if held[ev.Arg]--; held[ev.Arg] == 0 {
				delete(held, ev.Arg)
				delete(ah, ev.Arg)
				cur = removeLock(cur, ev.Arg)
				curID = a.internLockset(cur)
			}
			open()
		case trace.OpBarrier:
			seq++
			phase++
			a.phaseStart[t] = append(a.phaseStart[t], seq)
			open()
		case trace.OpEnd:
			seq++
			open()
		}
	}
}

// record merges one access into the region's footprint on the line.
// Threads are walked one at a time in index order, so per-line entries
// end up grouped by thread with ascending seq — the order footprint's
// binary search needs — and the lineBuf cache merges repeat touches of
// the walking region in O(1).
func (a *Analysis) record(line core.Line, t int, seq uint64, kind core.AccessKind, mask core.ByteMask) {
	slot := &a.lineCache[(uint64(line)*0x9e3779b97f4a7c15)>>(64-12)]
	if slot.idx1 == 0 || slot.line != line {
		i, ok := a.lineIdx.Get(line)
		if !ok {
			i = a.newLine(line)
		}
		slot.line, slot.idx1 = line, i+1
	}
	b := &a.lines[slot.idx1-1]
	if b.lastThread == int32(t) && b.entries[b.lastIdx].seq == seq {
		b.entries[b.lastIdx].bits.Add(kind, mask)
		return
	}
	e := lineEntry{thread: int32(t), seq: seq}
	e.bits.Add(kind, mask)
	b.lastThread, b.lastIdx = int32(t), int32(len(b.entries))
	b.entries = append(b.entries, e)
}

// newLine registers line and returns its index. Its first
// lineBufEntries entries are carved from the slab: most lines hold one
// or two entries, so most never allocate, and a line that outgrows its
// room grows by append.
func (a *Analysis) newLine(line core.Line) int32 {
	if len(a.entrySlab) < lineBufEntries {
		a.entrySlab = make([]lineEntry, entryChunk)
	}
	i := int32(len(a.lines))
	a.lines = append(a.lines, lineBuf{line: line, entries: a.entrySlab[:0:lineBufEntries], lastThread: -1})
	a.entrySlab = a.entrySlab[lineBufEntries:]
	a.lineIdx.Put(line, i)
	return i
}

// lineEntries returns line's entries, or nil if no region touched it.
func (a *Analysis) lineEntries(line core.Line) []lineEntry {
	if i, ok := a.lineIdx.Get(line); ok {
		return a.lines[i].entries
	}
	return nil
}

// internLockset returns a stable id for the sorted lockset ls, interning
// it on first sight.
func (a *Analysis) internLockset(ls []uint32) int32 {
	key := a.keyBuf[:0]
	for _, l := range ls {
		key = append(key, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	a.keyBuf = key
	if id, ok := a.locksetIdx[string(key)]; ok {
		return id
	}
	if a.locksetIdx == nil {
		a.locksetIdx = map[string]int32{}
	}
	id := int32(len(a.locksets))
	a.locksets = append(a.locksets, append([]uint32(nil), ls...))
	a.locksetIdx[string(key)] = id
	return id
}

// disjoint reports whether interned locksets i and j share no lock. Both
// are sorted, so a linear merge suffices.
func (a *Analysis) disjoint(i, j int32) bool {
	x, y := a.locksets[i], a.locksets[j]
	for len(x) > 0 && len(y) > 0 {
		switch {
		case x[0] == y[0]:
			return false
		case x[0] < y[0]:
			x = x[1:]
		default:
			y = y[1:]
		}
	}
	return true
}

// clashBytes returns the bytes where the two footprints conflict: an
// overlap with at least one writer.
func clashBytes(x, y core.AccessBits) core.ByteMask {
	return (x.WriteMask & y.Touched()) | (x.Touched() & y.WriteMask)
}

// aggKey groups same-line regions that are interchangeable for conflict
// purposes: same thread, same phase, same lockset.
type aggKey struct {
	phase   int32
	thread  int32
	lockset int32
}

type agg struct {
	key      aggKey
	bits     core.AccessBits
	firstSeq uint64
	count    int
}

// enumerate builds the predicted-conflict set. Per line, regions are
// first aggregated by (phase, thread, lockset) — the only attributes the
// conflict predicate reads — so the pairwise pass is bounded by
// threads × locksets per phase rather than by region count. One agg
// slice serves every line. Lines are visited in first-touch order: no
// two records share a (line, region pair) key, so the final sort alone
// fixes the report order.
func (a *Analysis) enumerate() {
	var aggs []agg
	for i := range a.lines {
		line, entries := a.lines[i].line, a.lines[i].entries
		multi, anyWrite := false, false
		for _, e := range entries {
			if e.thread != entries[0].thread {
				multi = true
			}
			if e.bits.WriteMask != 0 {
				anyWrite = true
			}
		}
		if multi {
			a.stats.Shared++
		}
		if !multi || !anyWrite {
			continue
		}
		// Entries run by thread with ascending seq, and a thread's phase
		// never decreases with seq, so each (thread, phase) group is one
		// run of entries: an entry's agg is found among the aggs its
		// group has opened, which differ only in lockset.
		aggs = aggs[:0]
		group := 0
		for _, e := range entries {
			k := aggKey{
				phase:   a.regionPhase[e.thread][e.seq],
				thread:  e.thread,
				lockset: a.regionLockset[e.thread][e.seq],
			}
			if group < len(aggs) && (aggs[group].key.thread != k.thread || aggs[group].key.phase != k.phase) {
				group = len(aggs)
			}
			i := group
			for i < len(aggs) && aggs[i].key.lockset != k.lockset {
				i++
			}
			if i == len(aggs) {
				aggs = append(aggs, agg{key: k, firstSeq: e.seq})
			}
			aggs[i].bits.Merge(e.bits)
			aggs[i].count++
		}
		slices.SortFunc(aggs, func(x, y agg) int {
			return cmp.Or(
				cmp.Compare(x.key.phase, y.key.phase),
				cmp.Compare(x.key.thread, y.key.thread),
				cmp.Compare(x.key.lockset, y.key.lockset),
			)
		})
		for i := range aggs {
			gi := &aggs[i]
			for j := i + 1; j < len(aggs); j++ {
				gj := &aggs[j]
				if gj.key.phase != gi.key.phase {
					break // aggs are phase-sorted
				}
				if gj.key.thread == gi.key.thread || !a.disjoint(gi.key.lockset, gj.key.lockset) {
					continue
				}
				clash := clashBytes(gi.bits, gj.bits)
				if clash == 0 {
					continue
				}
				pc := PredictedConflict{
					Line:    line,
					Phase:   int(gi.key.phase),
					RegionA: core.RegionID{Core: core.CoreID(gi.key.thread), Seq: gi.firstSeq},
					RegionB: core.RegionID{Core: core.CoreID(gj.key.thread), Seq: gj.firstSeq},
					AWrites: gi.bits.WriteMask&gj.bits.Touched() != 0,
					BWrites: gj.bits.WriteMask&gi.bits.Touched() != 0,
					Bytes:   clash,
					Pairs:   gi.count * gj.count,
				}
				if pc.RegionB.Core < pc.RegionA.Core {
					pc.RegionA, pc.RegionB = pc.RegionB, pc.RegionA
					pc.AWrites, pc.BWrites = pc.BWrites, pc.AWrites
				}
				a.conflicts = append(a.conflicts, pc)
			}
		}
	}
	// The documented deterministic report order: line, then region pair
	// (A's core/seq, then B's), then phase. Emission above is already
	// deterministic, but downstream artifacts (-analyze JSON, witness
	// reports) pin this explicit order, independent of how enumeration
	// groups records.
	slices.SortFunc(a.conflicts, func(x, y PredictedConflict) int {
		return cmp.Or(
			cmp.Compare(x.Line, y.Line),
			cmp.Compare(x.RegionA.Core, y.RegionA.Core),
			cmp.Compare(x.RegionA.Seq, y.RegionA.Seq),
			cmp.Compare(x.RegionB.Core, y.RegionB.Core),
			cmp.Compare(x.RegionB.Seq, y.RegionB.Seq),
			cmp.Compare(x.Phase, y.Phase),
		)
	})
}

// Verdict returns ProvenDRF when no conflict is predicted.
func (a *Analysis) Verdict() Verdict {
	if len(a.conflicts) == 0 {
		return ProvenDRF
	}
	return MayConflict
}

// ProvenDRF reports whether the program is proven data-race-free across
// all schedules.
func (a *Analysis) ProvenDRF() bool { return a.Verdict() == ProvenDRF }

// Conflicts returns the predicted conflicts in the documented
// deterministic order: ascending line, then region pair (RegionA's core
// and seq, then RegionB's), then phase. The order is byte-stable across
// runs and map-iteration orders, so JSON artifacts built from it
// (-analyze output, witness reports) diff cleanly. The slice is a copy.
func (a *Analysis) Conflicts() []PredictedConflict {
	return append([]PredictedConflict(nil), a.conflicts...)
}

// Stats returns program statistics gathered during the walk.
func (a *Analysis) Stats() Stats { return a.stats }

// footprint returns region r's access footprint on line, if it touched
// the line. Entries per line are grouped by thread with ascending seq.
func (a *Analysis) footprint(line core.Line, r core.RegionID) (core.AccessBits, bool) {
	entries := a.lineEntries(line)
	i := sort.Search(len(entries), func(i int) bool {
		e := entries[i]
		if e.thread != int32(r.Core) {
			return e.thread > int32(r.Core)
		}
		return e.seq >= r.Seq
	})
	if i < len(entries) && entries[i].thread == int32(r.Core) && entries[i].seq == r.Seq {
		return entries[i].bits, true
	}
	return core.AccessBits{}, false
}

// regionKnown reports whether r is a region the walk assigned attributes
// to (its thread exists and its seq is in range).
func (a *Analysis) regionKnown(r core.RegionID) bool {
	t := int(r.Core)
	return t >= 0 && t < len(a.regionPhase) && r.Seq < uint64(len(a.regionPhase[t]))
}

// PredictsPair reports whether the analysis predicts a conflict between
// the two specific regions on the given line. This is the exact per-pair
// predicate (not the aggregated report): the conformance engine uses it
// to assert that every dynamically detected conflict was predicted.
func (a *Analysis) PredictsPair(line core.Line, r1, r2 core.RegionID) bool {
	if r1.Core == r2.Core || !a.regionKnown(r1) || !a.regionKnown(r2) {
		return false
	}
	b1, ok1 := a.footprint(line, r1)
	b2, ok2 := a.footprint(line, r2)
	if !ok1 || !ok2 || clashBytes(b1, b2) == 0 {
		return false
	}
	if !a.Concurrent(r1, r2) {
		return false
	}
	return a.disjoint(a.regionLockset[r1.Core][r1.Seq], a.regionLockset[r2.Core][r2.Seq])
}

// Lockset returns region r's held-lock set (sorted, possibly empty).
func (a *Analysis) Lockset(r core.RegionID) []uint32 {
	if !a.regionKnown(r) {
		return nil
	}
	return append([]uint32(nil), a.locksets[a.regionLockset[r.Core][r.Seq]]...)
}

// Phase returns region r's barrier phase, or -1 for unknown regions.
func (a *Analysis) Phase(r core.RegionID) int {
	if !a.regionKnown(r) {
		return -1
	}
	return int(a.regionPhase[r.Core][r.Seq])
}

// Phases returns the number of barrier phases (barriers + 1).
func (a *Analysis) Phases() int { return a.stats.Phases }

// PhaseStarts returns, per thread, the region seq of that thread's first
// region in each phase (phaseStart[t][p]); every inner slice has Phases()
// entries. The phase-parallel simulator uses these to rebase per-segment
// region seqs back onto whole-trace numbering. The result is a deep copy.
func (a *Analysis) PhaseStarts() [][]uint64 {
	out := make([][]uint64, len(a.phaseStart))
	for t, ps := range a.phaseStart {
		out[t] = append([]uint64(nil), ps...)
	}
	return out
}

// ForEachLineTouch calls fn once per (line, thread, phase) region
// footprint recorded during the walk — one call per region-line entry, so
// a (line, thread, phase) triple may repeat across regions — with wrote
// reporting whether that footprint includes a write. The phase-parallel
// planner uses this to build per-phase footprints without re-walking the
// trace. Iteration order is unspecified.
func (a *Analysis) ForEachLineTouch(fn func(line core.Line, thread, phase int, wrote bool)) {
	for _, b := range a.lines {
		for _, e := range b.entries {
			fn(b.line, int(e.thread), int(a.regionPhase[e.thread][e.seq]), e.bits.WriteMask != 0)
		}
	}
}

// RefutesPair reports whether the predicted pair (r1, r2) is provably
// unrealizable: no legal schedule can have both regions open at once, so
// no dynamic design can ever detect a conflict between them. The proof
// is the classic acquisition-history argument (Kahlon et al.): if r1
// holds lock la and freshly acquired lb after la's outermost hold began
// (lb is in la's acquisition history), while r2 holds lb and
// symmetrically has la in lb's history, then simultaneous occupancy
// yields a timestamp cycle — r1's lb-acquire must precede r2's
// lb-outermost-hold, which precedes r2's la-acquire, which precedes r1's
// la-outermost-hold, which precedes r1's lb-acquire. Reentrant acquires
// never block, so they are not history entries; locks never span
// barriers (trace.Validate), so histories are self-contained per phase.
//
// RefutesPair refines PredictsPair — the soundness contract (detected ⊆
// predicted) is untouched; refutation carves a provably-undetectable
// subset out of the predicted set. FuzzWitness (internal/conformance)
// cross-checks it: refuted pairs must never be detected under any fuzzed
// schedule.
func (a *Analysis) RefutesPair(r1, r2 core.RegionID) bool {
	if r1.Core == r2.Core || !a.regionKnown(r1) || !a.regionKnown(r2) {
		return false
	}
	ls1 := a.locksets[a.regionLockset[r1.Core][r1.Seq]]
	ls2 := a.locksets[a.regionLockset[r2.Core][r2.Seq]]
	ah1 := a.regionAH[r1.Core][r1.Seq]
	ah2 := a.regionAH[r2.Core][r2.Seq]
	for i, la := range ls1 {
		h1 := a.locksets[ah1[i]]
		for j, lb := range ls2 {
			if la == lb {
				// A common lock is mutual exclusion, not an acquisition
				// ordering (and PredictsPair already excludes the pair).
				continue
			}
			if containsLock(h1, lb) && containsLock(a.locksets[ah2[j]], la) {
				return true
			}
		}
	}
	return false
}

// WitnessPairs expands one aggregated conflict record into its concrete
// clashing region pairs — the targets a witness replay can aim at. A
// record aggregates regions by (phase, thread, lockset) and clashes the
// groups' merged footprints, so an individual member pair need not clash
// byte-wise; only pairs that do are realizable witnesses. Returned pairs
// keep RegionA's side first and follow the entries' deterministic order
// (ascending seq per side); refuted pairs (RefutesPair) are counted but
// not returned, and max bounds the returned slice (<=0 means no bound).
// clashing counts all byte-clashing pairs, so clashing == refuted means
// the whole record is provably unrealizable.
func (a *Analysis) WitnessPairs(pc PredictedConflict, max int) (pairs [][2]core.RegionID, clashing, refuted int) {
	entries := a.lineEntries(pc.Line)
	if entries == nil || !a.regionKnown(pc.RegionA) || !a.regionKnown(pc.RegionB) {
		return nil, 0, 0
	}
	side := func(ref core.RegionID) []lineEntry {
		var out []lineEntry
		ls := a.regionLockset[ref.Core][ref.Seq]
		for _, e := range entries {
			if e.thread != int32(ref.Core) {
				continue
			}
			if a.regionPhase[e.thread][e.seq] == int32(pc.Phase) && a.regionLockset[e.thread][e.seq] == ls {
				out = append(out, e)
			}
		}
		return out
	}
	for _, ea := range side(pc.RegionA) {
		for _, eb := range side(pc.RegionB) {
			if clashBytes(ea.bits, eb.bits) == 0 {
				continue
			}
			clashing++
			ra := core.RegionID{Core: pc.RegionA.Core, Seq: ea.seq}
			rb := core.RegionID{Core: pc.RegionB.Core, Seq: eb.seq}
			if a.RefutesPair(ra, rb) {
				refuted++
				continue
			}
			if max <= 0 || len(pairs) < max {
				pairs = append(pairs, [2]core.RegionID{ra, rb})
			}
		}
	}
	return pairs, clashing, refuted
}

// RecordContains reports whether the unordered region pair (r1, r2)
// belongs to record pc: one region on each side, matching the side's
// thread, phase, and lockset, with byte-clashing footprints on the
// record's line. The witness engine uses it to credit a detected
// conflict to the record it confirms.
func (a *Analysis) RecordContains(pc PredictedConflict, r1, r2 core.RegionID) bool {
	if !a.regionKnown(r1) || !a.regionKnown(r2) {
		return false
	}
	if r1.Core == pc.RegionB.Core {
		r1, r2 = r2, r1
	}
	if r1.Core != pc.RegionA.Core || r2.Core != pc.RegionB.Core {
		return false
	}
	inSide := func(ref, r core.RegionID) bool {
		return a.regionPhase[r.Core][r.Seq] == int32(pc.Phase) &&
			a.regionLockset[r.Core][r.Seq] == a.regionLockset[ref.Core][ref.Seq]
	}
	if !inSide(pc.RegionA, r1) || !inSide(pc.RegionB, r2) {
		return false
	}
	b1, ok1 := a.footprint(pc.Line, r1)
	b2, ok2 := a.footprint(pc.Line, r2)
	return ok1 && ok2 && clashBytes(b1, b2) != 0
}

// containsLock reports whether the sorted set ls contains l.
func containsLock(ls []uint32, l uint32) bool {
	i := sort.Search(len(ls), func(i int) bool { return ls[i] >= l })
	return i < len(ls) && ls[i] == l
}

// insertLock adds l to the sorted set ls (no-op duplicates are never
// passed: callers track reentrancy).
func insertLock(ls []uint32, l uint32) []uint32 {
	i := sort.Search(len(ls), func(i int) bool { return ls[i] >= l })
	ls = append(ls, 0)
	copy(ls[i+1:], ls[i:])
	ls[i] = l
	return ls
}

// removeLock deletes l from the sorted set ls.
func removeLock(ls []uint32, l uint32) []uint32 {
	i := sort.Search(len(ls), func(i int) bool { return ls[i] >= l })
	if i < len(ls) && ls[i] == l {
		return append(ls[:i], ls[i+1:]...)
	}
	return ls
}
