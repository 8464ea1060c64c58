package core

import (
	"fmt"
	"sort"
	"strings"
)

// Conflict records one region conflict: two concurrent regions on
// different cores accessed overlapping bytes of the same line and at least
// one access was a write. First is the region whose access was already
// recorded when the conflict surfaced; Second is the region whose access
// completed the conflict. Bytes covers the clashing bytes.
type Conflict struct {
	Line   Line
	First  RegionID
	Second RegionID
	// FirstWrote reports whether the earlier region had written any of
	// the clashing bytes (otherwise it had only read them).
	FirstWrote bool
	// SecondKind is the kind of the access that completed the conflict.
	SecondKind AccessKind
	Bytes      ByteMask
}

// Key canonicalizes the conflict for deduplication: the unordered region
// pair plus the line. Detection order and byte extents may differ between
// eager (CE) and lazy (ARC) designs, but the conflicting (pair, line) set
// must not.
func (c Conflict) Key() ConflictKey {
	a, b := c.First, c.Second
	if b.Less(a) {
		a, b = b, a
	}
	return ConflictKey{Line: c.Line, A: a, B: b}
}

func (c Conflict) String() string {
	fk := "R"
	if c.FirstWrote {
		fk = "W"
	}
	return fmt.Sprintf("conflict line=%#x %s(%s) vs %s(%s) bytes=%d",
		uint64(c.Line.Base()), c.First, fk, c.Second, c.SecondKind, c.Bytes.Count())
}

// ConflictKey is the canonical identity of a conflict; see Conflict.Key.
type ConflictKey struct {
	Line Line
	A, B RegionID
}

func (k ConflictKey) String() string {
	return fmt.Sprintf("%#x:%s/%s", uint64(k.Line.Base()), k.A, k.B)
}

// hash mixes every field of the key (multiply-xorshift, as in
// linetab), so keys that share a line, a region or a core spread over
// the index.
func (k ConflictKey) hash() uint64 {
	h := uint64(k.Line)*0x9E3779B97F4A7C15 ^
		(k.A.Seq<<7^uint64(k.A.Core))*0xC2B2AE3D27D4EB4F ^
		(k.B.Seq<<7^uint64(k.B.Core))*0x165667B19E3779F9
	h ^= h >> 32
	h *= 0xD6E8FEB86659FD93
	return h ^ h>>29
}

// ConflictSet accumulates conflicts with canonical deduplication. It
// keeps each distinct conflict once, in a list in insertion order, and
// finds it through an open-addressed index of list positions that is
// kept at most half full. The zero value is an empty set.
type ConflictSet struct {
	list []Conflict
	// index holds list position + 1 per slot, 0 for an empty slot;
	// its length is zero or a power of two.
	index []int32
}

// NewConflictSet returns an empty set.
func NewConflictSet() *ConflictSet { return &ConflictSet{} }

// Reset empties the set, keeping its allocated capacity (machine
// pooling). It costs what the set holds, not the index's size: a pooled
// machine's index keeps the size of the most conflicted run it served.
func (s *ConflictSet) Reset() {
	if 8*len(s.list) >= len(s.index) {
		clear(s.index)
	} else {
		for p := range s.list {
			s.index[s.probe(s.list[p].Key(), int32(p+1))] = 0
		}
	}
	s.list = s.list[:0]
}

// probe returns the first index slot, from k's home slot on, that
// holds v.
func (s *ConflictSet) probe(k ConflictKey, v int32) uint64 {
	mask := uint64(len(s.index) - 1)
	i := k.hash() & mask
	for s.index[i] != v {
		i = (i + 1) & mask
	}
	return i
}

// find returns the index slot holding k, or the empty slot where k
// would go.
func (s *ConflictSet) find(k ConflictKey) (slot uint64, found bool) {
	mask := uint64(len(s.index) - 1)
	for i := k.hash() & mask; ; i = (i + 1) & mask {
		p := s.index[i]
		if p == 0 {
			return i, false
		}
		if s.list[p-1].Key() == k {
			return i, true
		}
	}
}

// grow doubles the index (16 slots at first) and re-inserts every
// recorded conflict.
func (s *ConflictSet) grow() {
	n := 2 * len(s.index)
	if n == 0 {
		n = 16
	}
	s.index = make([]int32, n)
	for p := range s.list {
		s.index[s.probe(s.list[p].Key(), 0)] = int32(p + 1)
	}
}

// Add records c unless a conflict with the same canonical key was already
// recorded; it reports whether c was new.
func (s *ConflictSet) Add(c Conflict) bool {
	if 2*(len(s.list)+1) > len(s.index) {
		s.grow()
	}
	i, found := s.find(c.Key())
	if found {
		return false
	}
	s.list = append(s.list, c)
	s.index[i] = int32(len(s.list))
	return true
}

// Len returns the number of distinct conflicts.
func (s *ConflictSet) Len() int { return len(s.list) }

// Has reports whether a conflict with k's canonical key is present.
func (s *ConflictSet) Has(k ConflictKey) bool {
	if len(s.list) == 0 {
		return false
	}
	_, found := s.find(k)
	return found
}

// keyLess orders canonical keys by line, then A, then B.
func keyLess(a, b ConflictKey) bool {
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	if a.A != b.A {
		return a.A.Less(b.A)
	}
	return a.B.Less(b.B)
}

// Keys returns the canonical keys in a deterministic (sorted) order.
func (s *ConflictSet) Keys() []ConflictKey {
	keys := make([]ConflictKey, len(s.list))
	for i := range s.list {
		keys[i] = s.list[i].Key()
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	return keys
}

// Conflicts returns the recorded conflicts ordered by canonical key.
func (s *ConflictSet) Conflicts() []Conflict {
	out := append([]Conflict(nil), s.list...)
	sort.Slice(out, func(i, j int) bool { return keyLess(out[i].Key(), out[j].Key()) })
	return out
}

// Equal reports whether two sets contain exactly the same canonical keys,
// and if not, describes the difference (for test failure messages).
func (s *ConflictSet) Equal(o *ConflictSet) (bool, string) {
	var missing, extra []string
	for _, c := range s.list {
		if k := c.Key(); !o.Has(k) {
			extra = append(extra, k.String())
		}
	}
	for _, c := range o.list {
		if k := c.Key(); !s.Has(k) {
			missing = append(missing, k.String())
		}
	}
	if len(missing) == 0 && len(extra) == 0 {
		return true, ""
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return false, fmt.Sprintf("only in other: %s; only in this: %s",
		strings.Join(missing, ","), strings.Join(extra, ","))
}

// Exception is the architectural event a detecting design delivers when a
// conflict is found: the conflict itself plus where detection happened.
type Exception struct {
	Conflict Conflict
	// DetectedBy is the core at which the design surfaced the conflict
	// (for CE this is a core involved in a coherence event; for ARC it
	// can be the LLC tile's home core acting on a registration).
	DetectedBy CoreID
	// Cycle is the simulated time of detection.
	Cycle uint64
}

func (e Exception) String() string {
	return fmt.Sprintf("exception@%d by c%d: %s", e.Cycle, e.DetectedBy, e.Conflict)
}

// ExceptionPolicy selects what a machine does upon detecting a conflict.
type ExceptionPolicy uint8

const (
	// LogAndContinue records the exception and keeps executing. The
	// evaluation uses this mode so that racy workloads still execute
	// their full traces and traffic/energy remain comparable.
	LogAndContinue ExceptionPolicy = iota
	// FailStop records the exception and halts the machine, matching
	// the paper's fail-stop semantics.
	FailStop
)

func (p ExceptionPolicy) String() string {
	if p == FailStop {
		return "fail-stop"
	}
	return "log-and-continue"
}
