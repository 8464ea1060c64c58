package core

import (
	"math/bits"
	"strings"
)

// ByteMask is a bitmap over the 64 bytes of a cache line: bit i set means
// byte i is covered. It is the fundamental metadata unit of every design in
// the paper — CE/CE+ keep one read mask and one write mask per line per
// core, and ARC registers the same masks at the LLC registry.
type ByteMask uint64

// MaskRange returns a mask covering size bytes starting at line offset off.
// It panics if the range exceeds the line; callers validate accesses first.
func MaskRange(off, size uint) ByteMask {
	if off+size > LineSize {
		panic("core: byte range exceeds cache line")
	}
	if size == 0 {
		return 0
	}
	if size == LineSize {
		return ^ByteMask(0)
	}
	return ((ByteMask(1) << size) - 1) << off
}

// Overlaps reports whether any byte is covered by both masks.
func (m ByteMask) Overlaps(o ByteMask) bool { return m&o != 0 }

// Union returns the bytes covered by either mask.
func (m ByteMask) Union(o ByteMask) ByteMask { return m | o }

// Empty reports whether no byte is covered.
func (m ByteMask) Empty() bool { return m == 0 }

// Count returns the number of covered bytes.
func (m ByteMask) Count() int { return bits.OnesCount64(uint64(m)) }

// String renders the mask as 64 characters, '#' for covered bytes and '.'
// for uncovered ones, byte 0 first.
func (m ByteMask) String() string {
	var b strings.Builder
	b.Grow(LineSize)
	for i := 0; i < LineSize; i++ {
		if m&(1<<uint(i)) != 0 {
			b.WriteByte('#')
		} else {
			b.WriteByte('.')
		}
	}
	return b.String()
}

// AccessBits is the per-line, per-region access metadata: which bytes the
// region has read and which it has written. The zero value means
// "untouched".
type AccessBits struct {
	ReadMask  ByteMask
	WriteMask ByteMask
}

// Empty reports whether the region has touched no byte of the line.
func (b AccessBits) Empty() bool { return b.ReadMask == 0 && b.WriteMask == 0 }

// Add records an access covering mask.
func (b *AccessBits) Add(kind AccessKind, mask ByteMask) {
	if kind == Write {
		b.WriteMask |= mask
	} else {
		b.ReadMask |= mask
	}
}

// Merge folds o into b.
func (b *AccessBits) Merge(o AccessBits) {
	b.ReadMask |= o.ReadMask
	b.WriteMask |= o.WriteMask
}

// Touched returns all bytes the region accessed, regardless of kind.
func (b AccessBits) Touched() ByteMask { return b.ReadMask | b.WriteMask }

// ConflictsWith reports whether an access of the given kind covering mask
// conflicts with the recorded bits: the byte sets overlap and at least one
// side is a write. The returned mask covers the conflicting bytes.
func (b AccessBits) ConflictsWith(kind AccessKind, mask ByteMask) (ByteMask, bool) {
	var clash ByteMask
	if kind == Write {
		clash = (b.ReadMask | b.WriteMask) & mask
	} else {
		clash = b.WriteMask & mask
	}
	return clash, clash != 0
}

// MetadataBytes is the storage footprint of one AccessBits record: two
// 64-bit masks. CE spills records of this size to memory and CE+/ARC cache
// them in the AIM, so the constant shows up in traffic accounting.
const MetadataBytes = 16

// WordBytes is the word size used by word-granularity metadata tracking.
const WordBytes = 8

// WidenToWords expands a byte mask so that touching any byte of an
// aligned 8-byte word marks the whole word. Word-granularity designs
// trade metadata storage for precision: disjoint-byte accesses within one
// word become (false) conflicts.
func WidenToWords(m ByteMask) ByteMask {
	var out ByteMask
	for j := uint(0); j < LineSize/WordBytes; j++ {
		word := ByteMask(0xFF) << (j * WordBytes)
		if m&word != 0 {
			out |= word
		}
	}
	return out
}

// WidenAccess returns the word-aligned extension of an access: the start
// rounds down and the end rounds up to word boundaries. The result is
// always valid (a contiguous in-line range).
func WidenAccess(a Access) Access {
	start := a.Addr &^ (WordBytes - 1)
	end := (a.Addr + Addr(a.Size) + WordBytes - 1) &^ (WordBytes - 1)
	return Access{Kind: a.Kind, Addr: start, Size: uint8(end - start)}
}
