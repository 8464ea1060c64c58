package arc

import "arcsim/internal/core"

// SharedState reports whether an L1 line state is one Boundary drops.
func SharedState(s uint8) bool { return s == classShared || s == lineSharedEager }

// SharedSetMarked reports whether core c's boundary will visit the L1
// set line maps to.
func (p *Protocol) SharedSetMarked(c int, line core.Line) bool {
	set := p.M.L1[c].SetIndex(line)
	return p.sharedSets[c*p.setWords+set>>6]&(1<<(set&63)) != 0
}
