// Package workload provides deterministic synthetic multithreaded
// workloads that stand in for the PARSEC/SPLASH-style benchmark suite the
// paper evaluates on (see the substitution note in DESIGN.md). Each named
// workload reproduces the *sharing structure* that determines conflict-
// detection cost: private/shared access ratio, region length distribution,
// read/write mix, producer-consumer handoffs, lock contention, false
// sharing, and (for the racy variants) genuine region conflicts.
//
// All generators are pure functions of (threads, seed, scale): the same
// parameters always produce byte-identical traces, which keeps every
// experiment reproducible.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"arcsim/internal/core"
	"arcsim/internal/trace"
)

// Params selects the scale of a generated workload.
type Params struct {
	// Threads is the number of threads (= cores). Default 8.
	Threads int
	// Seed drives all pseudo-randomness. Default 1.
	Seed int64
	// Scale multiplies per-thread event counts; 1.0 is the standard
	// evaluation size, smaller values suit unit tests. Default 1.0.
	Scale float64
}

func (p Params) normalized() Params {
	if p.Threads <= 0 {
		p.Threads = 8
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Scale <= 0 {
		p.Scale = 1.0
	}
	return p
}

// scaled returns n scaled by p.Scale, at least 1.
func (p Params) scaled(n int) int {
	v := int(float64(n) * p.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// Spec describes one catalog workload.
type Spec struct {
	// Name is the stable identifier used by the CLI and experiment IDs.
	Name string
	// Desc is a one-line description of the modelled behaviour.
	Desc string
	// Racy reports whether the workload intentionally contains region
	// conflicts. DRF workloads must produce zero conflicts under every
	// schedule the simulator can produce.
	Racy bool

	build func(p Params, b *builder)
}

// Build generates the trace for the given parameters. The result always
// passes trace.Validate; Build panics otherwise (generator bug).
func (s Spec) Build(p Params) *trace.Trace {
	p = p.normalized()
	b := newBuilder(p)
	s.build(p, b)
	t := b.finish(s.Name)
	if err := t.Validate(); err != nil {
		panic(fmt.Sprintf("workload %q generated an invalid trace: %v", s.Name, err))
	}
	return t
}

// Catalog returns all workloads in a fixed order: the ten DRF suite
// members first, then the racy variants.
func Catalog() []Spec { return append([]Spec(nil), catalog...) }

// Suite returns only the data-race-free suite used for the performance
// figures (F1..F7).
func Suite() []Spec {
	var out []Spec
	for _, s := range catalog {
		if !s.Racy {
			out = append(out, s)
		}
	}
	return out
}

// RacySuite returns the intentionally racy workloads used for the
// conflict-detection table (T3).
func RacySuite() []Spec {
	var out []Spec
	for _, s := range catalog {
		if s.Racy {
			out = append(out, s)
		}
	}
	return out
}

// ByName looks a workload up by its stable name.
func ByName(name string) (Spec, bool) {
	for _, s := range catalog {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// kernels are the generators outside the catalog that experiments and
// clients request by name: A3's false-sharing kernel (DRF at byte
// granularity, but not a suite member), F6's metadata-pressure kernel,
// and TIER's phase-parallel showcase, whose disjoint-footprint shape is
// engineered for sim.PlanPhases rather than representative of the suite.
var kernels = map[string]func(Params) *trace.Trace{
	"falseshare":    FalseSharing,
	"aimstress":     AIMStress,
	"phasedisjoint": PhaseDisjoint,
}

// Generator resolves a workload name to its generator: a catalog member
// first (see ByName), then one of the kernels outside the catalog
// ("falseshare", "aimstress", "phasedisjoint"). It is the one place that
// decides which names are workloads.
func Generator(name string) (func(Params) *trace.Trace, bool) {
	if s, ok := ByName(name); ok {
		return s.Build, true
	}
	gen, ok := kernels[name]
	return gen, ok
}

// Names returns all workload names, sorted.
func Names() []string {
	names := make([]string, len(catalog))
	for i, s := range catalog {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}

// ---------------------------------------------------------------------------
// builder: per-thread event emission helpers shared by all generators.

// Address-space layout. Each thread gets a disjoint private arena; shared
// data lives in distinct arenas per purpose so generators cannot collide
// by accident.
const (
	privateArena = core.Addr(0x1000_0000_0000)
	sharedArena  = core.Addr(0x2000_0000_0000)
	arenaStride  = core.Addr(1) << 32
)

// PrivateBase returns the base address of thread t's private arena.
func PrivateBase(t int) core.Addr { return privateArena + core.Addr(t)*arenaStride }

// SharedBase returns the base of shared arena n.
func SharedBase(n int) core.Addr { return sharedArena + core.Addr(n)*arenaStride }

type builder struct {
	p       Params
	rng     *rand.Rand
	threads [][]trace.Event
}

func newBuilder(p Params) *builder {
	return &builder{
		p:       p,
		rng:     rand.New(rand.NewSource(p.Seed)),
		threads: make([][]trace.Event, p.Threads),
	}
}

func (b *builder) finish(name string) *trace.Trace {
	for t := range b.threads {
		b.emit(t, trace.End())
	}
	return &trace.Trace{Name: name, Threads: b.threads}
}

func (b *builder) emit(t int, evs ...trace.Event) {
	b.threads[t] = append(b.threads[t], evs...)
}

// threadRNG derives an independent deterministic stream for thread t, so
// that emission order inside a generator cannot perturb other threads.
func (b *builder) threadRNG(t int) *rand.Rand {
	return rand.New(rand.NewSource(b.p.Seed*1_000_003 + int64(t)*7919 + 17))
}

// rd/wr emit word accesses with occasional narrower sizes, modelling the
// access-size mix of compiled code.
func rd(r *rand.Rand, addr core.Addr) trace.Event { return trace.Read(addr, accessSize(r, addr)) }
func wr(r *rand.Rand, addr core.Addr) trace.Event { return trace.Write(addr, accessSize(r, addr)) }

func accessSize(r *rand.Rand, addr core.Addr) uint8 {
	var sz uint8
	switch r.Intn(10) {
	case 0:
		sz = 1
	case 1, 2:
		sz = 4
	default:
		sz = 8
	}
	// Clamp so the access stays inside its line.
	if rem := core.LineSize - core.Offset(addr); uint(sz) > rem {
		sz = uint8(rem)
	}
	return sz
}

// align8 keeps generated addresses naturally aligned for 8-byte accesses.
func align8(a core.Addr) core.Addr { return a &^ 7 }

// strided returns the address of element i (8-byte elements) of an array
// at base.
func elem(base core.Addr, i int) core.Addr { return base + core.Addr(i)*8 }
