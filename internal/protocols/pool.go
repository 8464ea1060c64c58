package protocols

import (
	"sync"

	"arcsim/internal/machine"
)

// Pool recycles machine+protocol pairs: a run borrows a pair with Get
// and hands it back with Put, so a sweep pays for each multi-megabyte
// build once per configuration instead of once per run. A pair is keyed
// by its design and its whole normalized machine.Config, so a pair is
// only ever handed out for the exact configuration it was built for.
//
// The zero Pool is ready to use and safe for concurrent use. A Pool
// never shrinks: its owner (a sweep's Runner, or a daemon) bounds its
// lifetime.
type Pool struct {
	mu   sync.Mutex
	idle map[poolKey][]pair
}

type poolKey struct {
	name string
	cfg  machine.Config
}

type pair struct {
	m *machine.Machine
	p machine.Protocol
}

// Get returns a pair for design name on cfg, as Build would assemble
// it: an idle pair with the same design and MachineConfig, Reset to its
// freshly-built state, or a new Build. It fails exactly when
// MachineConfig does, before allocating anything.
func (pl *Pool) Get(name string, cfg machine.Config) (*machine.Machine, machine.Protocol, error) {
	cfg, err := MachineConfig(name, cfg)
	if err != nil {
		return nil, nil, err
	}
	k := poolKey{name, cfg}
	pl.mu.Lock()
	if s := pl.idle[k]; len(s) > 0 {
		x := s[len(s)-1]
		pl.idle[k] = s[:len(s)-1]
		pl.mu.Unlock()
		x.m.Reset()
		x.p.Reset()
		return x.m, x.p, nil
	}
	pl.mu.Unlock()
	return Build(name, cfg)
}

// Put returns a pair that Get or Build made for design name, once its
// run is over. Results never alias machine state, so the pair is
// reusable at once; its state is cleared by the Get that hands it out.
func (pl *Pool) Put(name string, m *machine.Machine, p machine.Protocol) {
	k := poolKey{name, m.Cfg}
	pl.mu.Lock()
	if pl.idle == nil {
		pl.idle = make(map[poolKey][]pair)
	}
	pl.idle[k] = append(pl.idle[k], pair{m, p})
	pl.mu.Unlock()
}
