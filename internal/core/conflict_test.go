package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestConflictSetMatchesModel drives ConflictSet against a map-based
// model through several index doublings and Resets. Keys include forced
// collisions (one line with many region pairs, pairs given in both
// orders) and the same pair on many lines; after every Add the result,
// Len and Has agree with the model, and at checkpoints Keys, Conflicts
// and Equal do too.
func TestConflictSetMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewConflictSet()
	for round, n := range []int{3000, 40, 0, 9000, 700} {
		model := map[ConflictKey]Conflict{}
		var order []ConflictKey
		other := NewConflictSet()
		for i := 0; i < n; i++ {
			var c Conflict
			switch rng.Intn(3) {
			case 0: // one hot line, many region pairs
				c.Line = 7
				c.First = RegionID{Core: CoreID(rng.Intn(64)), Seq: uint64(rng.Intn(40))}
				c.Second = RegionID{Core: CoreID(rng.Intn(64)), Seq: uint64(rng.Intn(40))}
			case 1: // one hot pair, many lines
				c.Line = Line(rng.Intn(4096))
				c.First, c.Second = RegionID{Core: 1, Seq: 3}, RegionID{Core: 2, Seq: 9}
			default:
				c.Line = Line(rng.Int63())
				c.First = RegionID{Core: CoreID(rng.Intn(8)), Seq: rng.Uint64() % 4}
				c.Second = RegionID{Core: CoreID(rng.Intn(8)), Seq: rng.Uint64() % 4}
			}
			if rng.Intn(2) == 0 {
				c.First, c.Second = c.Second, c.First
			}
			c.FirstWrote = rng.Intn(2) == 0
			c.SecondKind = AccessKind(rng.Intn(2))
			c.Bytes = ByteMask(rng.Uint64())

			k := c.Key()
			_, dup := model[k]
			if got := s.Add(c); got == dup {
				t.Fatalf("round %d add %d: Add(%v) = %v, model has it: %v", round, i, k, got, dup)
			}
			if !dup {
				model[k] = c
				order = append(order, k)
				other.Add(c)
			}
			if s.Len() != len(model) || !s.Has(k) {
				t.Fatalf("round %d add %d: Len %d (model %d), Has = %v", round, i, s.Len(), len(model), s.Has(k))
			}
			probe := ConflictKey{Line: Line(rng.Int63()), A: RegionID{Core: 63, Seq: 1 << 40}}
			if _, in := model[probe]; s.Has(probe) != in {
				t.Fatalf("round %d add %d: Has(%v) = %v, model %v", round, i, probe, s.Has(probe), in)
			}
		}

		want := append([]ConflictKey(nil), order...)
		sort.Slice(want, func(i, j int) bool { return keyLess(want[i], want[j]) })
		if got := s.Keys(); len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: Keys differ from the model's sorted keys", round)
		}
		for i, c := range s.Conflicts() {
			if c != model[want[i]] {
				t.Fatalf("round %d: Conflicts()[%d] = %v, model keeps the first added %v", round, i, c, model[want[i]])
			}
		}
		if ok, diff := s.Equal(other); !ok {
			t.Fatalf("round %d: set differs from one built from the same keys: %s", round, diff)
		}
		if len(order) > 0 {
			other.Reset()
			for _, k := range order[1:] {
				other.Add(model[k])
			}
			if ok, _ := s.Equal(other); ok {
				t.Fatalf("round %d: Equal missed a removed key", round)
			}
		}

		s.Reset()
		if s.Len() != 0 || len(order) > 0 && s.Has(order[0]) {
			t.Fatalf("round %d: Reset left Len %d", round, s.Len())
		}
		for _, p := range s.index {
			if p != 0 {
				t.Fatalf("round %d: Reset left an index slot set", round)
			}
		}
	}
}
