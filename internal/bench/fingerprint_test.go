package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"arcsim/internal/conformance"
	"arcsim/internal/machine"
	"arcsim/internal/protocols"
	"arcsim/internal/sim"
	"arcsim/internal/trace"
	"arcsim/internal/workload"
)

// fingerprintFile maps each CacheKeyVersion to the behaviour fingerprint
// of the simulator that version names. Regenerate the current version's
// entry, after bumping CacheKeyVersion for a change that alters results,
// with:
//
//	ARCSIM_UPDATE_FINGERPRINT=1 go test ./internal/bench/ -run Fingerprint
const fingerprintFile = "testdata/fingerprint.json"

// fingerprint is one version's record: a digest over the corpus and
// each run's short hash, in corpus order, to name the first run that
// differs.
type fingerprint struct {
	Digest string   `json:"digest"`
	Runs   []runSum `json:"runs"`
}

type runSum struct {
	Run  string `json:"run"`
	Hash string `json:"hash"`
}

// everyThird picks a seeded random runnable core on every third step and
// defers the rest, so a run reaches states the default schedule never
// does.
type everyThird struct {
	rng  *rand.Rand
	step int
	run  []int
}

func (d *everyThird) Pick(h *sim.Sched) int {
	d.step++
	if d.step%3 != 0 {
		return -1
	}
	d.run = d.run[:0]
	for c := 0; c < h.Cores(); c++ {
		if h.Core(c).Runnable {
			d.run = append(d.run, c)
		}
	}
	if len(d.run) == 0 {
		return -1
	}
	return d.run[d.rng.Intn(len(d.run))]
}

func (*everyThird) Stepped(int, trace.Event, uint64) {}

// fingerprintCorpus runs the fixed corpus on pooled pairs and returns
// each run's hash over its canonical Result encoding: the catalog under
// the four evaluated designs at 4 and 16 cores, scale 0.02, on the
// default schedule and under everyThird, with the oracle on for the
// detecting designs; then each conformance repro under the design its
// mutant wraps.
func fingerprintCorpus(t *testing.T) []runSum {
	var pool protocols.Pool
	var sums []runSum
	run := func(name, design string, tr *trace.Trace, d sim.Director) {
		m, p, err := pool.Get(design, machine.Fitted(tr.NumThreads()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		opt := sim.Options{CheckWithOracle: design != protocols.MESI, Director: d}
		res, err := sim.Run(m, p, tr, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pool.Put(design, m, p)
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := sha256.Sum256(raw)
		sums = append(sums, runSum{Run: name, Hash: hex.EncodeToString(h[:8])})
	}
	designs := []string{protocols.MESI, protocols.CE, protocols.CEPlus, protocols.ARC}
	for _, spec := range workload.Catalog() {
		for _, n := range []int{4, 16} {
			tr := spec.Build(workload.Params{Threads: n, Seed: 1, Scale: 0.02})
			for _, design := range designs {
				name := fmt.Sprintf("%s/%s/%d", spec.Name, design, n)
				run(name, design, tr, nil)
				run(name+"/random", design, tr, &everyThird{rng: rand.New(rand.NewSource(int64(n)))})
			}
		}
	}
	files, err := filepath.Glob(filepath.Join("..", "conformance", "testdata", "repros", "*.trace"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no conformance repros: %v", err)
	}
	for _, path := range files {
		name := strings.TrimSuffix(filepath.Base(path), ".trace")
		mut, ok := conformance.MutantByName(name)
		if !ok {
			t.Fatalf("repro %s names no known mutant", path)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.ReadFrom(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		run("repro/"+name+"/"+mut.Design, mut.Design, tr, nil)
	}
	return sums
}

func digestOf(sums []runSum) string {
	h := sha256.New()
	for _, s := range sums {
		fmt.Fprintf(h, "%s %s\n", s.Run, s.Hash)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFingerprint pins the simulator's behaviour to CacheKeyVersion:
// stores and mesh peers key results by that version, so a change that
// alters any result without bumping it would keep stale results in
// service. The test fails when the corpus digest differs from the one
// recorded for the current version, naming the first differing run, and
// when the current version has no record.
func TestFingerprint(t *testing.T) {
	got := fingerprint{Runs: fingerprintCorpus(t)}
	got.Digest = digestOf(got.Runs)

	all := map[string]fingerprint{}
	raw, err := os.ReadFile(fingerprintFile)
	if err == nil {
		err = json.Unmarshal(raw, &all)
	}
	if err != nil && !os.IsNotExist(err) {
		t.Fatalf("%s: %v", fingerprintFile, err)
	}
	if os.Getenv("ARCSIM_UPDATE_FINGERPRINT") != "" {
		all[CacheKeyVersion] = got
		out, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(fingerprintFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %s: %s (%d runs)", CacheKeyVersion, got.Digest, len(got.Runs))
		return
	}
	want, ok := all[CacheKeyVersion]
	if !ok {
		t.Fatalf("%s has no fingerprint for CacheKeyVersion %s; record it with ARCSIM_UPDATE_FINGERPRINT=1", fingerprintFile, CacheKeyVersion)
	}
	if got.Digest == want.Digest {
		return
	}
	for i, w := range want.Runs {
		if i >= len(got.Runs) {
			t.Fatalf("fingerprint changed without a CacheKeyVersion bump: corpus has %d runs, %s recorded %d (first missing: %s)",
				len(got.Runs), CacheKeyVersion, len(want.Runs), w.Run)
		}
		if g := got.Runs[i]; g != w {
			t.Fatalf("fingerprint changed without a CacheKeyVersion bump: first differing run %s (hash %s, recorded %s for %s as %s)",
				g.Run, g.Hash, w.Hash, CacheKeyVersion, w.Run)
		}
	}
	t.Fatalf("fingerprint changed without a CacheKeyVersion bump: corpus has %d runs, %s recorded %d",
		len(got.Runs), CacheKeyVersion, len(want.Runs))
}
