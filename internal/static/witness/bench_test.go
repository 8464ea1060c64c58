package witness_test

import (
	"strconv"
	"testing"

	"arcsim/internal/protocols"
	"arcsim/internal/static"
	"arcsim/internal/static/witness"
	"arcsim/internal/workload"
)

// BenchmarkExamine times the witness tier's largest examination in the
// paper sweep, racy-sharing at 16 threads, at 1 and 2 jobs. Scale 0.1
// (1,197 predictions, 62 directed replays) keeps an iteration near
// 100-200 ms, so make bench's 300 ms per benchmark records more than
// one; WIT's own scale 0.25 (64 replays) takes 0.35-0.65 s. The
// analysis is built once, and the pool is warmed by one untimed
// examination and shared across iterations, as a sweep's Runner shares
// its pool, so an iteration costs the baseline run, the record matching
// and the replays.
func BenchmarkExamine(b *testing.B) {
	spec, ok := workload.ByName("racy-sharing")
	if !ok {
		b.Fatal("workload racy-sharing missing")
	}
	tr := spec.Build(workload.Params{Threads: 16, Seed: 1, Scale: 0.1})
	an, err := static.Analyze(tr)
	if err != nil {
		b.Fatal(err)
	}
	for _, jobs := range []int{1, 2} {
		b.Run("jobs="+strconv.Itoa(jobs), func(b *testing.B) {
			opt := witness.Options{Jobs: jobs, Pool: new(protocols.Pool)}
			if _, err := witness.Examine(tr, an, opt); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := witness.Examine(tr, an, opt)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Replays != 62 {
					b.Fatalf("%d replays, want 62", rep.Replays)
				}
			}
		})
	}
}
