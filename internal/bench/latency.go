package bench

import (
	"fmt"

	"arcsim/internal/protocols"
	"arcsim/internal/stats"
)

// f8Workloads: latency tails only separate the designs when regions
// actually contend — CE's in-memory metadata stalls and MESI's
// invalidation storms sit on contended access paths.
var f8Workloads = []string{"canneal", "racy-sharing"}

func planF8(cfg Config) []RunSpec {
	return crossSpecs(f8Workloads, protocols.Names(), cfg.Cores)
}

// runF8 reports the per-access latency distribution of each design.
func runF8(r *Runner) (*Output, error) {
	t := stats.NewTable(
		fmt.Sprintf("Figure F8: memory access latency distribution (%d cores; cycles)", r.cfg.Cores),
		"workload", "design", "mean", "p50<=", "p95<=", "p99<=", "max")
	mean := map[string]map[string]float64{}
	for _, wl := range f8Workloads {
		mean[wl] = map[string]float64{}
		for _, p := range protocols.Names() {
			res, err := r.Result(wl, p, r.cfg.Cores, 0)
			if err != nil {
				return nil, err
			}
			h := &res.AccessLatency
			mean[wl][p] = h.Mean()
			t.AddRow(wl, p,
				fmt.Sprintf("%.1f", h.Mean()),
				fmt.Sprintf("%d", h.Quantile(0.50)),
				fmt.Sprintf("%d", h.Quantile(0.95)),
				fmt.Sprintf("%d", h.Quantile(0.99)),
				fmt.Sprintf("%d", h.Max()))
		}
	}
	out := &Output{
		ID: "F8", Title: "Access latency distribution",
		Claim: "CE's in-memory metadata accesses sit on the critical path of contended accesses; the AIM (CE+) removes most of that latency and ARC avoids it entirely",
		Body:  t.Render(),
	}
	wl := "racy-sharing"
	out.Checks = []Check{
		{
			Desc: "CE's mean access latency well above CE+'s under contention",
			Pass: mean[wl][protocols.CE] > 1.2*mean[wl][protocols.CEPlus],
			Detail: fmt.Sprintf("ce=%.1f ce+=%.1f on %s", mean[wl][protocols.CE],
				mean[wl][protocols.CEPlus], wl),
		},
		{
			Desc: "ARC's mean access latency below CE+'s under contention",
			Pass: mean[wl][protocols.ARC] < mean[wl][protocols.CEPlus],
			Detail: fmt.Sprintf("arc=%.1f ce+=%.1f on %s", mean[wl][protocols.ARC],
				mean[wl][protocols.CEPlus], wl),
		},
		{
			Desc: "every detecting design's mean stays within 2.5x of MESI",
			Pass: mean[wl][protocols.CE] < 2.5*mean[wl][protocols.MESI] &&
				mean[wl][protocols.CEPlus] < 2.5*mean[wl][protocols.MESI] &&
				mean[wl][protocols.ARC] < 2.5*mean[wl][protocols.MESI],
			Detail: fmt.Sprintf("mesi=%.1f", mean[wl][protocols.MESI]),
		},
	}
	return out, nil
}
