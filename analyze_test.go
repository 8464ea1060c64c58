package arcsim_test

import (
	"strings"
	"testing"

	"arcsim"
)

func TestAnalyzeWorkloadTrace(t *testing.T) {
	drf, err := arcsim.WorkloadTrace(arcsim.Config{Workload: "bodytrack", Cores: 8, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := drf.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ProvenDRF || len(rep.Conflicts) != 0 {
		t.Fatalf("bodytrack should be proven DRF, got %+v", rep)
	}
	if rep.Threads != 8 || rep.Regions == 0 || rep.Phases == 0 {
		t.Fatalf("implausible stats: %+v", rep)
	}

	racy, err := arcsim.WorkloadTrace(arcsim.Config{Workload: "racy-counter", Cores: 8, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	rrep, err := racy.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if rrep.ProvenDRF || len(rrep.Conflicts) == 0 {
		t.Fatal("racy-counter should have predicted conflicts")
	}
	if s := rrep.String(); !strings.Contains(s, "may-conflict") || !strings.Contains(s, "predicted conflicts") {
		t.Fatalf("report rendering missing verdict: %q", s)
	}
}

func TestAnalyzeCustomTrace(t *testing.T) {
	tr, err := arcsim.NewTraceBuilder("custom-race", 2).
		Write(0, 0x1000, 8).
		Write(1, 0x1004, 8).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tr.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ProvenDRF || len(rep.Conflicts) != 1 {
		t.Fatalf("want one predicted conflict, got %+v", rep)
	}
	c := rep.Conflicts[0]
	if c.LineAddr != 0x1000 || c.Bytes != 4 || !c.AWrites || !c.BWrites {
		t.Fatalf("unexpected prediction: %+v", c)
	}
}

func TestWorkloadTraceUnknown(t *testing.T) {
	if _, err := arcsim.WorkloadTrace(arcsim.Config{Workload: "no-such"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestWorkloadTraceKernels: the facade resolves every kernel outside the
// catalog that the experiments and the daemon accept.
func TestWorkloadTraceKernels(t *testing.T) {
	for _, name := range []string{"falseshare", "aimstress", "phasedisjoint"} {
		if _, err := arcsim.WorkloadTrace(arcsim.Config{Workload: name, Cores: 4, Scale: 0.02}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
