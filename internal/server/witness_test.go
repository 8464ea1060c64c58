package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWitnessTierClassifiesJob exercises Config.Witness end-to-end: a
// may-conflict job gets a per-prediction classification on its view, a
// proven-DRF job does not (nothing to classify), and /metrics exposes
// the witness counters.
func TestWitnessTierClassifiesJob(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4, Witness: true})
	if !srv.cfg.Tier {
		t.Fatal("Witness must imply Tier")
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background()) //nolint:errcheck

	racy := JobSpec{Workload: "racy-counter", Protocol: "arc", Cores: 4, Scale: 0.05, Seed: 1}
	_, j := postJob(t, ts, racy)
	done := waitState(t, ts, j.ID, StateDone, StateFailed)
	if done.State != StateDone {
		t.Fatalf("witnessed job: %+v", done)
	}
	if done.Verdict != VerdictMayConflict || done.Witness == nil {
		t.Fatalf("may-conflict job carries no witness view: %+v", done)
	}
	v := done.Witness
	if v.Predicted == 0 || v.Confirmed == 0 {
		t.Fatalf("racy workload classified nothing: %+v", v)
	}
	if v.Confirmed+v.Refuted+v.Unwitnessed != v.Predicted {
		t.Fatalf("witness counts do not partition predictions: %+v", v)
	}
	if len(v.Predictions) > witnessViewCap {
		t.Fatalf("per-prediction detail exceeds cap: %d", len(v.Predictions))
	}
	if want := v.Predicted - len(v.Predictions); v.Truncated != want {
		t.Fatalf("Truncated = %d, want %d", v.Truncated, want)
	}
	confirmedSeen := false
	for _, p := range v.Predictions {
		switch p.Status {
		case "confirmed":
			confirmedSeen = true
			if p.Witness == "" {
				t.Fatalf("confirmed prediction without a witness directive: %+v", p)
			}
		case "refuted", "unwitnessed":
			if p.Witness != "" {
				t.Fatalf("%s prediction carries a witness: %+v", p.Status, p)
			}
		default:
			t.Fatalf("unknown prediction status %q", p.Status)
		}
		if !strings.HasPrefix(p.Line, "0x") {
			t.Fatalf("prediction line not hex: %q", p.Line)
		}
	}
	if !confirmedSeen && v.Confirmed > 0 && len(v.Predictions) == witnessViewCap {
		t.Log("confirmed records all beyond the view cap (acceptable, ordering is by line)")
	}

	// A proven-DRF trace predicts nothing: no witness view to attach.
	_, jd := postJob(t, ts, tinySpec())
	doneD := waitState(t, ts, jd.ID, StateDone, StateFailed)
	if doneD.State != StateDone {
		t.Fatalf("drf job: %+v", doneD)
	}
	if doneD.Witness != nil {
		t.Fatalf("proven-DRF job carries a witness view: %+v", doneD.Witness)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"arcsimd_witness_examinations_total 1",
		`arcsimd_witness_predictions_total{status="confirmed"}`,
		"arcsimd_witness_replays_total",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestWitnessOffExportsNothing pins that a tiering daemon without the
// witness tier neither attaches views nor exports witness metrics.
func TestWitnessOffExportsNothing(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4, Tier: true})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain(context.Background()) //nolint:errcheck

	racy := JobSpec{Workload: "racy-counter", Protocol: "arc", Cores: 4, Scale: 0.05, Seed: 1}
	_, j := postJob(t, ts, racy)
	done := waitState(t, ts, j.ID, StateDone, StateFailed)
	if done.State != StateDone {
		t.Fatalf("job: %+v", done)
	}
	if done.Witness != nil {
		t.Fatalf("witness view attached with the tier off: %+v", done.Witness)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(metrics), "arcsimd_witness_") {
		t.Errorf("witness metrics exported with the tier off:\n%s", metrics)
	}
}

// TestRunnersExamineSerially pins the daemon's CPU bound: its workers are
// its parallelism, so the base Runner and every Runner derived from it
// run a -witness examination's replays one at a time (Jobs 1) rather
// than on GOMAXPROCS goroutines beside the other workers' jobs.
func TestRunnersExamineSerially(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 4, Witness: true})
	if got := srv.base.Cfg().Jobs; got != 1 {
		t.Errorf("base Runner Jobs = %d, want 1", got)
	}
	if got := srv.runner(JobSpec{Scale: 0.05, Seed: 7}).Cfg().Jobs; got != 1 {
		t.Errorf("derived Runner Jobs = %d, want 1", got)
	}
}
