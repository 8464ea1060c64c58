package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"arcsim/internal/bench"
	"arcsim/internal/client"
	"arcsim/internal/sched/fleet"
)

// TestSchedExecFallsBackWhenFleetIsDown: with every endpoint refusing
// connections, a run comes back as bench.ErrRemoteUnavailable, the
// Runner's cue to execute it locally instead of failing the sweep.
func TestSchedExecFallsBackWhenFleetIsDown(t *testing.T) {
	var endpoints []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(http.NotFoundHandler())
		ts.Close()
		endpoints = append(endpoints, ts.URL)
	}
	sch := fleet.New(endpoints, fleet.Options{
		Client:        client.Options{Retry: client.Retry{Attempts: 2, Base: time.Millisecond, Max: time.Millisecond}},
		ProbeInterval: 10 * time.Millisecond,
	})
	sch.Start(context.Background())
	defer sch.Stop()

	cfg := bench.Config{Scale: 0.05, Seed: 1}
	var runner *bench.Runner // nil: no analysis, so unknown events price mid-sized
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := schedExec(sch, cfg, &runner)(ctx, bench.RunSpec{Workload: "lu", Proto: "arc", Cores: 2})
	if !errors.Is(err, bench.ErrRemoteUnavailable) {
		t.Fatalf("schedExec with the fleet down = %v, want bench.ErrRemoteUnavailable", err)
	}
}
