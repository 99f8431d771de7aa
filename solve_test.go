package hilp_test

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"hilp"
	"hilp/internal/report"
)

func miniWorkload() hilp.Workload {
	w := hilp.DefaultWorkload()
	w.Apps = w.Apps[:3]
	w.Name = "mini"
	return w
}

var quickProfile = hilp.Profile{InitialStepSec: 10, Horizon: 200, RefineWhileBelow: 0, MaxRefinements: 0}

func TestSolveBaselines(t *testing.T) {
	w := miniWorkload()
	spec := hilp.SoC{CPUCores: 2, GPUSMs: 16, GPUFrequenciesMHz: []float64{765}}
	opts := []hilp.Option{
		hilp.WithProfile(quickProfile),
		hilp.WithSolver(hilp.SolverConfig{Seed: 1, Effort: 0.2}),
	}

	hres, err := hilp.Solve(context.Background(), w, spec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	gres, err := hilp.Solve(context.Background(), w, spec,
		append(opts, hilp.WithBaseline(hilp.BaselineGables))...)
	if err != nil {
		t.Fatal(err)
	}
	mres, err := hilp.Solve(context.Background(), w, spec,
		append(opts, hilp.WithBaseline(hilp.BaselineMultiAmdahl))...)
	if err != nil {
		t.Fatal(err)
	}
	// Gables solves the same discretized instance minus dependencies and the
	// power cap, so it is never slower than HILP at equal resolution.
	// (MultiAmdahl is analytic — unquantized — so no ordering holds against
	// it at this coarse test profile.)
	if gres.Speedup < hres.Speedup-1e-9 {
		t.Errorf("Gables %g slower than HILP %g", gres.Speedup, hres.Speedup)
	}
	if mres.Speedup <= 0 {
		t.Errorf("MultiAmdahl speedup %g, want > 0", mres.Speedup)
	}
	if mres.WLP != 1 {
		t.Errorf("MultiAmdahl WLP %g, want 1", mres.WLP)
	}
}

func TestSolveCancelledReturnsIncumbent(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res, err := hilp.Solve(ctx, hilp.DefaultWorkload(), hilp.SoC{CPUCores: 4, GPUSMs: 64},
		hilp.WithSolver(hilp.SolverConfig{Seed: 1, Effort: 100}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Error("Cancelled not set")
	}
	if res.Speedup <= 0 || res.MakespanSec <= 0 {
		t.Errorf("no incumbent: speedup %g makespan %g", res.Speedup, res.MakespanSec)
	}
}

func TestSweepWithOptions(t *testing.T) {
	w := miniWorkload()
	specs := []hilp.SoC{
		{CPUCores: 1, GPUFrequenciesMHz: []float64{765}},
		{CPUCores: 2, GPUSMs: 16, GPUFrequenciesMHz: []float64{765}},
	}
	var progressCalls int
	points := hilp.Sweep(context.Background(), w, specs,
		hilp.WithProfile(quickProfile),
		hilp.WithSolver(hilp.SolverConfig{Seed: 1, Effort: 0.2}),
		hilp.WithWorkers(2),
		hilp.WithProgress(func(p hilp.SweepProgress) { progressCalls++ }),
	)
	if len(points) != 2 {
		t.Fatalf("%d points, want 2", len(points))
	}
	for i, p := range points {
		if p.Err != nil {
			t.Errorf("point %d: %v", i, p.Err)
		}
	}
	if progressCalls != 2 {
		t.Errorf("progress called %d times, want 2", progressCalls)
	}
	if points[1].Speedup <= points[0].Speedup {
		t.Errorf("GPU SoC %g not faster than CPU-only %g", points[1].Speedup, points[0].Speedup)
	}
}

// TestSolveRecorderReportDeterministic runs a 3-level evaluation whose
// coarse levels are solved on an idle core, and requires the flight
// recorder to yield the same report JSON every time: records come out in
// level order however the levels overlapped.
func TestSolveRecorderReportDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(2)
	w := miniWorkload()
	spec := hilp.SoC{CPUCores: 2, GPUSMs: 16, GPUFrequenciesMHz: []float64{300, 765}}
	var first []byte
	overlapped := 0
	for run := 0; run < 20; run++ {
		rec := hilp.NewRecorder()
		tr := hilp.NewTracer()
		res, err := hilp.Solve(context.Background(), w, spec, hilp.WithProfile(hilp.ValidationProfile),
			hilp.WithObs(&hilp.ObsContext{Recorder: rec, Tracer: tr}))
		if err != nil {
			t.Fatal(err)
		}
		if res.Refinements != 2 {
			t.Fatalf("refinements = %d, want a 3-level evaluation", res.Refinements)
		}
		for _, s := range tr.Snapshot() {
			if s.Name == "refine-iteration" && s.Args["concurrent"] == 1 {
				overlapped++
			}
		}
		d, err := report.FromResult("recorder determinism", res, rec)
		if err != nil {
			t.Fatal(err)
		}
		js, err := d.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = js
		} else if !bytes.Equal(js, first) {
			t.Fatalf("run %d: report JSON differs from run 0", run)
		}
	}
	if overlapped == 0 {
		t.Error("no level was solved on an idle core; the test did not exercise overlapping levels")
	}
}
