package core

import (
	"context"
	"errors"
	"testing"

	"hilp/internal/faults"
	"hilp/internal/milp"
	"hilp/internal/obs"
	"hilp/internal/rodinia"
	"hilp/internal/scheduler"
)

// fallbackProblem is a small instance every solver layer handles quickly.
func fallbackProblem(t *testing.T) *scheduler.Problem {
	t.Helper()
	inst, err := validModel().Build(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	return inst.Problem
}

func chainCtx(cfg faults.Config) (context.Context, *faults.Injector) {
	in := faults.New(cfg)
	return faults.NewContext(context.Background(), in), in
}

func TestSolveProblemClean(t *testing.T) {
	res, err := SolveProblem(context.Background(), fallbackProblem(t), scheduler.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.FallbackReason != "" {
		t.Errorf("clean solve marked degraded: %+v", res)
	}
}

func TestSolveProblemRetryRecovers(t *testing.T) {
	// Times=1: the first attempt fails with an injected error, the retry's
	// injection budget is exhausted, so the retry succeeds cleanly — the
	// result must NOT be degraded.
	ctx, in := chainCtx(faults.Config{Seed: 1, Rate: 1, Times: 1,
		Kinds: []faults.Kind{faults.KindError}, Sites: []string{faults.SiteSolve}})
	octx := &obs.Context{Metrics: obs.NewRegistry()}
	res, err := SolveProblem(ctx, fallbackProblem(t), scheduler.Config{Seed: 1, Obs: octx})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Errorf("successful retry marked degraded: %+v", res)
	}
	if got := octx.Metrics.Counter(obs.MSolveRetries).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MSolveRetries, got)
	}
	if got := octx.Metrics.Counter(obs.MSolveFallbacks).Value(); got != 0 {
		t.Errorf("%s = %d, want 0", obs.MSolveFallbacks, got)
	}
	if in.FiredCount() != 1 {
		t.Errorf("FiredCount = %d, want 1", in.FiredCount())
	}
}

func TestSolveProblemDegradesToFallback(t *testing.T) {
	kinds := map[string]struct {
		kind   faults.Kind
		reason string
	}{
		"error":   {faults.KindError, ReasonInjected},
		"panic":   {faults.KindPanic, ReasonPanic},
		"corrupt": {faults.KindCorrupt, ReasonBadOut},
	}
	for name, tc := range kinds {
		t.Run(name, func(t *testing.T) {
			// Times=2 exhausts both the primary attempt and the retry, forcing
			// the heuristic fallback.
			ctx, _ := chainCtx(faults.Config{Seed: 1, Rate: 1, Times: 2,
				Kinds: []faults.Kind{tc.kind}, Sites: []string{faults.SiteSolve}})
			octx := &obs.Context{Metrics: obs.NewRegistry()}
			p := fallbackProblem(t)
			res, err := SolveProblem(ctx, p, scheduler.Config{Seed: 1, Obs: octx})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Degraded || res.FallbackReason != tc.reason {
				t.Fatalf("degraded=%v reason=%q, want true/%q", res.Degraded, res.FallbackReason, tc.reason)
			}
			if res.Method != "heuristic-fallback" {
				t.Errorf("method %q", res.Method)
			}
			// The degraded result is still a feasible schedule with a valid bound.
			if verr := res.Schedule.Validate(p); verr != nil {
				t.Errorf("fallback schedule invalid: %v", verr)
			}
			if res.LowerBound < 0 || res.LowerBound > res.Schedule.Makespan {
				t.Errorf("fallback bound %d outside [0, %d]", res.LowerBound, res.Schedule.Makespan)
			}
			if got := octx.Metrics.Counter(obs.MSolveDegraded).Value(); got != 1 {
				t.Errorf("%s = %d, want 1", obs.MSolveDegraded, got)
			}
		})
	}
}

func TestSolveProblemMILPPrimary(t *testing.T) {
	p := fallbackProblem(t)
	res, err := SolveProblem(context.Background(), p, scheduler.Config{Seed: 1, Improver: "milp"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "milp" {
		t.Fatalf("method %q, want milp", res.Method)
	}
	if verr := res.Schedule.Validate(p); verr != nil {
		t.Errorf("milp schedule invalid: %v", verr)
	}
	if res.Degraded {
		t.Errorf("clean milp solve marked degraded")
	}
}

func TestSolveProblemValidationErrorIsFinal(t *testing.T) {
	// An invalid problem is the caller's fault: no retry, no fallback.
	bad := &scheduler.Problem{
		Tasks:        []scheduler.Task{{Name: "x", Options: []scheduler.Option{{Cluster: 5, Duration: 1}}}},
		NumClusters:  1,
		ClusterGroup: []int{0},
		Horizon:      10,
	}
	octx := &obs.Context{Metrics: obs.NewRegistry()}
	if _, err := SolveProblem(context.Background(), bad, scheduler.Config{Seed: 1, Obs: octx}); err == nil {
		t.Fatal("invalid problem accepted")
	}
	if got := octx.Metrics.Counter(obs.MSolveRetries).Value(); got != 0 {
		t.Errorf("validation error was retried (%d retries)", got)
	}
}

func TestTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{scheduler.NewPanicError("t", "boom"), true},
		{milp.ErrNumerics, true},
		{milp.ErrDegenerate, true},
		{faults.ErrInjected, true},
		{faults.ErrTimeout, true},
		{ErrBadResult, true},
		{errMILPIncomplete, true},
		{scheduler.ErrInfeasible, false},
		{context.Canceled, false},
		{BadField("x", CodeNaN, "is NaN"), false},
		{errors.New("mystery"), false},
	}
	for _, tc := range cases {
		if got := Transient(tc.err); got != tc.want {
			t.Errorf("Transient(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestSolveAdaptiveDegradedSticky(t *testing.T) {
	// A fault on the solve site inside the adaptive loop must surface on the
	// final Result even though later refinements may succeed.
	ctx, _ := chainCtx(faults.Config{Seed: 3, Rate: 1, Times: 2,
		Kinds: []faults.Kind{faults.KindError}, Sites: []string{faults.SiteSolve}})
	w := smallWorkload(t)
	res, err := Solve(ctx, w, fastSpec(2, 16), Profile{InitialStepSec: 10, Horizon: 200}, scheduler.Config{Seed: 1, Effort: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.FallbackReason != ReasonInjected {
		t.Errorf("degraded=%v reason=%q, want sticky true/%q", res.Degraded, res.FallbackReason, ReasonInjected)
	}
	if res.Speedup <= 0 {
		t.Errorf("degraded result speedup %g, want > 0", res.Speedup)
	}
}

// TestSolveMILPCancelledReturnsWarmStart pins the MILP path's anytime
// contract: a context cancelled before the search installs an incumbent
// still yields the heuristic warm start the search was seeded with,
// certified by the combinatorial lower bound, as the CP path does.
func TestSolveMILPCancelledReturnsWarmStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := rodinia.Workload{Name: "mini", Apps: rodinia.DefaultWorkload().Apps[:3]}
	cfg := scheduler.Config{Seed: 1, Improver: "milp", ExactNodeLimit: 50}
	inst, err := BuildInstance(w, fastSpec(2, 16), 10, 200)
	if err != nil {
		t.Fatal(err)
	}
	p := inst.Problem
	res, err := SolveProblem(ctx, p, cfg)
	if err != nil {
		t.Fatalf("cancelled milp solve errored: %v", err)
	}
	if verr := res.Schedule.Validate(p); verr != nil {
		t.Fatalf("cancelled milp schedule invalid: %v", verr)
	}
	if lb := scheduler.LowerBound(p); res.LowerBound != lb {
		t.Errorf("lower bound %d, want the combinatorial bound %d", res.LowerBound, lb)
	}
	if res.Proven != (res.Schedule.Makespan == res.LowerBound) {
		t.Errorf("proven %v for makespan %d, bound %d", res.Proven, res.Schedule.Makespan, res.LowerBound)
	}
	if res.Cancelled == res.Proven {
		t.Errorf("cancelled %v, proven %v: want cancelled unless proven", res.Cancelled, res.Proven)
	}
	if res.Proven {
		t.Fatal("the warm start meets the bound here, so Cancelled is not exercised")
	}
	if res.Degraded {
		t.Error("cancelled milp solve marked degraded")
	}
	if res.Method != "milp" {
		t.Errorf("method %q, want milp", res.Method)
	}

	full, err := Solve(ctx, w, fastSpec(2, 16), Profile{InitialStepSec: 10, Horizon: 200}, cfg)
	if err != nil {
		t.Fatalf("cancelled core.Solve with the milp improver errored: %v", err)
	}
	if full.MakespanSec <= 0 || full.Gap < 0 || full.Gap > 1 {
		t.Errorf("cancelled core.Solve result: makespan %g, gap %g", full.MakespanSec, full.Gap)
	}
}
