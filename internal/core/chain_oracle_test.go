package core

import (
	"context"
	"fmt"
	"log/slog"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"hilp/internal/faults"
	"hilp/internal/obs"
	"hilp/internal/rodinia"
	"hilp/internal/scheduler"
	"hilp/internal/soc"
	"hilp/internal/workgen"
)

// sequentialSolveAdaptive is the §III-D loop as it was before levels could
// overlap, kept verbatim as the differential oracle for the certified chain
// in SolveAdaptive.
func sequentialSolveAdaptive(ctx context.Context, build func(stepSec float64, horizon int) (*Instance, error), profile Profile, cfg scheduler.Config) (*Result, error) {
	step := profile.InitialStepSec
	var last *Result
	// Degradation is sticky across refinements: once any iteration fell back
	// to the heuristic scheduler, the whole evaluation reports Degraded even
	// if a finer (or the kept coarser) iteration solved cleanly, so chaos
	// accounting and callers see every point a fault actually touched.
	var degraded bool
	var fallbackReason string
	// When the caller supplied a warm-start hint, refinements self-warm: each
	// iteration's schedule seeds the next resolution's search (task indexing
	// and option labels are resolution-invariant), so only the first, coarsest
	// solve pays the full search cost. Cold solves stay warm-free end to end.
	warmEnabled := cfg.Warm != nil

	octx := cfg.Obs
	esp := octx.StartSpan("evaluate")
	defer esp.End()
	if esp.Active() {
		if id := obs.RequestID(ctx); id != "" {
			esp.ArgStr("req", id)
		}
	}
	ectx := octx.WithSpan(esp)
	octx.Counter(obs.MEvaluations).Inc()

	// finish records the final outcome of the adaptive loop.
	finish := func(r *Result) *Result {
		if degraded {
			r.Degraded = true
			if r.FallbackReason == "" {
				r.FallbackReason = fallbackReason
			}
		}
		octx.Counter(obs.MRefinements).Add(int64(r.Refinements))
		octx.Gauge(obs.MCertifiedGap).Set(r.Gap)
		octx.Gauge(obs.MMakespanSec).Set(r.MakespanSec)
		esp.Arg("gap", r.Gap).Arg("makespan_sec", r.MakespanSec).ArgInt("refinements", r.Refinements)
		return r
	}

	for refinement := 0; ; refinement++ {
		// Fault-injection site outside the solver's own recover boundary:
		// panics here must be caught by sweep workers, hilp.Solve, or the
		// server pool, exercising the outer isolation layers.
		faults.FromContext(ctx).PanicNow(faults.SiteEvaluate)

		rsp := ectx.StartSpan("refine-iteration").ArgInt("refinement", refinement).Arg("step_sec", step)
		rctx := ectx.WithSpan(rsp)

		bsp := rctx.StartSpan("build-instance")
		inst, err := build(step, profile.Horizon)
		if err != nil {
			bsp.End()
			rsp.End()
			return nil, err
		}
		bsp.ArgInt("tasks", len(inst.Problem.Tasks))
		bsp.End()

		scfg := cfg
		scfg.Obs = rctx
		res, err := SolveProblem(ctx, inst.Problem, scfg)
		if err != nil {
			rsp.End()
			return nil, fmt.Errorf("core: solving at %gs steps: %w", step, err)
		}
		if res.Degraded {
			degraded = true
			if fallbackReason == "" {
				fallbackReason = res.FallbackReason
			}
		}
		if warmEnabled {
			cfg.Warm = scheduler.WarmStartOf(inst.Problem, res.Schedule)
		}
		cur := &Result{
			Instance:    inst,
			Sched:       res,
			StepSec:     step,
			MakespanSec: float64(res.Schedule.Makespan) * step,
			WLP:         res.Schedule.WLP(inst.Problem),
			Gap:         res.Gap(),
			Refinements: refinement,
			Cancelled:   res.Cancelled,
		}
		octx.Log(ctx, slog.LevelDebug, "evaluate: refinement solved",
			"stepSec", step, "makespanSteps", res.Schedule.Makespan, "makespanSec", cur.MakespanSec,
			"gap", cur.Gap, "method", res.Method, "refinement", refinement)
		rsp.ArgInt("makespan_steps", res.Schedule.Makespan).Arg("gap", cur.Gap)
		rsp.End()

		if ctx.Err() != nil {
			// Cancelled: stop refining and return the best-resolved result.
			// A coarser previous result is never better than the current one
			// unless the current solve overshot the horizon.
			if res.Schedule.Makespan > profile.Horizon && last != nil {
				last.Cancelled = true
				return finish(last), nil
			}
			cur.Cancelled = true
			return finish(cur), nil
		}

		switch {
		case res.Schedule.Makespan > profile.Horizon && last != nil:
			// Refinement overshot the horizon; keep the previous result.
			return finish(last), nil
		case res.Schedule.Makespan > profile.Horizon && refinement < profile.MaxRefinements:
			// The initial resolution was too fine for this workload; coarsen.
			step *= 5
			last = nil
			continue
		case res.Schedule.Makespan < profile.RefineWhileBelow && refinement < profile.MaxRefinements:
			// Under-resolved: refine 5x and re-solve (paper §III-D).
			last = cur
			step /= 5
			continue
		default:
			return finish(cur), nil
		}
	}
}

// chainCase is one input of the differential oracle.
type chainCase struct {
	name    string
	w       rodinia.Workload
	spec    soc.Spec
	profile Profile
	cfg     scheduler.Config
}

func (c chainCase) build(stepSec float64, horizon int) (*Instance, error) {
	return BuildInstance(c.w, c.spec, stepSec, horizon)
}

// counted returns c's builder and the time steps it was called with.
func (c chainCase) counted() (func(float64, int) (*Instance, error), *[]float64) {
	steps := &[]float64{}
	return func(stepSec float64, horizon int) (*Instance, error) {
		*steps = append(*steps, stepSec)
		return c.build(stepSec, horizon)
	}, steps
}

// chainCases covers Rodinia and workgen subsets under both paper profiles,
// a coarsen-then-refine walk that ends on an overshoot, a MaxRefinements
// hit, the tabu improver, a self-warming chain and the MILP improver.
func chainCases(t *testing.T) []chainCase {
	t.Helper()
	heavy, err := workgen.HeavyTailed(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := workgen.Uniform(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	def := rodinia.DefaultWorkload()
	sub := func(w rodinia.Workload, apps ...int) rodinia.Workload {
		out := rodinia.Workload{Name: fmt.Sprintf("%s%v", w.Name, apps)}
		for _, a := range apps {
			out.Apps = append(out.Apps, w.Apps[a])
		}
		return out
	}
	dsa := soc.DSA{Target: "HS", PEs: 16}
	cfg := scheduler.Config{Seed: 1, Effort: 0.25}
	var cases []chainCase
	for _, pr := range []struct {
		name string
		p    Profile
	}{{"validation", ValidationProfile}, {"dse", DSEProfile}} {
		cases = append(cases,
			chainCase{"default3/" + pr.name, sub(def, 0, 1, 2), fastSpec(2, 16), pr.p, cfg},
			chainCase{"optimized4/" + pr.name, sub(rodinia.OptimizedWorkload(), 1, 3, 4, 6), fastSpec(4, 32, dsa), pr.p, cfg},
			chainCase{"rodinia3/" + pr.name, sub(rodinia.RodiniaWorkload(), 2, 5, 7), fastSpec(2, 16), pr.p, cfg},
			chainCase{"heavy4/" + pr.name, heavy, fastSpec(2, 16), pr.p, cfg},
			chainCase{"uniform5/" + pr.name, uniform, fastSpec(4, 16, soc.DSA{Target: "SYN0", PEs: 16}), pr.p, cfg},
		)
	}
	// Starting too fine: the first level overshoots the horizon, the loop
	// coarsens, refines once and overshoots again, keeping the coarse result.
	cases = append(cases, chainCase{"coarsen-then-refine", sub(def, 0, 1, 2), fastSpec(2, 16),
		Profile{InitialStepSec: 0.05, Horizon: 300, RefineWhileBelow: 150, MaxRefinements: 4}, cfg})
	cases = append(cases, chainCase{"max-refinements", sub(def, 0, 1), fastSpec(2, 16),
		Profile{InitialStepSec: 10, Horizon: 5000, RefineWhileBelow: 5000, MaxRefinements: 2}, cfg})
	tabu := cfg
	tabu.Improver = "tabu"
	cases = append(cases, chainCase{"tabu", sub(def, 0, 1, 2), fastSpec(2, 16), ValidationProfile, tabu})

	warmCase := chainCase{"warm", sub(def, 0, 1, 2), fastSpec(2, 16), ValidationProfile, cfg}
	donor, err := sequentialSolveAdaptive(context.Background(), chainCase{w: warmCase.w, spec: fastSpec(4, 16)}.build, ValidationProfile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warmCase.cfg.Warm = scheduler.WarmStartOf(donor.Instance.Problem, donor.Sched.Schedule)
	cases = append(cases, warmCase)

	milp := cfg
	milp.Improver = "milp"
	milp.ExactNodeLimit = 50
	cases = append(cases, chainCase{"milp", sub(def, 0, 1), fastSpec(2, 16),
		Profile{InitialStepSec: 100, Horizon: 40, RefineWhileBelow: 4, MaxRefinements: 1}, milp})
	return cases
}

// TestSolveAdaptiveMatchesSequentialOracle holds the certified chain to the
// sequential loop: every case builds the same levels and returns an
// identical Result — step, schedule, bound, method, refinements, Degraded —
// with one or two processors, with every solve line held by other callers,
// and with the cases split over more concurrent callers than processors.
func TestSolveAdaptiveMatchesSequentialOracle(t *testing.T) {
	cases := chainCases(t)
	want := make([]*Result, len(cases))
	wantSteps := make([][]float64, len(cases))
	for i, c := range cases {
		build, steps := c.counted()
		r, err := sequentialSolveAdaptive(context.Background(), build, c.profile, c.cfg)
		if err != nil {
			t.Fatalf("%s: oracle: %v", c.name, err)
		}
		want[i], wantSteps[i] = r, *steps
	}
	solve := func(i int) (*Result, []float64, error) {
		build, steps := cases[i].counted()
		r, err := SolveAdaptive(context.Background(), build, cases[i].profile, cases[i].cfg)
		return r, *steps, err
	}
	check := func(t *testing.T, i int, got *Result, steps []float64, err error) {
		t.Helper()
		c := cases[i]
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			return
		}
		if !reflect.DeepEqual(steps, wantSteps[i]) {
			t.Errorf("%s: built levels at steps %v, the sequential loop at %v", c.name, steps, wantSteps[i])
		}
		if !reflect.DeepEqual(got, want[i]) {
			w := want[i]
			t.Errorf("%s: chain result differs from the sequential loop:\n got step %g makespan %d lb %d %s refinements %d degraded %v\nwant step %g makespan %d lb %d %s refinements %d degraded %v",
				c.name, got.StepSec, got.Sched.Schedule.Makespan, got.Sched.LowerBound, got.Sched.Method, got.Refinements, got.Degraded,
				w.StepSec, w.Sched.Schedule.Makespan, w.Sched.LowerBound, w.Sched.Method, w.Refinements, w.Degraded)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	all := func(t *testing.T) {
		for i := range cases {
			got, steps, err := solve(i)
			check(t, i, got, steps, err)
		}
	}
	runtime.GOMAXPROCS(1)
	t.Run("procs=1", all)
	runtime.GOMAXPROCS(2)
	t.Run("procs=2", all)
	t.Run("procs=2,lines-held", func(t *testing.T) {
		solveLines.Add(2)
		defer solveLines.Add(-2)
		all(t)
	})
	t.Run("procs=2,concurrent-callers", func(t *testing.T) {
		const callers = 3
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(cases); i += callers {
					got, steps, err := solve(i)
					check(t, i, got, steps, err)
				}
			}(g)
		}
		wg.Wait()
	})
	// Cancellation: an already-cancelled call matches the sequential loop
	// exactly. A call cancelled while its second level is built may return
	// an earlier level, depending on which overlapped solve saw the
	// cancellation, but builds exactly the levels the sequential loop
	// builds.
	t.Run("procs=2,cancelled", func(t *testing.T) {
		for i, c := range cases {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			build, steps := c.counted()
			got, err := SolveAdaptive(ctx, build, c.profile, c.cfg)
			build, seqSteps := c.counted()
			want, werr := sequentialSolveAdaptive(ctx, build, c.profile, c.cfg)
			if fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Errorf("%s: cancelled before the call: error %v, the sequential loop's %v", c.name, err, werr)
			}
			if !reflect.DeepEqual(*steps, *seqSteps) || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: cancelled before the call: built %v, returned %+v; the sequential loop built %v, returned %+v",
					c.name, *steps, got, *seqSteps, want)
			}

			var errs []string
			for _, solve := range []func(context.Context, func(float64, int) (*Instance, error), Profile, scheduler.Config) (*Result, error){
				SolveAdaptive, sequentialSolveAdaptive,
			} {
				ctx, cancel := context.WithCancel(context.Background())
				build, steps := c.counted()
				got, err := solve(ctx, func(stepSec float64, horizon int) (*Instance, error) {
					if len(*steps) == 1 {
						cancel()
					}
					return build(stepSec, horizon)
				}, c.profile, c.cfg)
				cancel()
				errs = append(errs, fmt.Sprint(err))
				n := len(wantSteps[i])
				if !reflect.DeepEqual(*steps, wantSteps[i][:min(n, 2)]) || (err == nil && n > 1 && !got.Cancelled) {
					t.Errorf("%s: cancelled at the second build: built %v, result %+v; uncancelled the loop builds %v",
						c.name, *steps, got, wantSteps[i])
				}
			}
			if errs[0] != errs[1] {
				t.Errorf("%s: cancelled at the second build: error %s, the sequential loop's %s", c.name, errs[0], errs[1])
			}
		}
	})
	if n := solveLines.Load(); n != 0 {
		t.Errorf("%d solve lines still held after every call returned", n)
	}
}

// levelArgs returns the certified/concurrent args of every refine-iteration
// span of one traced SolveAdaptive call.
func levelArgs(t *testing.T, c chainCase) (certified []string, concurrent []int) {
	t.Helper()
	tr := obs.NewTracer()
	cfg := c.cfg
	cfg.Obs = &obs.Context{Tracer: tr}
	if _, err := SolveAdaptive(context.Background(), c.build, c.profile, cfg); err != nil {
		t.Fatal(err)
	}
	recs := tr.Snapshot()
	if err := obs.WellNested(recs); err != nil {
		t.Errorf("%s: %v", c.name, err)
	}
	for _, r := range recs {
		if r.Name == "refine-iteration" {
			certified = append(certified, r.StrArgs["certified"])
			concurrent = append(concurrent, int(r.Args["concurrent"]))
		}
	}
	return certified, concurrent
}

// TestSolveAdaptiveChainGate checks when levels overlap: a certified level
// is handed to an idle core, never while every line is held, and warm or
// MILP chains always wait.
func TestSolveAdaptiveChainGate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(2)
	byName := map[string]chainCase{}
	for _, c := range chainCases(t) {
		byName[c.name] = c
	}

	certified, concurrent := levelArgs(t, byName["default3/validation"])
	if len(certified) < 3 || certified[0] != "refine" || certified[len(certified)-1] != "waited" {
		t.Fatalf("default3/validation levels certified %v, want refine... then waited", certified)
	}
	if concurrent[0] != 1 {
		t.Errorf("first certified level ran inline with an idle core: concurrent %v", concurrent)
	}

	solveLines.Add(2)
	_, concurrent = levelArgs(t, byName["default3/validation"])
	solveLines.Add(-2)
	for i, c := range concurrent {
		if c != 0 {
			t.Errorf("level %d overlapped while every line was held", i)
		}
	}

	for _, name := range []string{"warm", "milp"} {
		certified, concurrent := levelArgs(t, byName[name])
		for i := range certified {
			if certified[i] != "waited" || concurrent[i] != 0 {
				t.Errorf("%s level %d: certified %q concurrent %d, want waited and inline", name, i, certified[i], concurrent[i])
			}
		}
	}
}

// TestSolveAdaptiveGaugesFollowWalk runs a 2-level chain whose first level
// is solved on a helper core and finishes well after the second, final one
// (which meets its lower bound and skips the improver). The lower-bound and
// makespan gauges must end on the returned level, as in the sequential loop,
// not on whichever solve finished last.
func TestSolveAdaptiveGaugesFollowWalk(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(2)
	def := rodinia.DefaultWorkload()
	hard := rodinia.Workload{Name: "hard", Apps: def.Apps[:3]}
	easy := rodinia.Workload{Name: "easy", Apps: def.Apps[:1]}
	spec := fastSpec(2, 16)
	profile := Profile{InitialStepSec: 2, Horizon: 1000, RefineWhileBelow: 1000, MaxRefinements: 1}
	build := func(stepSec float64, horizon int) (*Instance, error) {
		if stepSec == profile.InitialStepSec {
			return BuildInstance(hard, spec, stepSec, horizon)
		}
		return BuildInstance(easy, spec, stepSec, horizon)
	}
	for i, w := range []rodinia.Workload{hard, easy} {
		inst, err := build(profile.InitialStepSec/float64(1+4*i), profile.Horizon)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := scheduler.Prepare(inst.Problem, nil)
		if err != nil {
			t.Fatal(err)
		}
		ub, _ := pp.Incumbent()
		if atLB := ub.Makespan == pp.LowerBound; atLB != (i == 1) {
			t.Fatalf("%s: portfolio at the lower bound = %v; the fixture needs a searched first level and a skipped second", w.Name, atLB)
		}
	}

	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	cfg := scheduler.Config{Seed: 1, Effort: 4, Obs: &obs.Context{Metrics: reg, Tracer: tr}}
	res, err := SolveAdaptive(context.Background(), build, profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Refinements != 1 {
		t.Fatalf("refinements = %d, want the second level returned", res.Refinements)
	}
	var ends []int64
	for _, r := range tr.Snapshot() {
		if r.Name == "refine-iteration" {
			if r.Args["refinement"] == 0 && r.Args["concurrent"] != 1 {
				t.Fatal("the first level was not solved on a helper core")
			}
			ends = append(ends, r.StartNs+r.DurNs)
		}
	}
	if len(ends) != 2 || ends[0] <= ends[1] {
		t.Fatalf("refine-iteration ends %v: the helper level did not finish last", ends)
	}
	if lb, ms := reg.Gauge(obs.MLowerBoundSteps).Value(), reg.Gauge(obs.MMakespanSteps).Value(); lb != float64(res.Sched.LowerBound) || ms != float64(res.Sched.Schedule.Makespan) {
		t.Errorf("gauges lower bound %g makespan %g, returned level %d / %d", lb, ms, res.Sched.LowerBound, res.Sched.Schedule.Makespan)
	}
}
