package core

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sync/atomic"

	"hilp/internal/faults"
	"hilp/internal/obs"
	"hilp/internal/rodinia"
	"hilp/internal/scheduler"
	"hilp/internal/soc"
)

// Profile controls the adaptive time-step resolution loop of §III-D.
type Profile struct {
	// InitialStepSec is the starting time-step size in seconds.
	InitialStepSec float64
	// Horizon is the number of time steps the exact methods may use.
	Horizon int
	// RefineWhileBelow triggers a 5x resolution refinement while the solved
	// makespan is below this many steps.
	RefineWhileBelow int
	// MaxRefinements bounds the number of refinements.
	MaxRefinements int
}

// ValidationProfile matches the paper's validation experiments: 2 s steps,
// 1,000-step horizon, refine 5x while the workload finishes in under 200
// steps.
var ValidationProfile = Profile{InitialStepSec: 2, Horizon: 1000, RefineWhileBelow: 200, MaxRefinements: 6}

// DSEProfile matches the paper's design-space exploration: 10 s steps,
// 200-step horizon, refine 5x while the workload finishes in under 40 steps.
var DSEProfile = Profile{InitialStepSec: 10, Horizon: 200, RefineWhileBelow: 40, MaxRefinements: 6}

// Result is a complete HILP evaluation of one (workload, SoC) pair.
type Result struct {
	Instance *Instance
	Sched    scheduler.Result

	StepSec     float64 // final resolution
	MakespanSec float64
	// Speedup is relative to fully sequential execution on a single CPU
	// core (the paper's baseline), computed in seconds.
	Speedup float64
	// WLP is the schedule's average workload-level parallelism.
	WLP float64
	// Gap is the certified relative optimality gap at the final resolution.
	Gap float64
	// Refinements counts how many times the resolution was adapted.
	Refinements int
	// Cancelled is true when the evaluation was cut short by context
	// cancellation or deadline expiry: the result is the best incumbent at
	// the resolution reached so far, with a valid (if loose) gap.
	Cancelled bool
	// Degraded is true when any refinement iteration fell back to the
	// heuristic scheduler after the primary solver failed (see
	// SolveProblem); the schedule is feasible and the bound valid, but the
	// gap is typically looser. The flag is sticky across refinements.
	Degraded bool
	// FallbackReason classifies the first degradation ("panic", "numerics",
	// "injected-fault", ...); empty unless Degraded.
	FallbackReason string
}

// Solve evaluates the workload on the SoC with HILP: it builds the instance,
// solves it, and adapts the time-step resolution until the makespan is well
// resolved (or the refinement budget runs out). Cancelling ctx stops the
// loop at the current resolution and returns the best result so far with
// Result.Cancelled set (see SolveAdaptive).
func Solve(ctx context.Context, w rodinia.Workload, spec soc.Spec, profile Profile, cfg scheduler.Config) (*Result, error) {
	spec = spec.Normalize()
	// Input hardening: reject NaN/Inf/negative fields with field-addressed
	// errors before any of them reach the instance builder or the solver.
	if err := ValidateWorkload(w); err != nil {
		return nil, err
	}
	if err := ValidateSpec(spec); err != nil {
		return nil, err
	}
	res, err := SolveAdaptive(ctx, func(stepSec float64, horizon int) (*Instance, error) {
		return BuildInstance(w, spec, stepSec, horizon)
	}, profile, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: solving %s on %s: %w", w.Name, spec.Label(), err)
	}
	if res.MakespanSec > 0 {
		res.Speedup = w.SequentialSingleCoreSec() / res.MakespanSec
	}
	return res, nil
}

// solveLines counts the solve lines running in this process: one per
// SolveAdaptive or SolveProblem call in progress, plus one per §III-D level
// handed to an idle core. Levels are handed off only while the count is
// below GOMAXPROCS, so a saturated process (busy server workers, parallel
// sweep workers) keeps the sequential order.
var solveLines atomic.Int64

// idleLine claims a solve line for a level solved on another core, or
// reports false when every processor already has one.
func idleLine() bool {
	limit := int64(runtime.GOMAXPROCS(0))
	for {
		n := solveLines.Load()
		if n >= limit {
			return false
		}
		if solveLines.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// level is one resolution of the §III-D loop. It is built and prepared on
// the caller's goroutine, then solved there or on an idle core.
type level struct {
	inst      *Instance
	pp        *scheduler.Prepared
	openErr   error // build or prepare failure
	span      obs.Span
	obs       *obs.Context // the level's span, recording into rec
	rec       *obs.Recorder
	certified bool // the heuristic incumbent alone decides to refine

	done     chan struct{} // closed once solved; nil unless on another core
	cancel   context.CancelFunc
	solved   bool
	res      scheduler.Result
	err      error
	ctxDone  bool // the caller's ctx was done when the solve returned
	panicked any
}

// solve runs the level's fallback chain under sctx, a context derived from
// the caller's ctx.
func (lv *level) solve(ctx, sctx context.Context, cfg scheduler.Config) {
	cfg.Obs = lv.obs
	lv.res, lv.err = solvePrepared(sctx, lv.pp, cfg)
	lv.ctxDone = ctx.Err() != nil
	lv.solved = true
	if lv.err == nil {
		lv.span.ArgInt("makespan_steps", lv.res.Schedule.Makespan).Arg("gap", lv.res.Gap())
	}
	lv.span.End()
}

// start solves the level on the idle core claimed for it, releasing the
// claim when done; lv.cancel abandons the solve. A panic is kept for the
// walk to re-raise on the caller's goroutine, where the sequential loop
// would have raised it.
func (lv *level) start(ctx context.Context, cfg scheduler.Config) {
	sctx, cancel := context.WithCancel(ctx)
	lv.cancel = cancel
	lv.done = make(chan struct{})
	go func() {
		defer close(lv.done)
		defer solveLines.Add(-1)
		defer cancel()
		defer func() { lv.panicked = recover() }()
		lv.solve(ctx, sctx, cfg)
	}()
}

// wait blocks until the level is solved.
func (lv *level) wait() {
	if lv.done != nil {
		<-lv.done
	}
}

// SolveAdaptive runs the §III-D adaptive-resolution loop over any instance
// builder: solve, refine the time step 5x while the makespan is
// under-resolved, coarsen if the initial resolution overshoots the horizon.
// The baselines package reuses it with dependency-stripped instances.
// Speedup is left at zero; callers define their own baseline.
//
// The loop is a bound-certified chain. Each level's heuristic incumbent
// bounds its solved makespan from above, so when that incumbent is within
// the horizon and below RefineWhileBelow the level will refine whatever the
// solve finds. Such a level is solved on an idle core (see solveLines) while
// the caller builds the next one. Every other decision waits for the solved
// makespan. Levels are built in order on the caller's goroutine, exactly the
// levels the sequential loop builds, and their results are walked in order,
// so the returned Result is the sequential loop's. Self-warming chains, the
// MILP improver, fault-injected runs and traces on an injected clock always
// wait: a warm level starts from the previous level's schedule, a MILP solve
// is not bounded by the heuristic incumbent, fault budgets are consumed in
// call order, and such a trace promises to replay tick for tick.
//
// ctx is threaded into every scheduler.Solve call, so cancellation has
// anytime semantics end to end: the in-flight solve returns its best
// incumbent, the loop stops refining, and the result carries Cancelled=true
// with the resolution and gap certified so far. Errors are reserved for
// genuinely failed solves (invalid instances, infeasibility), never for
// cancellation.
func SolveAdaptive(ctx context.Context, build func(stepSec float64, horizon int) (*Instance, error), profile Profile, cfg scheduler.Config) (*Result, error) {
	solveLines.Add(1)
	defer solveLines.Add(-1)

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
	chain := !warmEnabled && cfg.Improver != "milp" && !faults.FromContext(ctx).Enabled() &&
		!(octx != nil && octx.Tracer.Replayable())

	esp := octx.StartSpan("evaluate")
	defer esp.End()
	if esp.Active() {
		if id := obs.RequestID(ctx); id != "" {
			esp.ArgStr("req", id)
		}
	}
	ectx := octx.WithSpan(esp)
	octx.Counter(obs.MEvaluations).Inc()
	// Each level records into a fork of the flight recorder, merged when the
	// walk reaches it, so recordings come out in level order.
	var rec *obs.Recorder
	if octx != nil {
		rec = octx.Recorder
	}

	// ahead holds the levels opened but not yet walked, oldest first: those
	// handed to idle cores, then at most one solved inline.
	var ahead []*level
	// drop discards the levels ahead and waits for them, so no solve
	// outlives the call, whether it returns or panics.
	drop := func() {
		for _, lv := range ahead {
			if lv.cancel != nil {
				lv.cancel()
			}
			lv.wait()
			if !lv.solved && lv.openErr == nil {
				lv.span.End()
			}
		}
		ahead = nil
	}
	defer drop()

	// open builds and prepares the level at refinement r and time step st.
	open := func(r int, st float64) *level {
		// Fault-injection site outside the solver's own recover boundary:
		// panics here must be caught by sweep workers, hilp.Solve, or the
		// server pool, exercising the outer isolation layers.
		faults.FromContext(ctx).PanicNow(faults.SiteEvaluate)

		// A level opened while an earlier one is still being solved would
		// overlap it in time, so it gets a track of its own.
		var rsp obs.Span
		if len(ahead) > 0 {
			if ectx != nil {
				rsp = ectx.Tracer.StartSpan("refine-iteration")
			}
		} else {
			rsp = ectx.StartSpan("refine-iteration")
		}
		rsp.ArgInt("refinement", r).Arg("step_sec", st)
		lv := &level{span: rsp, obs: ectx.WithSpan(rsp), rec: rec.Fork()}
		if lv.obs != nil {
			lv.obs.Recorder = lv.rec
		}

		bsp := lv.obs.StartSpan("build-instance")
		lv.inst, lv.openErr = build(st, profile.Horizon)
		if lv.openErr != nil {
			bsp.End()
			rsp.End()
			return lv
		}
		bsp.ArgInt("tasks", len(lv.inst.Problem.Tasks))
		bsp.End()

		if lv.pp, lv.openErr = scheduler.Prepare(lv.inst.Problem, lv.obs); lv.openErr != nil {
			lv.openErr = fmt.Errorf("core: solving at %gs steps: %w", st, lv.openErr)
			rsp.End()
			return lv
		}
		ub, ok := lv.pp.Incumbent()
		lv.certified = chain && ok && ub.Makespan <= profile.Horizon &&
			ub.Makespan < profile.RefineWhileBelow && r < profile.MaxRefinements
		if lv.certified {
			rsp.ArgStr("certified", "refine")
		} else {
			rsp.ArgStr("certified", "waited")
		}
		return lv
	}

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
		if len(ahead) == 0 {
			// Open this level; while its refine decision is certified and a
			// core is idle, solve it there and open the next one. Once ctx is
			// done nothing more is opened or solved here: the walk solves a
			// level only if it gets that far.
			lv, st := open(refinement, step), step
			for lv.certified && ctx.Err() == nil && idleLine() {
				lv.span.ArgInt("concurrent", 1)
				lv.start(ctx, cfg)
				ahead = append(ahead, lv)
				if ctx.Err() != nil {
					lv = nil
					break
				}
				st /= 5
				lv = open(refinement+len(ahead), st)
			}
			if lv != nil {
				if lv.openErr == nil && ctx.Err() == nil {
					lv.span.ArgInt("concurrent", 0)
					lv.solve(ctx, ctx, cfg)
				}
				ahead = append(ahead, lv)
			}
		}
		lv := ahead[0]
		ahead = ahead[1:]
		lv.wait()
		if lv.panicked != nil {
			panic(lv.panicked)
		}
		if lv.openErr != nil {
			return nil, lv.openErr
		}
		if !lv.solved {
			lv.span.ArgInt("concurrent", 0)
			lv.solve(ctx, ctx, cfg)
		}
		rec.Merge(lv.rec)
		inst, res := lv.inst, lv.res
		if lv.err != nil {
			return nil, fmt.Errorf("core: solving at %gs steps: %w", step, lv.err)
		}
		setSolveGauges(octx, res)
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

		if lv.ctxDone {
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
			// Levels opened ahead assumed a refinement.
			drop()
			step *= 5
			last = nil
			continue
		case res.Schedule.Makespan < profile.RefineWhileBelow && refinement < profile.MaxRefinements:
			// Under-resolved: refine 5x and re-solve (paper §III-D). The next
			// level may already be open.
			last = cur
			step /= 5
			continue
		default:
			return finish(cur), nil
		}
	}
}
