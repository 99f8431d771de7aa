package main

import (
	"context"
	"fmt"
	"time"

	"hilp"
	"hilp/internal/core"
	"hilp/internal/dse"
	"hilp/internal/scheduler"
	"hilp/internal/wire"
)

const (
	// setupReps is how many times a run repeats its set-up; setup_s is the
	// median.
	setupReps = 25
	// hvRefArea is the fixed area (mm^2) of the hypervolume reference point;
	// every SoC the generators produce is smaller.
	hvRefArea = 1500
)

// solverDefaults mirrors the configuration hilp.Solve uses when no
// WithSolver option is given, with scheduler.Solve's defaults filled in;
// the stage replay runs each stage with exactly these settings.
var solverDefaults = struct {
	seed                     int64
	gapTarget                float64
	exactTaskLimit, nodeCap  int
	restarts                 int
	annealBase, annealPerTsk int
}{seed: 1, gapTarget: 0.10, exactTaskLimit: 12, nodeCap: 500_000, restarts: 2, annealBase: 2000, annealPerTsk: 400}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// setupSolveFine generates one cycle of the point stream setupReps times
// and returns it with the median generation time in seconds.
func (r *runner) setupSolveFine() ([]solvePoint, float64, error) {
	var pts []solvePoint
	var times []float64
	for k := 0; k < setupReps; k++ {
		t := time.Now()
		var err error
		pts, err = solvePoints(r.seed, solveCycle)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return pts, median(times), nil
}

// checkSolve applies the correctness checks every solved design point must
// pass: a valid schedule, a lower bound at or below the makespan, and a
// makespan at or above the continuous-time analytic bound.
func checkSolve(o *op, i int, p solvePoint, res *hilp.Result, err error) {
	o.require(err == nil, "point %d: solve: %v", i, err)
	if err != nil {
		return
	}
	o.require(!res.Cancelled && !res.Degraded, "point %d: cancelled=%v degraded=%v (%s)", i, res.Cancelled, res.Degraded, res.FallbackReason)
	verr := res.Sched.Schedule.Validate(res.Instance.Problem)
	o.require(verr == nil, "point %d: schedule fails Validate: %v", i, verr)
	o.require(res.Sched.LowerBound <= res.Sched.Schedule.Makespan, "point %d: lower bound %d above makespan %d", i, res.Sched.LowerBound, res.Sched.Schedule.Makespan)
	lb := core.AnalyticLowerBoundSec(p.W, p.Spec)
	o.require(res.MakespanSec >= lb*(1-1e-9), "point %d: makespan %.6gs below analytic bound %.6gs", i, res.MakespanSec, lb)
	o.require(res.Gap >= 0 && res.Gap <= 1, "point %d: gap %g outside [0,1]", i, res.Gap)
}

// quality holds the result-quality metrics of a set of design points.
type quality struct {
	gaps, speedups []float64
	front          []dse.Point
}

func (q *quality) add(spec hilp.SoC, speedup, gap float64) {
	q.gaps = append(q.gaps, gap)
	q.speedups = append(q.speedups, speedup)
	q.front = append(q.front, dse.Point{Spec: spec, AreaMM2: spec.Normalize().AreaMM2(), Speedup: speedup})
}

func (q *quality) hypervolume() float64 { return dse.Hypervolume(q.front, hvRefArea, 0) }

func (q *quality) report(m *metrics) {
	m.set("gap_mean", "ratio", mean(q.gaps))
	m.set("speedup_geomean", "x", geomean(q.speedups))
	m.set("hypervolume", "mm2x", q.hypervolume())
}

// solveFine is the solve-fine workload: one closed-loop caller runs
// hilp.Solve at ValidationProfile with the default solver, pass after pass
// over the seeded design, until the time budget is spent (at least one whole
// pass). Every pass must reproduce the first exactly; the quality metrics
// come from the first. The timing metrics come from each design point's
// median latency over its solves, so every point counts once, however far
// the last, partial pass got, and a burst of host noise during one solve of
// a point does not move them.
func (r *runner) solveFine() error {
	pts, setup, err := r.setupSolveFine()
	if err != nil {
		return err
	}
	r.m.set("setup_s", "s", setup)
	ctx := context.Background()
	// One untimed solve lets the heap grow to its working size first.
	if _, err := hilp.Solve(ctx, pts[0].W, pts[0].Spec, hilp.WithProfile(hilp.ValidationProfile)); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	lat := make([][]float64, len(pts))
	var q quality
	first := make([]*hilp.Result, len(pts))
	// alloc_mb_per_op covers the first pass, which solves every point once.
	a0, passMB := allocMB(), 0.0
	ops := 0
	for start := time.Now(); ops < len(pts) || time.Since(start) < r.seconds; ops++ {
		i, pass := ops%len(pts), ops/len(pts)
		p := pts[i]
		t := time.Now()
		res, err := hilp.Solve(ctx, p.W, p.Spec, hilp.WithProfile(hilp.ValidationProfile))
		lat[i] = append(lat[i], msSince(t))
		o := r.begin()
		checkSolve(o, i, p, res, err)
		switch {
		case err != nil:
		case pass == 0:
			first[i] = res
			q.add(p.Spec, res.Speedup, res.Gap)
		default:
			o.require(first[i] != nil && sameResult(res, first[i]), "point %d: pass %d result %s differs from pass 0", i, pass, describe(res))
		}
		o.end()
		if ops == len(pts)-1 {
			passMB = allocMB() - a0
		}
	}
	perPoint := make([]float64, len(pts))
	totalMS := 0.0
	for i, l := range lat {
		perPoint[i] = median(l)
		totalMS += perPoint[i]
	}
	r.m.set("ops_per_s", "ops/s", float64(len(pts))/(totalMS/1e3))
	r.m.latency(perPoint)
	r.m.note("latency_tail_ms", r.m.notes["latency_tail_ms"]+fmt.Sprintf(", per-point medians of %d solves", ops))
	q.report(r.m)
	r.m.set("alloc_mb_per_op", "MB/op", passMB/float64(len(pts)))
	return nil
}

// solveFineTrace is the traced solve-fine run. It first solves a prefix of
// the stream untraced through hilp.Solve (a quarter of the time budget),
// then drives the same points through the layers underneath, timing each
// call from outside:
//
//   - core: ValidateWorkload/ValidateSpec, then SolveAdaptive with a build
//     callback wrapping BuildInstance; its results must equal hilp.Solve's;
//   - core.SolveProblem again on every instance the loop built;
//   - scheduler: a replay of scheduler.Solve's stages on those instances,
//     which must reproduce SolveProblem's makespan and lower bound exactly;
//   - wire: Marshal(FromResult(...)) of each result.
func (r *runner) solveFineTrace() error {
	pts, _, err := r.setupSolveFine()
	if err != nil {
		return err
	}
	ctx := context.Background()
	var want []*hilp.Result
	var untracedMS float64
	start := time.Now()
	for i := 0; i < len(pts) && (i == 0 || time.Since(start) < r.seconds/4); i++ {
		p := pts[i]
		t := time.Now()
		res, err := hilp.Solve(ctx, p.W, p.Spec, hilp.WithProfile(hilp.ValidationProfile))
		untracedMS += msSince(t)
		o := r.begin()
		checkSolve(o, i, p, res, err)
		o.end()
		if err != nil {
			return fmt.Errorf("point %d: %w", i, err)
		}
		want = append(want, res)
	}

	cfg := scheduler.Config{Seed: solverDefaults.seed}
	var tracedMS float64
	var refinements, gapMet, instances, exactRuns, exhausted, nodes int
	for i, w := range want {
		p := pts[i]
		o := r.begin()
		t := time.Now()
		spec := p.Spec.Normalize()
		tv := time.Now()
		verr := core.ValidateWorkload(p.W)
		if verr == nil {
			verr = core.ValidateSpec(spec)
		}
		r.spans.record("core.validate", i, tv)
		o.require(verr == nil, "point %d: validation: %v", i, verr)
		var built []*core.Instance
		res, err := core.SolveAdaptive(ctx, func(stepSec float64, horizon int) (*core.Instance, error) {
			tb := time.Now()
			inst, err := core.BuildInstance(p.W, spec, stepSec, horizon)
			r.spans.record("core.build", i, tb)
			if err == nil {
				built = append(built, inst)
			}
			return inst, err
		}, hilp.ValidationProfile, cfg)
		tracedMS += r.spans.record("core.solve_adaptive", i, t)
		o.require(err == nil, "point %d: SolveAdaptive: %v", i, err)
		if err != nil {
			o.end()
			continue
		}
		res.Speedup = p.W.SequentialSingleCoreSec() / res.MakespanSec
		o.require(sameResult(res, w), "point %d: traced core path differs from hilp.Solve: %s vs %s", i, describe(res), describe(w))
		refinements += res.Refinements

		for _, inst := range built {
			ts := time.Now()
			sp, err := core.SolveProblem(ctx, inst.Problem, cfg)
			r.spans.record("core.solve_problem", i, ts)
			o.require(err == nil, "point %d: SolveProblem: %v", i, err)
			if err != nil {
				continue
			}
			rep := r.replayStages(ctx, i, inst.Problem)
			o.require(rep.makespan == sp.Schedule.Makespan && rep.lowerBound == sp.LowerBound,
				"point %d: stage replay gives makespan %d, bound %d; SolveProblem gave %d, %d",
				i, rep.makespan, rep.lowerBound, sp.Schedule.Makespan, sp.LowerBound)
			instances++
			if sp.Gap() <= solverDefaults.gapTarget {
				gapMet++
			}
			if rep.exactRan {
				exactRuns++
				nodes += rep.nodes
				if rep.exhausted {
					exhausted++
				}
			}
		}

		te := time.Now()
		_, err = wire.Marshal(wire.FromResult(res))
		r.spans.record("wire.encode", i, te)
		o.require(err == nil, "point %d: wire encode: %v", i, err)
		o.end()
	}

	n := float64(len(want))
	perOp := func(name string) float64 { return r.spans.totalMS(name) / n }
	r.m.set("core.validate_ms", "ms", perOp("core.validate"))
	r.m.set("core.build_ms", "ms", perOp("core.build"))
	r.m.set("core.refinements", "count", float64(refinements)/n)
	solveProblemMS := perOp("core.solve_problem")
	r.m.set("core.solve_problem_ms", "ms", solveProblemMS)
	stageSum := 0.0
	for _, st := range []string{"bounds", "anneal", "justify", "destructive_lb", "exact"} {
		v := perOp("scheduler." + st)
		stageSum += v
		r.m.set("scheduler."+st+"_ms", "ms", v)
	}
	r.m.set("scheduler.exact_nodes", "count", float64(nodes)/n)
	exactSec := r.spans.totalMS("scheduler.exact") / 1e3
	r.m.set("scheduler.exact_nodes_per_s", "1/s", ratio(float64(nodes), exactSec))
	r.m.set("scheduler.exact_exhausted_frac", "ratio", ratio(float64(exhausted), float64(exactRuns)))
	r.m.set("scheduler.gap_met_frac", "ratio", ratio(float64(gapMet), float64(instances)))
	r.m.set("scheduler.replay_coverage", "ratio", ratio(stageSum, solveProblemMS))
	r.m.set("wire.encode_ms", "ms", perOp("wire.encode"))
	r.m.set("trace_overhead_frac", "ratio", tracedMS/untracedMS-1)
	r.fillLayers()
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sameResult reports whether two evaluations of one point agree exactly.
func sameResult(a, b *hilp.Result) bool {
	return a.MakespanSec == b.MakespanSec && a.StepSec == b.StepSec && a.Gap == b.Gap &&
		a.Refinements == b.Refinements && a.Speedup == b.Speedup &&
		a.Sched.LowerBound == b.Sched.LowerBound && a.Sched.Method == b.Sched.Method &&
		fmt.Sprint(a.Sched.Schedule) == fmt.Sprint(b.Sched.Schedule)
}

func describe(r *hilp.Result) string {
	return fmt.Sprintf("{%.6gs @%gs gap %.4g, %d refinements, %s}", r.MakespanSec, r.StepSec, r.Gap, r.Refinements, r.Sched.Method)
}

// replayOutcome is what the stage replay certified on one instance.
type replayOutcome struct {
	makespan, lowerBound, nodes int
	exactRan, exhausted         bool
}

// replayStages runs the stages of a cold scheduler.Solve one by one through
// their exported entry points, with the settings scheduler.Solve applies by
// default, and times each. The decisions between stages follow
// scheduler.Solve, so the outcome must equal core.SolveProblem's.
func (r *runner) replayStages(ctx context.Context, op int, p *scheduler.Problem) replayOutcome {
	d := solverDefaults
	t := time.Now()
	lb := scheduler.LowerBound(p)
	r.spans.record("scheduler.bounds", op, t)

	t = time.Now()
	best, _ := scheduler.Anneal(ctx, p, scheduler.AnnealConfig{
		Iterations: d.annealBase + d.annealPerTsk*len(p.Tasks),
		Restarts:   d.restarts,
		Seed:       d.seed,
	})
	r.spans.record("scheduler.anneal", op, t)

	t = time.Now()
	if j := scheduler.Justify(p, best); j.Makespan < best.Makespan {
		best = j
	}
	r.spans.record("scheduler.justify", op, t)

	out := replayOutcome{}
	proven := best.Makespan == lb
	gap := func() float64 {
		if best.Makespan == 0 {
			return 0
		}
		return float64(best.Makespan-lb) / float64(best.Makespan)
	}
	if !proven && gap() > d.gapTarget {
		t = time.Now()
		if v := scheduler.DestructiveLowerBound(ctx, p, best.Makespan); v > lb {
			lb = v
			proven = best.Makespan == lb
		}
		r.spans.record("scheduler.destructive_lb", op, t)
	}
	if !proven && gap() > d.gapTarget && len(p.Tasks) <= d.exactTaskLimit {
		t = time.Now()
		ex := scheduler.SolveExact(ctx, p, scheduler.ExactConfig{NodeLimit: d.nodeCap, UpperBound: best.Makespan})
		r.spans.record("scheduler.exact", op, t)
		out.exactRan, out.exhausted, out.nodes = true, ex.Exhausted, ex.Nodes
		if ex.Found {
			best = ex.Schedule
		}
		if ex.Exhausted {
			lb = best.Makespan
		}
	}
	out.makespan, out.lowerBound = best.Makespan, lb
	return out
}

// fillLayers reports 0 for every per-layer metric the traced run did not
// set, so each traced run prints the full list.
func (r *runner) fillLayers() {
	for _, l := range perLayerNames {
		if _, ok := r.m.values[l.name]; !ok {
			r.m.set(l.name, l.unit, 0)
		}
	}
}
