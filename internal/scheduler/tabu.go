package scheduler

import (
	"context"
	"math/rand"

	"hilp/internal/obs"
)

// TabuConfig tunes the tabu-search improver, an alternative to simulated
// annealing used by the ablation studies and available to callers who prefer
// a deterministic trajectory for a given seed.
type TabuConfig struct {
	// Iterations is the number of search steps. 0 selects a default scaled
	// to instance size.
	Iterations int
	// Tenure is how many iterations a reversed move stays forbidden. 0
	// selects a default of 2 x number of tasks.
	Tenure int
	// Neighborhood is how many candidate moves are sampled per step. 0
	// selects a default of 24.
	Neighborhood int
	// Seed drives candidate sampling deterministically.
	Seed int64
	// SeedList and SeedOpts, when both are task-count-length, inject one
	// extra starting candidate (a warm-start hint already mapped onto this
	// problem) considered alongside the heuristic portfolio.
	SeedList, SeedOpts []int
	// Obs carries optional tracing/metrics sinks; nil disables them.
	Obs *obs.Context
}

func (c TabuConfig) withDefaults(p *Problem) TabuConfig {
	if c.Iterations == 0 {
		c.Iterations = 1000 + 150*len(p.Tasks)
	}
	if c.Tenure == 0 {
		c.Tenure = 2 * len(p.Tasks)
		if c.Tenure < 8 {
			c.Tenure = 8
		}
	}
	if c.Neighborhood == 0 {
		c.Neighborhood = 24
	}
	return c
}

// tabuMove identifies a move for the tabu list: either swapping the task at
// a list position (kind 0) or assigning an option to a task (kind 1).
type tabuMove struct {
	kind int
	a, b int
}

// TabuSearch improves on the heuristic portfolio with tabu search over the
// same (activity list, option assignment) state space the annealer uses. ok
// is false when no heuristic seed could be placed. Like Anneal, it skips the
// search when the starting incumbent already meets LowerBound(p).
//
// Cancelling ctx stops the search promptly; the best schedule found so far
// is still returned.
func TabuSearch(ctx context.Context, p *Problem, cfg TabuConfig) (Schedule, bool) {
	return tabuSearch(ctx, p, cfg, nil, LowerBound(p))
}

// tabuSearch is TabuSearch starting from a decoded portfolio (nil decodes it
// here) and a proven lower bound lb.
func tabuSearch(ctx context.Context, p *Problem, cfg TabuConfig, pf *portfolio, lb int) (Schedule, bool) {
	cfg = cfg.withDefaults(p)

	octx := cfg.Obs
	tsp := octx.StartSpan("tabu").ArgInt("iterations", cfg.Iterations)
	defer tsp.End()
	rt := octx.Record(ctx, "tabu")
	defer rt.End()
	tctx := octx.WithSpan(tsp)
	sgsCtr := octx.Counter(obs.MSGSSchedules)
	stepCtr := octx.Counter(obs.MTabuSteps)

	if pf == nil {
		pf = decodeHeuristics(p, tctx)
	}
	g := pf.g
	best, found := pf.best, pf.found
	var list, opts []int
	if found {
		list = append([]int(nil), pf.list...)
		opts = append([]int(nil), pf.opts...)
	}
	// A warm-start seed competes with the portfolio; when it wins, the
	// search starts from the donor's (repaired) schedule instead.
	if len(cfg.SeedList) == len(p.Tasks) && len(cfg.SeedOpts) == len(p.Tasks) {
		if s, ok := g.decode(cfg.SeedList, cfg.SeedOpts); ok {
			sgsCtr.Inc()
			if !found || s.Makespan < best.Makespan {
				octx.Counter(obs.MSweepWarmImproved).Inc()
				best = s
				list = append(list[:0], cfg.SeedList...)
				opts = append(opts[:0], cfg.SeedOpts...)
				found = true
			}
		}
	}
	if !found {
		return Schedule{}, false
	}
	rt.Incumbent(0, float64(best.Makespan))
	n := len(p.Tasks)
	if n <= 1 || improverSkipped(octx, tsp, best, lb) {
		return best, true
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	tabuUntil := map[tabuMove]int{}
	cur := best.Clone()
	var probe Schedule // reused by the neighbourhood scan, which keeps only makespans

	for it := 0; it < cfg.Iterations; it++ {
		if it&cancelCheckMask == 0 && ctx.Err() != nil {
			break
		}
		stepCtr.Inc()
		type cand struct {
			move  tabuMove
			apply func()
			undo  func()
		}
		bestCand := -1
		bestSpan := -1
		var bestApply func()
		var bestMove tabuMove

		for k := 0; k < cfg.Neighborhood; k++ {
			var c cand
			if rng.Intn(2) == 0 {
				i := rng.Intn(n - 1)
				c = cand{
					move:  tabuMove{kind: 0, a: i, b: i + 1},
					apply: func() { list[i], list[i+1] = list[i+1], list[i] },
					undo:  func() { list[i], list[i+1] = list[i+1], list[i] },
				}
			} else {
				ti := rng.Intn(n)
				nOpts := len(p.Tasks[ti].Options)
				if nOpts <= 1 {
					continue
				}
				old := opts[ti]
				next := rng.Intn(nOpts)
				if next == old {
					next = (next + 1) % nOpts
				}
				c = cand{
					move:  tabuMove{kind: 1, a: ti, b: next},
					apply: func() { opts[ti] = next },
					undo:  func() { opts[ti] = old },
				}
			}
			// Tabu unless it would beat the global best (aspiration).
			c.apply()
			var ok bool
			probe, ok = g.decodeInto(probe, list, opts)
			sgsCtr.Inc()
			c.undo()
			if !ok {
				continue
			}
			if until, isTabu := tabuUntil[c.move]; isTabu && it < until && probe.Makespan >= best.Makespan {
				continue
			}
			if bestCand == -1 || probe.Makespan < bestSpan {
				bestCand = k
				bestSpan = probe.Makespan
				bestApply = c.apply
				bestMove = c.move
			}
		}
		if bestCand == -1 {
			continue
		}
		bestApply()
		sched, ok := g.decode(list, opts)
		sgsCtr.Inc()
		if !ok {
			continue
		}
		cur = sched
		tabuUntil[bestMove] = it + cfg.Tenure
		if cur.Makespan < best.Makespan {
			best = cur.Clone()
			rt.Incumbent(it+1, float64(best.Makespan))
		}
	}
	tsp.ArgInt("best_makespan", best.Makespan)
	return best, true
}
