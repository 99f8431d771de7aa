package scheduler

import (
	"context"
	"reflect"
	"testing"

	"hilp/internal/obs"
)

// TestImproversSkipAtLowerBound: on problems whose heuristic portfolio
// already meets the lower bound, Anneal and TabuSearch return the portfolio
// schedule after exactly the portfolio's decodes, and it is the schedule the
// full search returns. Solve skips the same way and still reports the
// improver's method, proven.
func TestImproversSkipAtLowerBound(t *testing.T) {
	ctx := context.Background()
	hits := 0
	for seed := int64(0); seed < 300 && hits < 8; seed++ {
		p := randomProblem(seed)
		lb := LowerBound(p)
		want, ok := HeuristicSchedule(p)
		if len(p.Tasks) < 2 || !ok || want.Makespan != lb {
			continue
		}
		hits++
		decodes := int64(len(heuristicCandidates(p)))
		improvers := []struct {
			name string
			run  func(octx *obs.Context) (Schedule, bool)
			full func() (Schedule, bool) // the search with no bound to stop it
		}{
			{"anneal", func(octx *obs.Context) (Schedule, bool) {
				return Anneal(ctx, p, AnnealConfig{Seed: 1, Restarts: 2, Obs: octx})
			}, func() (Schedule, bool) {
				return anneal(ctx, p, AnnealConfig{Seed: 1, Restarts: 2}, nil, 0)
			}},
			{"tabu", func(octx *obs.Context) (Schedule, bool) {
				return TabuSearch(ctx, p, TabuConfig{Seed: 1, Obs: octx})
			}, func() (Schedule, bool) {
				return tabuSearch(ctx, p, TabuConfig{Seed: 1}, nil, 0)
			}},
		}
		for _, imp := range improvers {
			reg := obs.NewRegistry()
			got, ok := imp.run(&obs.Context{Metrics: reg})
			if !ok || !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d %s: skipped search returned %v (ok %v), want the portfolio schedule %v", seed, imp.name, got, ok, want)
			}
			if n := reg.Counter(obs.MSGSSchedules).Value(); n != decodes {
				t.Errorf("seed %d %s: %d decodes, want the portfolio's %d", seed, imp.name, n, decodes)
			}
			if n := reg.Counter(obs.MImproverSkipped).Value(); n != 1 {
				t.Errorf("seed %d %s: %s = %d, want 1", seed, imp.name, obs.MImproverSkipped, n)
			}
			if full, _ := imp.full(); !reflect.DeepEqual(full, want) {
				t.Errorf("seed %d %s: full search returned %v, the skip returned %v", seed, imp.name, full, want)
			}
		}
		for _, improver := range []string{"anneal", "tabu"} {
			reg := obs.NewRegistry()
			res, err := Solve(ctx, p, Config{Seed: 1, Improver: improver, Obs: &obs.Context{Metrics: reg}})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Schedule, want) || res.Method != improver || !res.Proven || res.LowerBound != lb {
				t.Errorf("seed %d: Solve(%s) = %s proven %v lb %d, want the portfolio schedule, %s, proven at %d",
					seed, improver, res.Method, res.Proven, res.LowerBound, improver, lb)
			}
			if n := reg.Counter(obs.MSGSSchedules).Value(); n != decodes {
				t.Errorf("seed %d: Solve(%s) made %d decodes, want the portfolio's %d", seed, improver, n, decodes)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no generated problem has a portfolio meeting its lower bound")
	}
}

// TestImproverSkipOnlyAtLowerBound: over generated problems, the lower
// bound changes no improver's schedule, and they skip exactly when the
// portfolio meets it.
func TestImproverSkipOnlyAtLowerBound(t *testing.T) {
	ctx := context.Background()
	above := 0
	for seed := int64(0); seed < 30; seed++ {
		p := randomProblem(seed)
		lb := LowerBound(p)
		h, ok := HeuristicSchedule(p)
		if len(p.Tasks) < 2 || !ok {
			continue
		}
		if h.Makespan > lb {
			above++
		}
		var wantSkips int64
		if h.Makespan == lb {
			wantSkips = 1
		}
		reg := obs.NewRegistry()
		octx := &obs.Context{Metrics: reg}
		a, _ := Anneal(ctx, p, AnnealConfig{Seed: seed, Obs: octx})
		tb, _ := TabuSearch(ctx, p, TabuConfig{Seed: seed, Obs: octx})
		if n := reg.Counter(obs.MImproverSkipped).Value(); n != 2*wantSkips {
			t.Errorf("seed %d: portfolio %d, bound %d: %d skips, want %d", seed, h.Makespan, lb, n, 2*wantSkips)
		}
		if full, _ := anneal(ctx, p, AnnealConfig{Seed: seed}, nil, 0); !reflect.DeepEqual(a, full) {
			t.Errorf("seed %d: anneal with the bound returned %v, without %v", seed, a, full)
		}
		if full, _ := tabuSearch(ctx, p, TabuConfig{Seed: seed}, nil, 0); !reflect.DeepEqual(tb, full) {
			t.Errorf("seed %d: tabu with the bound returned %v, without %v", seed, tb, full)
		}
	}
	if above == 0 {
		t.Fatal("no generated problem has a portfolio above its lower bound")
	}
}
