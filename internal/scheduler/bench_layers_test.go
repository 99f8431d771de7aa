package scheduler_test

// Per-layer benchmarks of the CP scheduler's hot path: the resource-timeline
// probe, one serial-SGS decode and exact-DFS node throughput, each at a
// coarse resolution (DSEProfile's 10 s steps) and a fine one
// (ValidationProfile after three 5x refinements, 0.016 s steps). The
// instances are 5-app (SGS) and 4-app (exact) subsets of the Default
// workload on a (c2,g16) SoC with a DSA, the shape of the repo benchmark's
// solve-fine points. BENCH_layers.json records interleaved runs of these
// against an older commit; one side runs with:
//
//	go test -run - -bench 'BenchmarkTimeline|BenchmarkDecode|BenchmarkExactDFS' -benchmem ./internal/scheduler

import (
	"context"
	"math/rand"
	"testing"

	"hilp/internal/core"
	"hilp/internal/rodinia"
	"hilp/internal/scheduler"
	"hilp/internal/soc"
)

var layerResolutions = []struct {
	name    string
	stepSec float64
	horizon int
}{
	{"coarse", core.DSEProfile.InitialStepSec, core.DSEProfile.Horizon},
	{"fine", core.ValidationProfile.InitialStepSec / 125, core.ValidationProfile.Horizon},
}

func layerProblem(b testing.TB, apps int, stepSec float64, horizon int) *scheduler.Problem {
	b.Helper()
	w := rodinia.DefaultWorkload()
	w = rodinia.Workload{Name: "layers", Apps: w.Apps[:apps]}
	spec := soc.Spec{CPUCores: 2, GPUSMs: 16, DSAs: []soc.DSA{{PEs: 4, Target: w.Apps[0].Bench.Abbrev}}}
	inst, err := core.BuildInstance(w, spec, stepSec, horizon)
	if err != nil {
		b.Fatal(err)
	}
	return inst.Problem
}

// layerLists returns k seeded random activity lists and option vectors that
// decode: slow options can push a task past the SGS's hard start bound.
func layerLists(p *scheduler.Problem, k int) (lists, opts [][]int) {
	decode := scheduler.DecoderForTest(p)
	rng := rand.New(rand.NewSource(1))
	for len(lists) < k {
		l := rng.Perm(len(p.Tasks))
		o := make([]int, len(p.Tasks))
		for i := range o {
			o[i] = rng.Intn(len(p.Tasks[i].Options))
		}
		if _, ok := decode(l, o); ok {
			lists, opts = append(lists, l), append(opts, o)
		}
	}
	return lists, opts
}

// BenchmarkTimelineEarliestStart probes every option of every task from
// ready time 0 against a timeline holding a full heuristic schedule.
func BenchmarkTimelineEarliestStart(b *testing.B) {
	for _, res := range layerResolutions {
		b.Run(res.name, func(b *testing.B) {
			p := layerProblem(b, 5, res.stepSec, res.horizon)
			s, ok := scheduler.HeuristicSchedule(p)
			if !ok {
				b.Fatal("no heuristic schedule")
			}
			probe := scheduler.EarliestStartForTest(p, s)
			var opts [][2]int
			for i := range p.Tasks {
				for oi := range p.Tasks[i].Options {
					opts = append(opts, [2]int{i, oi})
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if o := opts[i%len(opts)]; probe(o[0], o[1], 0) < 0 {
					b.Fatal("no feasible start")
				}
			}
		})
	}
}

// BenchmarkDecode decodes seeded random activity lists and option vectors,
// the unit of work of the annealing and tabu searches.
func BenchmarkDecode(b *testing.B) {
	for _, res := range layerResolutions {
		b.Run(res.name, func(b *testing.B) {
			p := layerProblem(b, 5, res.stepSec, res.horizon)
			decode := scheduler.DecoderForTest(p)
			lists, opts := layerLists(p, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := decode(lists[i%64], opts[i%64]); !ok {
					b.Fatal("decode failed")
				}
			}
		})
	}
}

// BenchmarkExactDFS runs the exact branch and bound for a fixed node budget
// with no priming bound, so every op explores the same nodes. The fine
// budget is small because a per-step timeline explores only a few hundred
// nodes per second there.
func BenchmarkExactDFS(b *testing.B) {
	budget := map[string]int{"coarse": 20_000, "fine": 300}
	for _, res := range layerResolutions {
		b.Run(res.name, func(b *testing.B) {
			p := layerProblem(b, 4, res.stepSec, res.horizon)
			cfg := scheduler.ExactConfig{NodeLimit: budget[res.name]}
			b.ReportAllocs()
			b.ResetTimer()
			explored := 0
			for i := 0; i < b.N; i++ {
				explored += scheduler.SolveExact(context.Background(), p, cfg).Nodes
			}
			b.ReportMetric(float64(explored)/b.Elapsed().Seconds(), "nodes/s")
		})
	}
}
