package core_test

// BenchmarkSolveAdaptiveCold times one cold §III-D evaluation: every level
// built, prepared and solved from scratch, with no warm start. The instance
// is a 6-app subset of the Default workload on a (c2,g16) SoC with a 4-PE
// DSA under ValidationProfile (2 s steps refined to 0.08 s: two levels whose
// refine decision the heuristic incumbent certifies, then one that waits
// for its solve). BENCH_layers.json records interleaved runs against an
// older commit, at GOMAXPROCS 2 and 1:
//
//	go test -run - -bench BenchmarkSolveAdaptiveCold -benchmem ./internal/core

import (
	"context"
	"testing"

	"hilp/internal/core"
	"hilp/internal/rodinia"
	"hilp/internal/scheduler"
	"hilp/internal/soc"
)

func BenchmarkSolveAdaptiveCold(b *testing.B) {
	w := rodinia.DefaultWorkload()
	w = rodinia.Workload{Name: "layers", Apps: w.Apps[:6]}
	spec := soc.Spec{CPUCores: 2, GPUSMs: 16, DSAs: []soc.DSA{{PEs: 4, Target: w.Apps[0].Bench.Abbrev}}}
	cfg := scheduler.Config{Seed: 1}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(ctx, w, spec, core.ValidationProfile, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
