package scheduler_test

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"hilp/internal/core"
	"hilp/internal/scheduler"
)

// TestSolveMemoryIndependentOfHorizon solves the fig2 example model at a
// 400M-step horizon. A per-step resource timeline allocated gigabytes here
// and died with a fatal out-of-memory error; the skyline profile allocates
// in the number of tasks, so the solve must stay within a few megabytes and
// match the result at a 100-step horizon.
func TestSolveMemoryIndependentOfHorizon(t *testing.T) {
	data, err := os.ReadFile("../../examples/models/fig2.json")
	if err != nil {
		t.Fatal(err)
	}
	var m core.CustomModel
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	solve := func(horizon int) (scheduler.Result, uint64) {
		inst, err := m.Build(1, horizon)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := scheduler.Solve(context.Background(), inst.Problem, scheduler.Config{Seed: 1})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return res, after.TotalAlloc - before.TotalAlloc
	}
	small, _ := solve(100)
	huge, alloc := solve(400_000_000)
	const budget = 16 << 20
	if alloc > budget {
		t.Errorf("solve at a 400M-step horizon allocated %d MiB, want <= %d MiB", alloc>>20, budget>>20)
	}
	if huge.Schedule.Makespan != small.Schedule.Makespan || huge.LowerBound != small.LowerBound {
		t.Errorf("400M-step horizon solved to makespan %d, bound %d; 100-step horizon to %d, %d",
			huge.Schedule.Makespan, huge.LowerBound, small.Schedule.Makespan, small.LowerBound)
	}
}
