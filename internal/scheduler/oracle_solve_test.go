package scheduler_test

// Differential checks of the skyline timeline on core-built instances:
// workgen workloads on template SoCs and random dependency graphs, all under
// binding power and bandwidth caps. They live in the external test package
// because core imports scheduler.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hilp/internal/core"
	"hilp/internal/dag"
	"hilp/internal/scheduler"
	"hilp/internal/soc"
	"hilp/internal/workgen"
)

var updateSolveOracle = flag.Bool("update-solve-oracle", false,
	"rewrite testdata/solve_oracle.json from the current scheduler")

type namedProblem struct {
	name string
	p    *scheduler.Problem
}

// oracleInstances returns seeded workgen and DAG instances with power and
// bandwidth caps tight enough to bind.
func oracleInstances(t *testing.T) []namedProblem {
	t.Helper()
	var out []namedProblem
	for seed := int64(1); seed <= 6; seed++ {
		w, err := workgen.Generate(workgen.Config{Seed: seed, Apps: 2 + int(seed)%3})
		if err != nil {
			t.Fatal(err)
		}
		spec := soc.Spec{
			CPUCores:          1 + int(seed)%2,
			GPUSMs:            []int{0, 4, 16}[seed%3],
			GPUFrequenciesMHz: []float64{300, 765},
			PowerBudgetWatts:  120 + 40*float64(seed%3),
			MemBandwidthGBs:   60 + 30*float64(seed%2),
		}
		if seed%2 == 0 {
			spec.DSAs = []soc.DSA{{PEs: 4, Target: w.Apps[0].Bench.Abbrev}}
		}
		step := []float64{10, 2, 0.5}[seed%3]
		inst, err := core.BuildInstance(w, spec, step, 400)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedProblem{fmt.Sprintf("workgen-%d", seed), inst.Problem})
	}
	for seed := int64(1); seed <= 6; seed++ {
		m, err := randomGraph(seed)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := m.Build([]float64{0.5, 0.1, 0.02}[seed%3], 400)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedProblem{fmt.Sprintf("dag-%d", seed), inst.Problem})
	}
	return out
}

// randomGraph draws a 6-11 node dependency graph over two CPUs, a GPU with
// two DVFS points and a DSA, with finish-start and lagged start-start edges.
func randomGraph(seed int64) (core.CustomModel, error) {
	rng := rand.New(rand.NewSource(seed))
	g := dag.New(fmt.Sprintf("random-%d", seed))
	n := 6 + rng.Intn(6)
	for i := 0; i < n; i++ {
		sec := 0.5 + 4*rng.Float64()
		opts := []core.CustomOption{
			{Cluster: "cpu0", Sec: sec, PowerW: 1 + rng.Float64(), BandwidthGBs: 2 * rng.Float64()},
			{Cluster: "cpu1", Sec: sec, PowerW: 1 + rng.Float64(), BandwidthGBs: 2 * rng.Float64()},
		}
		if rng.Intn(2) == 0 {
			opts = append(opts,
				core.CustomOption{Cluster: "gpu-lo", Sec: sec / 3, PowerW: 2.5, BandwidthGBs: 3 + rng.Float64()},
				core.CustomOption{Cluster: "gpu-hi", Sec: sec / 5, PowerW: 4.5, BandwidthGBs: 4 + rng.Float64()})
		}
		if rng.Intn(4) == 0 {
			opts = append(opts, core.CustomOption{Cluster: "dsa", Sec: sec / 8, PowerW: 0.7})
		}
		g.Node(fmt.Sprintf("n%d", i), i%3, opts...)
		if i > 0 && rng.Intn(3) > 0 {
			g.Edge(fmt.Sprintf("n%d", rng.Intn(i)), fmt.Sprintf("n%d", i))
		}
		if i > 1 && rng.Intn(4) == 0 {
			g.EdgeLag(fmt.Sprintf("n%d", rng.Intn(i)), fmt.Sprintf("n%d", i), scheduler.StartStart, rng.Float64())
		}
	}
	clusters := []core.CustomCluster{
		{Name: "cpu0"}, {Name: "cpu1"},
		{Name: "gpu-lo", Group: "gpu"}, {Name: "gpu-hi", Group: "gpu"},
		{Name: "dsa"},
	}
	return g.Model(clusters, 5, 6)
}

// TestDecodeMatchesOracleOnGeneratedProblems decodes seeded random activity
// lists and option vectors with the production SGS and with the
// dense-timeline oracle; every schedule must be identical.
func TestDecodeMatchesOracleOnGeneratedProblems(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, np := range oracleInstances(t) {
		p := np.p
		got, want := scheduler.DecoderForTest(p), scheduler.OracleDecoderForTest(p)
		for k := 0; k < 40; k++ {
			list := rng.Perm(len(p.Tasks))
			opts := make([]int, len(p.Tasks))
			for i := range opts {
				opts[i] = rng.Intn(len(p.Tasks[i].Options))
			}
			g, okG := got(list, opts)
			w, okW := want(list, opts)
			if okG != okW || !reflect.DeepEqual(g, w) {
				t.Fatalf("%s list %v opts %v: decode = (%v, %+v), oracle (%v, %+v)", np.name, list, opts, okG, g, okW, w)
			}
		}
	}
}

// solveOracle is one recorded scheduler.Solve outcome.
type solveOracle struct {
	Name       string
	Makespan   int
	LowerBound int
	Method     string
	Nodes      int
	Start      []int
	Option     []int
}

// TestSolveMatchesRecordedOracle: scheduler.Solve reproduces, field for
// field, the results recorded in testdata/solve_oracle.json. The file was
// recorded with the per-step array timeline and list-rescanning decode the
// skyline replaced, so any drift in placement, search or certification
// shows up here. Rewrite it with -update-solve-oracle only when a change is
// meant to alter schedules.
func TestSolveMatchesRecordedOracle(t *testing.T) {
	var got []solveOracle
	for _, np := range oracleInstances(t) {
		res, err := scheduler.Solve(context.Background(), np.p, scheduler.Config{Seed: 1, Effort: 0.3, ExactNodeLimit: 20_000})
		if err != nil {
			t.Fatalf("%s: %v", np.name, err)
		}
		got = append(got, solveOracle{np.name, res.Schedule.Makespan, res.LowerBound, res.Method, res.Nodes,
			res.Schedule.Start, res.Schedule.Option})
	}
	path := filepath.Join("testdata", "solve_oracle.json")
	if *updateSolveOracle {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []solveOracle
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d instances, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: Solve = %+v, oracle %+v", got[i].Name, got[i], want[i])
		}
	}
}
