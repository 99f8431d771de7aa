package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"hilp/internal/core"
	"hilp/internal/rodinia"
	"hilp/internal/soc"
	"hilp/internal/wire"
	"hilp/internal/workgen"
)

// The generators turn --seed into program inputs. Each workload is a fixed
// stratified design, and the seed varies only what leaves a run's aggregate
// figures comparable across seeds: the order of solve-fine's points, the
// power and DSA perturbation of each sweep-dse batch, and the order of
// serve-mixed's sends.

// lattice is the §VI CPU-core x GPU-SM lattice without the CPU-only 4-core
// cell, in the order the generators visit it. On that cell the annealer
// rarely closes the gap, so destructive lower bounding and exact DFS run at
// 0.4 s steps and finer and take 3-90 s per point on a 2-vCPU Xeon VM (a
// 7-app subset of the Default set took 14.5 s, a 4-app workgen workload
// 92 s), which a closed-loop run of tens of seconds cannot hold steadily.
var lattice = [...][2]int{
	{1, 0}, {4, 16}, {2, 4}, {1, 64}, {2, 16}, {1, 4},
	{4, 64}, {2, 0}, {1, 16}, {4, 4}, {2, 64},
}

// solvePoint is one (workload, SoC) design point of the solve-fine stream.
type solvePoint struct {
	W    rodinia.Workload
	Spec soc.Spec
}

// solveCycle is the number of design points in one cycle of the solve-fine
// stream: four workload families on the eleven lattice cells.
const solveCycle = 4 * len(lattice)

// solvePoints returns the first n points of the seeded solve-fine stream. The
// stream repeats a fixed design of solveCycle points: point j of the design
// takes its workload family from j mod 4 (an application subset of the
// Default, Rodinia or Optimized set, or a workgen workload), its CPU/GPU cell
// from j mod 11, 5 to 7 applications and a DSA of 4 or 16 PEs on every other
// point. The seed sets where the stream enters the design.
//
// The seed changes only the order, not the points, on purpose: every run
// solves one full cycle, so gap_mean, speedup_geomean and hypervolume are
// exact functions of the solver and any change in them is a change in
// search quality, never sampling noise. Perturbing the points instead either
// vanishes in the time discretization (power budgets of 500-600 W, DSA
// advantages of 3.8-4.2 give identical schedules) or flips refinement and
// gap outcomes on a few points, which moves those metrics by 20-50% from
// seed to seed.
//
// Workloads have at least 5 applications (15 tasks), above the exact DFS's
// 12-task limit: on workloads of up to 12 tasks with a multi-core SoC the
// annealer often leaves a gap, and exact DFS at 0.4 s steps and finer runs
// into its 500k-node limit after 4-90 s per point, which a closed-loop run of
// tens of seconds cannot hold steadily.
func solvePoints(seed int64, n int) ([]solvePoint, error) {
	offset := rand.New(rand.NewSource(seed)).Intn(solveCycle)
	pts := make([]solvePoint, 0, n)
	for i := 0; i < n; i++ {
		j := (offset + i) % solveCycle
		apps := 5 + j%3
		var w rodinia.Workload
		switch j % 4 {
		case 0:
			w = subset(rodinia.DefaultWorkload(), apps, j)
		case 1:
			w = subset(rodinia.RodiniaWorkload(), apps, j)
		case 2:
			w = subset(rodinia.OptimizedWorkload(), apps, j)
		default:
			var err error
			w, err = workgen.Generate(workgen.Config{Seed: int64(j), Apps: apps})
			if err != nil {
				return nil, fmt.Errorf("generating workload for point %d: %w", i, err)
			}
		}
		cell := lattice[j%len(lattice)]
		spec := soc.Spec{CPUCores: cell[0], GPUSMs: cell[1]}
		if j%2 == 0 {
			spec.DSAs = topDSAs(w, 1, 4<<(2*(j/2%2)))
		}
		pts = append(pts, solvePoint{W: w, Spec: spec})
	}
	return pts, nil
}

// subset returns k applications of w, a window of its application list
// starting at application j, in their original order.
func subset(w rodinia.Workload, k, j int) rodinia.Workload {
	out := rodinia.Workload{Name: fmt.Sprintf("%s-%d", w.Name, k)}
	for a := 0; a < k; a++ {
		out.Apps = append(out.Apps, w.Apps[(j+a)%len(w.Apps)])
	}
	return out
}

// topDSAs places k DSAs of pes PEs on the applications with the longest CPU
// compute time, the allocation order of the §VI design space.
func topDSAs(w rodinia.Workload, k, pes int) []soc.DSA {
	order := w.ComputeCPUOrder()
	if k > len(order) {
		k = len(order)
	}
	dsas := make([]soc.DSA, k)
	for j := range dsas {
		dsas[j] = soc.DSA{PEs: pes, Target: w.Apps[order[j]].Bench.Abbrev}
	}
	return dsas
}

// sweepSpecs returns the k-th sweep-dse batch of a run: two overlapping
// slices of the Default workload's §VI lattice (CPUs {1,2,4} x GPU SMs
// {0,4,16} and {4,16,64}, up to two DSAs of 4 or 16 PEs), listed back to back
// as a DSE driver refining around a region would send them. The 4- and 16-SM
// points appear in both slices, so a third of the batch is served by the
// engine's canonical-model cache. The seed and k perturb the power budget
// (500-600 W) and the DSA efficiency advantage (3.8-4.2x), which changes some
// points' models but not the batch's shape; a run averages over its batches.
// The order stays fixed: with one worker the engine's warm-start donors
// depend on it, and rotating the batch changed its solve time by up to 2x.
func sweepSpecs(seed int64, k int) (rodinia.Workload, []soc.Spec) {
	rng := rand.New(rand.NewSource(seed + int64(k)<<32))
	w := rodinia.DefaultWorkload()
	power := 500 + 100*rng.Float64()
	adv := 3.8 + 0.4*rng.Float64()
	slice := func(gpus []int) []soc.Spec {
		return soc.DesignSpace(w, soc.SpaceConfig{
			CPUCores:  []int{1, 2, 4},
			GPUSMs:    gpus,
			MaxDSAs:   2,
			DSAPEs:    []int{4, 16},
			Advantage: adv,
			PowerW:    power,
		})
	}
	return w, append(slice([]int{0, 4, 16}), slice([]int{4, 16, 64})...)
}

// serveRequest is one distinct POST /v1/evaluate body of the serve-mixed pool.
type serveRequest struct {
	Body []byte
	// Template requests keep their decoded inputs for the analytic-bound
	// check; model requests leave them zero.
	Template bool
	W        rodinia.Workload
	Spec     soc.Spec
}

// servePlan is the serve-mixed traffic: the distinct request pool and, per
// client, the sequence of pool indices it sends.
type servePlan struct {
	Pool    []serveRequest
	Clients [][]int
}

const (
	serveClients = 2
	// serveSeqLen requests per client per round, of which serveDistinct are
	// first sends (cache misses) and the rest repeat them (hits).
	serveSeqLen   = 96
	serveDistinct = 24
)

// newServePlan builds each client's sequence: serveDistinct requests of its
// own, first sent at seeded positions (always including the first), and in
// between seeded repeats of requests it has already sent, so three quarters
// of the requests are cache hits. Clients never share a request, which keeps
// hit and miss counts independent of how the two clients interleave; the
// whole pool (48 requests) fits the server's default 128-entry cache.
// Alternate distinct requests are template mode and small model-mode DAGs
// shaped like examples/models/fig2.json.
//
// The pool itself does not depend on the seed, only the order of sends does:
// misses dominate a round's time, and drawing the requests from the seed made
// the round time and gap_mean swing by 25-60% from seed to seed.
func newServePlan(seed int64) (servePlan, error) {
	rng := rand.New(rand.NewSource(seed))
	var plan servePlan
	for c := 0; c < serveClients; c++ {
		first := make([]bool, serveSeqLen)
		first[0] = true
		for _, k := range rng.Perm(serveSeqLen - 1)[:serveDistinct-1] {
			first[k+1] = true
		}
		var own, seq []int
		for _, isNew := range first {
			if !isNew {
				seq = append(seq, own[rng.Intn(len(own))])
				continue
			}
			j := len(plan.Pool)
			var req serveRequest
			var err error
			if j%2 == 0 {
				req, err = templateRequest(j / 2)
			} else {
				req, err = modelRequest(j / 2)
			}
			if err != nil {
				return servePlan{}, err
			}
			plan.Pool = append(plan.Pool, req)
			own = append(own, j)
			seq = append(seq, j)
		}
		plan.Clients = append(plan.Clients, seq)
	}
	return plan, nil
}

// templateRequest builds the j-th template-mode request: five consecutive
// Table II benchmarks (Default-set setup/teardown) starting at benchmark j on
// lattice cell j, with a DSA on every other request. Five applications keep
// the instance above the exact DFS's 12-task limit; with three, the two or
// three misses that ran exact DFS made the tail swing with how they
// overlapped the other client's requests.
func templateRequest(j int) (serveRequest, error) {
	benches := rodinia.Benchmarks()
	ww := wire.Workload{Name: "mix"}
	for a := 0; a < 5; a++ {
		ww.Apps = append(ww.Apps, wire.App{Bench: benches[(j+a)%len(benches)].Abbrev, SetupTeardownDiv: 5})
	}
	cell := lattice[j%len(lattice)]
	ws := wire.SoC{CPUCores: cell[0], GPUSMs: cell[1]}
	if j%2 == 0 {
		ws.DSAs = []wire.DSA{{PEs: 4 << (2 * (j / 2 % 2)), Target: ww.Apps[j/2%5].Bench}}
	}
	w, err := ww.ToWorkload()
	if err != nil {
		return serveRequest{}, err
	}
	body, err := json.Marshal(wire.EvaluateRequest{Workload: &ww, SoC: &ws})
	if err != nil {
		return serveRequest{}, err
	}
	return serveRequest{Body: body, Template: true, W: w, Spec: ws.ToSpec()}, nil
}

// modelRequest builds the j-th model-mode request, a fig2-shaped DAG: 2-3
// applications of setup, compute and teardown phases on a CPU, a GPU and a
// DSA under a power budget, with durations drawn from j.
func modelRequest(j int) (serveRequest, error) {
	rng := rand.New(rand.NewSource(int64(j)))
	m := core.CustomModel{
		Name:         "dag",
		Clusters:     []core.CustomCluster{{Name: "cpu0"}, {Name: "gpu0"}, {Name: "dsa0"}},
		PowerBudgetW: float64(3 + rng.Intn(3)),
	}
	apps := 2 + rng.Intn(2)
	for a := 0; a < apps; a++ {
		name := func(ph int) string { return fmt.Sprintf("a%dp%d", a, ph) }
		cpuSec := float64(4 + rng.Intn(8))
		m.Tasks = append(m.Tasks,
			core.CustomTask{Name: name(0), App: a, Phase: 0,
				Options: []core.CustomOption{{Cluster: "cpu0", Sec: float64(1 + rng.Intn(2)), PowerW: 1}}},
			core.CustomTask{Name: name(1), App: a, Phase: 1, Deps: []core.CustomDep{{Task: name(0)}},
				Options: []core.CustomOption{
					{Cluster: "cpu0", Sec: cpuSec, PowerW: 1},
					{Cluster: "gpu0", Sec: float64(int(cpuSec*0.6) + rng.Intn(2)), PowerW: 3},
					{Cluster: "dsa0", Sec: float64(int(cpuSec*0.4) + 1 + rng.Intn(2)), PowerW: 2},
				}},
			core.CustomTask{Name: name(2), App: a, Phase: 2, Deps: []core.CustomDep{{Task: name(1)}},
				Options: []core.CustomOption{{Cluster: "cpu0", Sec: 1, PowerW: 1}}},
		)
	}
	body, err := json.Marshal(wire.EvaluateRequest{Model: &m})
	if err != nil {
		return serveRequest{}, err
	}
	return serveRequest{Body: body}, nil
}
