package scheduler

import (
	"context"
	"math/rand"
	"testing"
)

func timelineProblem() *Problem {
	return &Problem{
		Tasks: []Task{
			{Name: "t", Options: []Option{{Cluster: 0, Duration: 3, Demand: []float64{2}}}},
		},
		NumClusters:  2,
		ClusterGroup: []int{0, 0}, // aliases of one device
		Resources:    []Resource{{Name: "power", Capacity: 3}},
		Horizon:      20,
	}
}

func TestTimelinePlaceFitsRemove(t *testing.T) {
	p := timelineProblem()
	tl := newTimeline(p)

	if ok, _ := tl.fits(0, 0, 0); !ok {
		t.Fatal("empty timeline rejects a placement")
	}
	tl.place(0, 0, 0)
	// Same group is busy for [0,3).
	if ok, conflict := tl.fits(0, 0, 2); ok || conflict != 2 {
		t.Errorf("overlapping placement accepted (ok=%v conflict=%d)", ok, conflict)
	}
	if ok, _ := tl.fits(0, 0, 3); !ok {
		t.Error("back-to-back placement rejected")
	}
	tl.remove(0, 0, 0)
	if ok, _ := tl.fits(0, 0, 0); !ok {
		t.Error("remove did not free the slot")
	}
}

func TestTimelineResourceConflict(t *testing.T) {
	p := timelineProblem()
	// Second cluster in its own group but sharing the power resource.
	p.ClusterGroup = []int{0, 1}
	p.Tasks = append(p.Tasks, Task{
		Name:    "u",
		Options: []Option{{Cluster: 1, Duration: 3, Demand: []float64{2}}},
	})
	tl := newTimeline(p)
	tl.place(0, 0, 0)
	// 2 + 2 > 3: the resource forbids overlap even across groups.
	if ok, _ := tl.fits(1, 0, 1); ok {
		t.Error("resource over-capacity placement accepted")
	}
	if ok, _ := tl.fits(1, 0, 3); !ok {
		t.Error("non-overlapping placement rejected")
	}
}

func TestTimelineGrowth(t *testing.T) {
	p := timelineProblem()
	tl := newTimeline(p)
	// Far beyond the horizon: the time axis is unbounded.
	if ok, _ := tl.fits(0, 0, 500); !ok {
		t.Error("placement past the horizon rejected")
	}
	tl.place(0, 0, 500)
	if ok, _ := tl.fits(0, 0, 501); ok {
		t.Error("overlap past the horizon accepted")
	}
}

func TestTimelineEarliestStartJumpsPastConflicts(t *testing.T) {
	p := timelineProblem()
	tl := newTimeline(p)
	tl.place(0, 0, 2) // busy [2,5)
	got := tl.earliestStart(0, 0, 0, 100)
	// Duration 3 starting at 0 would collide at step 2; the next feasible
	// start is 5.
	if got != 5 {
		t.Errorf("earliestStart = %d, want 5", got)
	}
	if got := tl.earliestStart(0, 0, 6, 100); got != 6 {
		t.Errorf("earliestStart from 6 = %d, want 6", got)
	}
}

func TestTimelineResetClearsEverything(t *testing.T) {
	p := timelineProblem()
	tl := newTimeline(p)
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 10; k++ {
		tl.place(0, 0, 6*k+rng.Intn(3))
	}
	tl.reset()
	for s := 0; s < 80; s += 7 {
		if ok, _ := tl.fits(0, 0, s); !ok {
			t.Fatalf("reset left residue at %d", s)
		}
	}
}

// TestTimelinePlaceRemoveRoundTripProperty: placing and removing random
// placements leaves the timeline exactly empty.
func TestTimelinePlaceRemoveRoundTripProperty(t *testing.T) {
	p := timelineProblem()
	tl := newTimeline(p)
	rng := rand.New(rand.NewSource(9))
	var starts []int
	for k := 0; k < 30; k++ {
		s := tl.earliestStart(0, 0, rng.Intn(40), 1000)
		if s < 0 {
			t.Fatal("no feasible start")
		}
		tl.place(0, 0, s)
		starts = append(starts, s)
	}
	for _, s := range starts {
		tl.remove(0, 0, s)
	}
	for g, iv := range tl.busy {
		if len(iv) != 0 {
			t.Fatalf("group %d still busy over %v after full removal", g, iv)
		}
	}
	// Every usage row returned to exactly zero, so all breakpoints merged
	// back into the single initial segment.
	if len(tl.pos) != 1 || len(tl.use) != len(p.Resources) {
		t.Fatalf("profile kept %d segments after full removal: %v", len(tl.pos), tl.pos)
	}
	for r, u := range tl.use {
		if u != 0 {
			t.Fatalf("resource %d usage %g after full removal", r, u)
		}
	}
}

func TestSolveWithTabuImprover(t *testing.T) {
	p := exampleFig2(false)
	res, err := Solve(context.Background(), p, Config{Seed: 1, Improver: "tabu"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Makespan != 7 {
		t.Errorf("tabu-improved makespan = %d, want 7", res.Schedule.Makespan)
	}
	if res.Method != "tabu" && res.Method != "tabu+justify" && res.Method != "exact" {
		t.Errorf("method = %q", res.Method)
	}
}

func TestSolveRejectsUnknownImprover(t *testing.T) {
	p := exampleFig2(false)
	if _, err := Solve(context.Background(), p, Config{Seed: 1, Improver: "quantum"}); err == nil {
		t.Error("accepted an unknown improver")
	}
}
